"""Edge-disjoint triangle packings and exact fractional triangle covers."""

from .charges import ChargeAssignment, Report, charge_order3, charge_order6, verify_cover
from .checker import verify_certificate
from .generators import InstanceSpec, generate
from .graph import (
    Graph,
    Triangle,
    build_graph,
    enumerate_triangles,
    format_edge_list,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)
from .oracles import (
    OracleResult,
    compose_order_k,
    nu_exact,
    round_third_integral,
    tau_exact,
    tau_star_k_exact,
)
from .order2 import run_order2
from .packing import (
    Packing,
    SwapCertificate,
    greedy_packing,
    local_search_packing,
    targeted_swap,
    verify_packing,
    verify_swap,
)
from .pipeline import CoverResult, cover, certificate_obj
from .structure import (
    SolutionStructure,
    StructureViolation,
    build_structure,
    check_structure,
)

__version__ = "0.1.0"

__all__ = [
    "ChargeAssignment",
    "CoverResult",
    "Graph",
    "InstanceSpec",
    "OracleResult",
    "Packing",
    "Report",
    "SolutionStructure",
    "StructureViolation",
    "SwapCertificate",
    "Triangle",
    "build_graph",
    "build_structure",
    "certificate_obj",
    "charge_order3",
    "charge_order6",
    "check_structure",
    "compose_order_k",
    "cover",
    "enumerate_triangles",
    "format_edge_list",
    "generate",
    "greedy_packing",
    "local_search_packing",
    "nu_exact",
    "parse_edge_list",
    "read_edge_list",
    "round_third_integral",
    "run_order2",
    "targeted_swap",
    "tau_exact",
    "tau_star_k_exact",
    "verify_certificate",
    "verify_cover",
    "verify_packing",
    "verify_swap",
    "write_edge_list",
]
