"""Cover drivers: pack, charge, verify, and repair until verified.

Every driver runs the same loop: build a locally optimal packing, check
the structural facts, run the charging engine, verify the result
exactly.  A structure violation carries its improving swap, which is
applied after ``verify_swap``; a swap that fails is a bug and raises.
The engines do not raise: ``verify_cover`` alone judges what they
return.  A failed verification (reason ``verify``) with a triangle left
uncovered takes the first improving swap of size up to ``max_swap + 2``
anywhere in the packing, the search that local search runs; with none,
it raises.  A failed verification with every triangle covered is an
engine fault that no swap mends, so it raises at once.  Either way the
loop restarts, and since each repair grows the packing by one, it
terminates.  Each repair is logged with its reason, its focus edges (the
edges of the swap's triangles for a structure repair, of the first
uncovered triangle for a verify repair) and the swap.

Orders 2 and 3 run their own engine, order 6 the order-3 one doubled;
``cover`` composes every other order from the order-2 and order-3
covers.  The local search and the classification of its packing do not
depend on the order, so both run once per graph: every order, and both
halves of a composed order, start from the same packing and its checked
structure, kept in the graph's memo as values that do not hold the graph
(triangles, read-only maps, violations) and not checked again; repairs
build new packings and structures and leave the memo alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType

from .charges import ChargeAssignment, Report, charge_order3, charge_order6, verify_cover
from .checker import graph_sha256
from .errors import BadParamsError, RepairExhaustedError
from .graph import Graph, memo
from .order2 import run_order2
from .packing import DEFAULT_MAX_SWAP, Packing, find_swap, local_search_packing, verify_swap
from .structure import SolutionStructure, build_structure


@dataclass
class CoverResult:
    packing: Packing
    assignment: ChargeAssignment
    report: Report
    repair_log: list[dict] = field(default_factory=list)

    @property
    def repairs(self) -> int:
        return len(self.repair_log)


def graph_digest(g: Graph) -> str:
    return graph_sha256(g.n, g.edges)


def cover(
    g: Graph, order: int, seed: int = 0, max_swap: int = DEFAULT_MAX_SWAP
) -> CoverResult:
    """Verified order-``order`` cover, for every order of at least 2.

    Orders 2 and 3 run their own engine, order 6 the order-3 one doubled.
    Any other order takes order//2 copies of the order-2 cover, or one
    copy fewer plus the order-3 cover when the order is odd.
    """
    if order in (2, 3, 6):
        return _cover_single(g, order, seed, max_swap)
    if order < 2:
        raise BadParamsError(f"order must be at least 2, got {order}")
    q = order // 2 - order % 2  # copies of the order-2 cover
    parts = [_cover_single(g, 2, seed, max_swap)]
    nums = {e: q * v for e, v in parts[0].assignment.numerators.items()}
    if order % 2:
        parts.append(_cover_single(g, 3, seed, max_swap))
        for e, v in parts[1].assignment.numerators.items():
            nums[e] = nums.get(e, 0) + v
    composed = ChargeAssignment(order, nums)
    biggest = max(parts, key=lambda r: len(r.packing))
    report = verify_cover(g, composed, len(biggest.packing))
    log = [entry for r in parts for entry in r.repair_log]
    return CoverResult(biggest.packing, composed, report, log)


def _classify_start(g, seed, max_swap) -> tuple:
    """The local-search packing's triangles and its checked structure's
    info, attachments, edge owners and violations, none holding ``g``."""
    s = build_structure(g, local_search_packing(g, seed, max_swap))
    parts = (s.info, s.attachments, s.edge_owner)
    return (s.packing.triangles, *map(MappingProxyType, parts), s.violations)


def _cover_single(g, order, seed, max_swap) -> CoverResult:
    start, *parts = memo(
        g, ("start", seed, max_swap), lambda: _classify_start(g, seed, max_swap)
    )
    packing = Packing(g, list(start))
    s = SolutionStructure(g, packing, *parts)
    log: list[dict] = []
    guard = g.m + 2  # each repair grows the packing, at most m/3 times
    for _ in range(guard):
        if s.violations:
            v = s.violations[0]
            cert, reason = v.swap, f"structure:{v.kind}"
            focus = {e for t in cert.removed + cert.added for e in t.edge_ids}
            if not verify_swap(g, packing, cert):
                raise RepairExhaustedError(
                    f"{v.kind} swap does not verify", focus_edges=focus,
                    detail="structure-swap",
                )
        else:
            if order == 6:
                assignment = charge_order6(s)
            elif order == 3:
                assignment = charge_order3(s)
            else:
                assignment = run_order2(s)[0].assignment
            report = verify_cover(g, assignment, len(packing))
            if report.ok:
                return CoverResult(packing, assignment, report, log)
            if not report.failing:
                raise RepairExhaustedError(
                    "engine result covers every triangle but fails verification",
                    focus_edges={e for t in packing.triangles for e in t.edge_ids},
                    detail="verify",
                )
            focus = set(report.failing[0].edge_ids)
            cert, reason = find_swap(g, packing, max_swap + 2), "verify"
            if cert is None:
                raise RepairExhaustedError(
                    f"no improving swap up to size {max_swap + 2} in the packing",
                    focus_edges=focus,
                    detail="verify",
                )
        packing = packing.with_swap(cert)
        log.append(
            {
                "reason": reason,
                "focus": sorted(list(g.edges[e]) for e in focus),
                "removed": [list(t.vertices) for t in cert.removed],
                "added": [list(t.vertices) for t in cert.added],
                "size_after": len(packing),
            }
        )
        s = build_structure(g, packing)
    raise RepairExhaustedError("repair loop did not converge", detail="loop-guard")


def certificate_obj(g: Graph, result: CoverResult) -> dict:
    f = result.assignment
    return {
        "graph_sha256": graph_digest(g),
        "n": g.n,
        "m": g.m,
        "order": f.order,
        "packing": [list(t.vertices) for t in result.packing.triangles],
        "weights": [
            [g.edges[e][0], g.edges[e][1], f.numerators[e]] for e in f.support()
        ],
        "repair_log": result.repair_log,
        "verdict": {
            "covered": result.report.covered,
            "budget_ok": result.report.budget_ok,
            "integrality_ok": result.report.integrality_ok,
            "total_numerator": f.total().numerator,
            "total_denominator": f.total().denominator,
        },
    }


def certificate_dumps(g: Graph, result: CoverResult) -> str:
    """The certificate as JSON text, one top-level field per line.

    Each value goes through ``json.dumps`` without ``indent``, which the
    C encoder serves; with ``indent`` the pure-Python encoder runs.
    """
    fields = certificate_obj(g, result).items()
    lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in fields)
    return "{\n" + lines + "\n}"
