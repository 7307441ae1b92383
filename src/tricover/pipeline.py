"""The cover driver: one local search, each engine at most once, verified.

Every order k >= 2 is 2a + 3b: a copies of the order-2 cover and b of
the order-3 cover, with (a, b) = (k//2 - k%2, k%2), except that order 6
takes (0, 2), the order-3 cover in sixths.  Each engine with a non-zero
count runs once.  A packed triangle spends at most 2 credits in each
engine's cover, and the sum books it sum(count * engine order / k)
times its spending in each: weights that sum to 1, so at most 2 again.
A cover made by one engine alone keeps that engine's ledger.

The local search runs at ``max_swap`` or 3, whichever is larger, so by
the ``structure`` module docstring its packing has no structure
violation, which is what the engines assume; one there is the library's
own fault and raises ``SelfCheckError``.  The search and the
classification of its packing do not depend on the order, so both run
once per graph and are kept in its memo as values that do not hold the
graph (triangles, read-only maps, violations), shared by every order
and every ``max_swap`` of 3 or less.  A cover of one engine's weights
goes to ``verify_cover`` once; a mixed order verifies each engine's
cover and then their sum.  A cover that fails is an engine bug:
``SelfCheckError`` at once, with the edges of the first uncovered
triangle as focus, or every packed edge when every triangle is
covered.  A cover is never repaired; certificates that still carry the
old ``repair_log`` field verify, as the checker never read it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .charges import ChargeAssignment, Report, charge_order3, verify_cover
from .checker import graph_sha256
from .errors import InputError, SelfCheckError
from .graph import Graph, memo
from .order2 import run_order2
from .packing import DEFAULT_MAX_SWAP, Packing, local_search_packing
from .structure import SolutionStructure, build_structure


@dataclass
class CoverResult:
    packing: Packing
    assignment: ChargeAssignment
    report: Report

    @property
    def repairs(self) -> int:
        """Always 0: a cover is never repaired.  Kept only because
        ``perfbench/run.py`` and ``perfbench/workloads.py`` still read it,
        until the benchmark stops doing so."""
        return 0


def graph_digest(g: Graph) -> str:
    return graph_sha256(g.n, g.edges)


def cover(
    g: Graph, order: int, seed: int = 0, max_swap: int = DEFAULT_MAX_SWAP
) -> CoverResult:
    """Verified order-``order`` cover, for every order of at least 2:
    ``a`` order-2 covers and ``b`` order-3 covers, summed, as the module
    docstring says."""
    if order < 2:
        raise InputError(f"order must be at least 2, got {order}")
    if max_swap < 1:
        raise InputError("max_swap must be >= 1")
    a, b = (0, 2) if order == 6 else (order // 2 - order % 2, order % 2)
    s = _start(g, seed, max(max_swap, 3))
    parts = []  # (count, engine's cover)
    if a:
        parts.append((a, run_order2(s)[0].assignment))
    if b:
        parts.append((b, charge_order3(s)))
    if len(parts) == 1:
        ((count, f),) = parts
        if count > 1:
            nums = {e: count * v for e, v in f.numerators.items()}
            f = ChargeAssignment(order, nums, f.per_triangle)
        return _verified(g, s.packing, f)
    nums, spent = {}, {}
    for count, f in parts:
        _verified(g, s.packing, f)
        for e, v in f.numerators.items():
            nums[e] = nums.get(e, 0) + count * v
        share = Fraction(count * f.order, order)
        for psi, x in f.per_triangle.items():
            spent[psi] = spent.get(psi, 0) + share * x
    return _verified(g, s.packing, ChargeAssignment(order, nums, spent))


def _classify_start(g, seed, max_swap) -> tuple:
    """The local-search packing's triangles and its checked structure's
    info, attachments, edge owners and violations, none holding ``g``."""
    s = build_structure(g, local_search_packing(g, seed, max_swap))
    parts = (s.info, s.attachments, s.edge_owner)
    return (s.packing.triangles, *map(MappingProxyType, parts), s.violations)


def _start(g, seed, search) -> SolutionStructure:
    """The memoised start structure of a search at ``search``; one with a
    violation raises ``SelfCheckError``."""
    start, *parts = memo(
        g, ("start", seed, search), lambda: _classify_start(g, seed, search)
    )
    s = SolutionStructure(g, Packing(g, list(start)), *parts)
    if s.violations:
        raise SelfCheckError(
            "the local search's packing has open violations: "
            f"{[v.kind for v in s.violations]}",
            focus_edges={e for t in s.violations[0].swap.removed for e in t.edge_ids},
        )
    return s


def _verified(g, packing, assignment) -> CoverResult:
    """The result, once ``verify_cover`` accepts ``assignment``; at every
    order a rejection raises ``SelfCheckError``."""
    report = verify_cover(g, assignment, len(packing))
    if not report.ok:
        focus = report.failing[:1] or packing.triangles
        raise SelfCheckError(
            f"the order-{assignment.order} engine's cover fails verification",
            focus_edges={e for t in focus for e in t.edge_ids},
        )
    return CoverResult(packing, assignment, report)


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
