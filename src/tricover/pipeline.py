"""Cover drivers: one local search, one charge, one verification.

Every driver makes one pass.  The local search runs at ``max_swap`` or
3, whichever is larger, so its packing has no improving swap of size
three or less; by the ``structure`` module docstring such a maximal
packing has no structure violation, which is what the charging engines
assume (their ``require_clean`` guard stays as the backstop).  The
engine's result, and at a composed order the composed cover, goes to
``verify_cover`` once.  A cover that fails verification is an engine
bug: at every order ``cover`` raises ``SelfCheckError`` at once, with
the edges of the first uncovered triangle as focus, or every packed
edge when every triangle is covered, and returns no failing cover.  A cover is charged once
and never repaired.  Certificates once carried a ``repair_log`` field;
the checker never read it, so those certificates still verify.

Orders 2 and 3 run their own engine, order 6 the order-3 one doubled;
``cover`` composes every other order from the order-2 and order-3
covers.  The local search and the classification of its packing do not
depend on the order, so both run once per graph: every order, both
halves of a composed order, and every ``max_swap`` of 3 or less start
from the same packing and its checked structure, kept in the graph's
memo as values that do not hold the graph (triangles, read-only maps,
violations) and not checked again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import MappingProxyType

from .charges import ChargeAssignment, Report, charge_order3, charge_order6, verify_cover
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
    """Verified order-``order`` cover, for every order of at least 2.

    Orders 2 and 3 run their own engine, order 6 the order-3 one doubled.
    Any other order takes order//2 copies of the order-2 cover, or one
    copy fewer plus the order-3 cover when the order is odd.
    """
    if order in (2, 3, 6):
        return _cover_single(g, order, seed, max_swap)
    if order < 2:
        raise InputError(f"order must be at least 2, got {order}")
    q = order // 2 - order % 2  # copies of the order-2 cover
    two = _cover_single(g, 2, seed, max_swap)  # every part shares its packing
    nums = {e: q * v for e, v in two.assignment.numerators.items()}
    if order % 2:
        for e, v in _cover_single(g, 3, seed, max_swap).assignment.numerators.items():
            nums[e] = nums.get(e, 0) + v
    return _verified(g, two.packing, ChargeAssignment(order, nums))


def _classify_start(g, seed, max_swap) -> tuple:
    """The local-search packing's triangles and its checked structure's
    info, attachments, edge owners and violations, none holding ``g``."""
    s = build_structure(g, local_search_packing(g, seed, max_swap))
    parts = (s.info, s.attachments, s.edge_owner)
    return (s.packing.triangles, *map(MappingProxyType, parts), s.violations)


def _cover_single(g, order, seed, max_swap) -> CoverResult:
    if max_swap < 1:
        raise InputError("max_swap must be >= 1")
    search = max(max_swap, 3)
    start, *parts = memo(
        g, ("start", seed, search), lambda: _classify_start(g, seed, search)
    )
    packing = Packing(g, list(start))
    s = SolutionStructure(g, packing, *parts)
    if order == 6:
        assignment = charge_order6(s)
    elif order == 3:
        assignment = charge_order3(s)
    else:
        assignment = run_order2(s)[0].assignment
    return _verified(g, packing, assignment)


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
