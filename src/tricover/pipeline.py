"""Cover drivers: pack, charge, verify, and repair until verified.

Every driver runs the same loop: build a locally optimal packing, check
the structural facts, run the charging engine, verify the result
exactly.  A structure violation carries its improving swap, which is
applied after ``verify_swap``; a swap that fails is a bug and raises.
Engine and verify failures yield a set of focus edges; a targeted swap
search (escalating through larger swap sizes) must then improve the
packing.  Either way the loop restarts, and since each repair grows the
packing by one, it terminates.  Each repair is logged with its reason,
its focus edges (for a structure repair, the edges of the swap's
triangles) and the swap.

The local search is deterministic in (graph, seed, max_swap), so it runs
once per graph: every order, and both halves of a composed order, start
from the same packing, kept in the graph's memo as its triangles.
Repairs build new packings from it and leave the memo as it is.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .charges import ChargeAssignment, Report, charge_order3, charge_order6, verify_cover
from .errors import InternalChargeError, MissingInputError, RepairExhaustedError
from .graph import Graph, format_edge_list, memo
from .oracles import compose_order_k
from .order2 import run_order2
from .packing import Packing, local_search_packing, targeted_swap, verify_swap
from .structure import build_structure

ESCALATION = (0, 1, 2)  # added to max_swap before giving up


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
    return hashlib.sha256(format_edge_list(g).encode()).hexdigest()


def _apply(g, packing, cert, focus, log, reason) -> Packing:
    """Apply a repair swap and log it."""
    new_packing = packing.with_swap(cert)
    log.append(
        {
            "reason": reason,
            "focus": sorted(list(g.edges[e]) for e in focus),
            "removed": [list(t.vertices) for t in cert.removed],
            "added": [list(t.vertices) for t in cert.added],
            "size_after": len(new_packing),
        }
    )
    return new_packing


def _repair(g, packing, focus, max_swap, log, reason) -> Packing:
    for bump in ESCALATION:
        cert = targeted_swap(g, packing, set(focus), max_swap + bump)
        if cert is not None:
            return _apply(g, packing, cert, focus, log, reason)
    raise RepairExhaustedError(
        f"no improving swap up to size {max_swap + ESCALATION[-1]} around focus",
        focus_edges=focus,
        detail=reason,
    )


def cover(
    g: Graph,
    order: int,
    seed: int = 0,
    max_swap: int = 5,
) -> CoverResult:
    """Verified order-{2,3,6} cover; other orders are composed from 2 and 3."""
    if order in (2, 3, 6):
        return _cover_single(g, order, seed, max_swap)
    if order < 2:
        raise MissingInputError("order must be at least 2")
    f2 = f3 = None
    base = None
    if order % 2 == 0 or order > 3:
        base = _cover_single(g, 2, seed, max_swap)
        f2 = base.assignment
    extra: CoverResult | None = None
    if order % 2 == 1:
        extra = _cover_single(g, 3, seed, max_swap)
        f3 = extra.assignment
    composed = compose_order_k(f2, f3, order)
    sizes = [len(r.packing) for r in (base, extra) if r is not None]
    biggest = max(
        (r for r in (base, extra) if r is not None), key=lambda r: len(r.packing)
    )
    report = verify_cover(g, composed, max(sizes))
    log = (base.repair_log if base else []) + (extra.repair_log if extra else [])
    return CoverResult(biggest.packing, composed, report, log)


def _cover_single(g, order, seed, max_swap) -> CoverResult:
    start = memo(
        g,
        ("local_search", seed, max_swap),
        lambda: local_search_packing(g, seed, max_swap).triangles,
    )
    packing = Packing(g, list(start))
    log: list[dict] = []
    guard = g.m + 2  # each repair grows the packing, at most m/3 times
    for _ in range(guard):
        s = build_structure(g, packing)
        if s.violations:
            v = s.violations[0]
            focus = {e for t in v.swap.removed + v.swap.added for e in t.edge_ids}
            if not verify_swap(g, packing, v.swap):
                raise RepairExhaustedError(
                    f"{v.kind} swap does not verify", focus_edges=focus,
                    detail="structure-swap",
                )
            packing = _apply(g, packing, v.swap, focus, log, f"structure:{v.kind}")
            continue
        try:
            if order == 6:
                assignment = charge_order6(s)
            elif order == 3:
                assignment = charge_order3(s)
            else:
                run, witness = run_order2(s)
                if witness is not None:
                    packing = _repair(g, packing, witness, max_swap, log, "demand-shape")
                    continue
                assignment = run.assignment
        except InternalChargeError as exc:
            packing = _repair(
                g, packing, exc.focus_edges, max_swap, log, f"internal:{exc}"
            )
            continue
        report = verify_cover(g, assignment, len(packing))
        if report.ok:
            return CoverResult(packing, assignment, report, log)
        if report.failing:
            focus = set(report.failing[0].edge_ids)
        else:
            focus = {e for t in packing.triangles for e in t.edge_ids}
        packing = _repair(g, packing, focus, max_swap, log, "verify")
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
    return json.dumps(certificate_obj(g, result), indent=2)


@dataclass(frozen=True)
class VerifyOutcome:
    ok: bool
    messages: tuple[str, ...]


def _int_rows(rows: object) -> bool:
    """A list of three-integer lists.  ``type(x) is int`` rejects JSON
    booleans and floats; it is also the cheapest test per row."""
    return type(rows) is list and all(
        type(r) is list and len(r) == 3 and type(r[0]) is type(r[1]) is type(r[2]) is int
        for r in rows
    )


def _schema_problem(obj: object) -> str | None:
    """The first way ``obj`` breaks the certificate schema, or None."""
    if not isinstance(obj, dict):
        return "certificate is not a JSON object"
    missing = [k for k in ("graph_sha256", "order", "packing", "weights") if k not in obj]
    if missing:
        return f"missing fields {missing}"
    order = obj["order"]
    if type(order) is not int or order < 2:
        return f"order {order!r} is not an integer >= 2"
    for key in ("packing", "weights"):
        if not _int_rows(obj[key]):
            return f"{key} is not a list of three-integer rows"
    verdict = obj.get("verdict", {})
    if not isinstance(verdict, dict):
        return "verdict is not a JSON object"
    for key in ("total_numerator", "total_denominator"):
        if key in verdict and type(verdict[key]) is not int:
            return f"verdict {key} {verdict[key]!r} is not an integer"
    if verdict.get("total_denominator") == 0:
        return "verdict total_denominator is 0"
    return None


def verify_certificate(g: Graph, obj: object) -> VerifyOutcome:
    """Re-check a persisted certificate against the graph, exactly.

    A certificate that breaks the schema (a missing field, an order
    below 2, a number that is not an integer, an edge weighted twice, a
    triangle packed twice, a zero total denominator) fails without
    further checks.
    """
    problem = _schema_problem(obj)
    if problem is not None:
        return VerifyOutcome(False, (f"bad certificate: {problem}",))
    messages: list[str] = []
    if obj["graph_sha256"] != graph_digest(g):
        messages.append("graph digest mismatch")
    try:
        packing = Packing(g, [g.triangle(*vs) for vs in obj["packing"]])
    except (KeyError, ValueError) as exc:
        return VerifyOutcome(False, (f"bad packing: {exc}",))
    if len(packing) != len(obj["packing"]):
        return VerifyOutcome(False, ("bad packing: a triangle is listed twice",))
    nums: dict[int, int] = {}
    for u, v, num in obj["weights"]:
        if not g.has_edge(u, v):
            return VerifyOutcome(False, (f"weight on missing edge ({u},{v})",))
        eid = g.edge_id(u, v)
        if eid in nums:
            return VerifyOutcome(False, (f"edge ({u},{v}) weighted twice",))
        nums[eid] = num
    f = ChargeAssignment(obj["order"], nums)
    report = verify_cover(g, f, len(packing))
    if not report.covered:
        messages.append(
            f"{len(report.failing)} triangles uncovered, first {report.failing[0].vertices}"
        )
    if not report.budget_ok:
        messages.append(f"budget exceeded: total {report.total} > 2*{len(packing)}")
    if not report.integrality_ok:
        messages.append("weights outside 0..order")
    claimed = obj.get("verdict", {})
    if claimed:
        total = Fraction(
            claimed.get("total_numerator", 0), claimed.get("total_denominator", 1)
        )
        if total != f.total():
            messages.append("stated total differs from recomputed total")
    return VerifyOutcome(not messages, tuple(messages))
