"""Certificate checker on plain integers, independent of the producer.

This module uses the standard library only and imports nothing else from
``tricover``.  A bug in the packing, charging or verification code of
the producer therefore cannot also hide in the check of its certificate:
the checker rebuilds its own edge index, enumerates the triangles itself
and tests every one of them against the stated weights in integer
arithmetic.  Of the graph it reads ``g.n`` and ``g.edges`` only, the
canonical ``(u, v)`` pairs with ``u < v`` whose position is the edge id.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain


@dataclass(frozen=True)
class VerifyOutcome:
    ok: bool
    messages: tuple[str, ...]


def graph_sha256(n: int, edges: list[tuple[int, int]]) -> str:
    """sha256 of the edge-list text of the graph on ``n`` vertices with
    ``edges``: a header ``n m``, then one ``u v`` line per edge."""
    head = f"{n} {len(edges)}\n"
    text = head + "%d %d\n" * len(edges) % tuple(chain.from_iterable(edges))
    return hashlib.sha256(text.encode()).hexdigest()


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


def _packing_problem(tris: list[tuple[int, ...]]) -> str | None:
    """Why the resolved packing rows ``(x, y, z, e_xy, e_xz, e_yz)`` are
    not a set of edge-disjoint triangles, or None.  A shared edge is
    reported first, as the first edge met twice going through the
    distinct triangles in sorted order."""
    if len({e for t in tris for e in t[3:]}) == 3 * len(tris):
        return None
    used: set[int] = set()
    for t in sorted(set(tris)):
        for e in t[3:]:
            if e in used:
                return f"edge {e} used twice in packing"
            used.add(e)
    return "a triangle is listed twice"


def verify_certificate(g, obj: object) -> VerifyOutcome:
    """Re-check a persisted certificate against the graph, exactly.

    A certificate that breaks the schema (a missing field, an order
    below 2, a number that is not an integer, an edge weighted twice, a
    triangle packed twice, a zero total denominator) fails without
    further checks.  Otherwise every triangle of the graph must have
    numerators summing to at least the order, the weights must lie in
    ``0..order``, their total must be at most twice the packing size,
    and a stated total must equal it.
    """
    problem = _schema_problem(obj)
    if problem is not None:
        return VerifyOutcome(False, (f"bad certificate: {problem}",))
    n, edges = g.n, g.edges
    messages: list[str] = []
    if obj["graph_sha256"] != graph_sha256(n, edges):
        messages.append("graph digest mismatch")
    index = dict(zip(edges, range(len(edges))))
    tris = []
    try:
        for row in obj["packing"]:
            x, y, z = sorted(row)
            tris.append((x, y, z, index[x, y], index[x, z], index[y, z]))
    except KeyError as exc:
        return VerifyOutcome(False, (f"bad packing: {exc}",))
    problem = _packing_problem(tris)
    if problem is not None:
        return VerifyOutcome(False, (f"bad packing: {problem}",))
    order = obj["order"]
    num = [0] * len(edges)
    weighted: set[int] = set()
    for u, v, w in obj["weights"]:
        e = index.get((u, v) if u < v else (v, u))
        if e is None:
            return VerifyOutcome(False, (f"weight on missing edge ({u},{v})",))
        if e in weighted:
            return VerifyOutcome(False, (f"edge ({u},{v}) weighted twice",))
        weighted.add(e)
        num[e] = w
    above: dict[int, dict[int, int]] = {}  # vertex -> {higher neighbour: edge id}
    for e, (u, v) in enumerate(edges):
        above.setdefault(u, {})[v] = e
    misses = 0
    first = None
    for u, hu in above.items():
        for v, uv in hu.items():
            hv = above.get(v)
            if hv is None:
                continue
            need = order - num[uv]
            for w, vw in hv.items():
                uw = hu.get(w)
                if uw is not None and num[uw] + num[vw] < need:
                    misses += 1
                    if first is None or (u, v, w) < first:
                        first = (u, v, w)
    if misses:
        messages.append(f"{misses} triangles uncovered, first {first}")
    total = sum(num)
    size = len(tris)
    if total > 2 * size * order:
        messages.append(f"budget exceeded: total {Fraction(total, order)} > 2*{size}")
    if num and (min(num) < 0 or max(num) > order):
        messages.append("weights outside 0..order")
    verdict = obj.get("verdict", {})
    stated = verdict.get("total_numerator", 0), verdict.get("total_denominator", 1)
    if verdict and stated[0] * order != total * stated[1]:
        messages.append("stated total differs from recomputed total")
    return VerifyOutcome(not messages, tuple(messages))
