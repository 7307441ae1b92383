"""Exact fractional charge assignments, the credit ledger, and the
order-3 engine.

Weights are integer numerators over a fixed denominator (the order), so
all verification is exact rational arithmetic.  Both charging engines
(orders 3 and 2) book their credits on one ``Ledger``: each packed
triangle places numerators on nearby edges, its contributions are kept
apart from everyone else's so a triangle's whole share can be replaced,
and contributions from different packed triangles accumulate per edge;
the ledger's read-out caps each edge at weight one.  Order 3 places its
spare thirds by a stated rule on pairs of packed triangles, not by a
search, and no engine checks its own result: ``verify_cover`` is the
single check that every triangle is covered, the budget holds and no
edge is above weight one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import InputError
from .graph import Graph, Triangle, enumerate_triangles
from .structure import SolutionStructure


@dataclass
class ChargeAssignment:
    """Per-edge weights numerator/order, stored exactly."""

    order: int
    numerators: dict[int, int]
    per_triangle: dict[Triangle, Fraction] | None = field(default=None, repr=False)

    def value(self, eid: int) -> Fraction:
        return Fraction(self.numerators.get(eid, 0), self.order)

    def total(self) -> Fraction:
        return Fraction(sum(self.numerators.values()), self.order)

    def support(self) -> list[int]:
        return sorted(e for e, v in self.numerators.items() if v)


@dataclass(frozen=True)
class Report:
    covered: bool
    failing: tuple[Triangle, ...]
    budget_ok: bool
    integrality_ok: bool
    total: Fraction

    @property
    def ok(self) -> bool:
        return self.covered and self.budget_ok and self.integrality_ok


def uncovered_triangles(g: Graph, f: ChargeAssignment) -> tuple[Triangle, ...]:
    """The triangles of ``g`` with weight below one under ``f``, in order.

    A triangle has weight at least one exactly when its three edges'
    numerators sum to at least ``f.order``: the rational test, made on
    integers.
    """
    get = f.numerators.get
    order = f.order
    out = []
    for t in enumerate_triangles(g):
        a, b, c = t.edge_ids
        if get(a, 0) + get(b, 0) + get(c, 0) < order:
            out.append(t)
    return tuple(out)


def verify_cover(g: Graph, f: ChargeAssignment, packing_size: int) -> Report:
    """Exact check: every triangle hit with total >= 1, budget <= 2*packing.

    The cover test is ``uncovered_triangles``: integer numerator sums
    against the order, equivalent to the rational test.
    """
    failing = uncovered_triangles(g, f)
    total = f.total()
    integrality = all(0 <= v <= f.order for v in f.numerators.values())
    return Report(
        covered=not failing,
        failing=failing,
        budget_ok=total <= 2 * packing_size,
        integrality_ok=integrality,
        total=total,
    )


class Ledger:
    """Credit numerators over a fixed order, kept per packed triangle.

    ``numerators`` is the per-edge sum of every triangle's ``contrib``.
    """

    def __init__(self, order: int):
        self.order = order
        self.numerators: dict[int, int] = {}
        self.contrib: dict[Triangle, dict[int, int]] = {}

    def give(self, psi: Triangle, eid: int, num: int) -> None:
        self.numerators[eid] = self.numerators.get(eid, 0) + num
        m = self.contrib.setdefault(psi, {})
        m[eid] = m.get(eid, 0) + num

    def replace(self, psi: Triangle, mapping: dict[int, int]) -> None:
        """Swap out the whole contribution of ``psi`` for ``mapping``."""
        for e, num in self.contrib.get(psi, {}).items():
            self.numerators[e] -= num
        self.contrib[psi] = {}
        for e, num in mapping.items():
            self.give(psi, e, num)

    def f(self, eid: int) -> Fraction:
        return Fraction(self.numerators.get(eid, 0), self.order)

    def spent(self, psi: Triangle) -> Fraction:
        return Fraction(sum(self.contrib.get(psi, {}).values()), self.order)

    def to_assignment(self) -> ChargeAssignment:
        """The booked credits with every edge capped at weight one.

        An edge at weight one covers each triangle through it alone, so
        the cap keeps every triangle covered and can only lower the total.
        ``per_triangle`` is what each triangle placed, before the cap.
        """
        nums = {e: v for e, v in self.numerators.items() if v}
        if max(nums.values(), default=0) > self.order:
            nums = {e: min(v, self.order) for e, v in nums.items()}
        return ChargeAssignment(
            self.order, nums, {psi: self.spent(psi) for psi in self.contrib}
        )


def require_clean(s: SolutionStructure) -> None:
    """The guard of every charging engine: they assume a structure with no
    open violations."""
    if s.violations:
        raise InputError(
            f"structure has open violations: {[v.kind for v in s.violations]}"
        )


def charge_order6(s: SolutionStructure) -> ChargeAssignment:
    """The order-3 charge in sixths: a (1/3)-integral cover is (1/6)-integral.

    ``cover`` at order 6 gives the same numerators and ledger, as its
    (a, b) = (0, 2) composition; this name is the census's and the
    benchmark replay's for that composition."""
    f = charge_order3(s)
    return ChargeAssignment(6, {e: 2 * v for e, v in f.numerators.items()}, f.per_triangle)


def charge_order3(s: SolutionStructure) -> ChargeAssignment:
    """Order-3 scheme: thirds only, type-1 triangles processed iteratively.

    Triangles with a unique attachment are handled in ascending canonical
    order: the base gets 2/3, then each base endpoint's attachment leg is
    inspected; a still-null leg gets 1/3 together with the adjacent
    non-base edge, otherwise the non-base edge alone gets 2/3.
    """
    require_clean(s)
    led = Ledger(3)
    singles: list[Triangle] = []
    for psi in s.packing.triangles:
        i = s.info[psi]
        if i.type == 0:
            for e in psi.edge_ids:
                led.give(psi, e, 2)
        elif i.type == 3:
            for e in s.k4_region_edges(psi):
                led.give(psi, e, 1)
        elif len(i.cl_sin) > 1:
            led.give(psi, i.base, 3)
            for e in psi.edge_ids:
                if e != i.base:
                    led.give(psi, e, 1)
        else:
            singles.append(psi)

    for psi in sorted(singles):
        i = s.info[psi]
        u, v = s.g.edges[i.base]
        led.give(psi, i.base, 2)
        for end, other in ((u, v), (v, u)):
            leg = s.spoke(psi, end)
            own_nonbase = psi.opposite(other)
            if led.numerators.get(leg, 0) == 0:
                led.give(psi, leg, 1)
                led.give(psi, own_nonbase, 1)
            else:
                led.give(psi, own_nonbase, 2)

    _spend_spare_thirds(s, led)
    return led.to_assignment()


def _spend_spare_thirds(s: SolutionStructure, led: Ledger) -> None:
    """Finish the bridges between type-1 triangles with several
    attachments, which place only 5/3 of their two credits.

    Two such triangles psi1 < psi2 meet in at most one vertex x, as in a
    K5.  A bridge x-u-w, with u in psi1, w in psi2 and u-w an edge, is
    short at 2/3: x-u and x-w hold a third each and u-w none.  The short
    bridges lie on the grid of psi1's two sides at x by psi2's two, so a
    third on each of psi1's sides that they use finishes them all, and so
    does a third on each of psi2's.  The side needing fewer edges gets
    them, psi1's on a tie: its owner pays the first third, the other
    triangle the second.  Pairs go in order, found through a map from
    each vertex to its triangles, and a triangle that has paid pays for
    no later pair, so none spends more than two credits.
    """
    g, get = s.g, led.numerators.get
    at: dict[int, list[Triangle]] = {}
    for psi in s.packing.triangles:
        if s.info[psi].type == 1 and len(s.info[psi].cl_sin) > 1:
            for x in psi.vertices:
                at.setdefault(x, []).append(psi)
    paid: set[Triangle] = set()
    for p1, p2, x in sorted((*pair, x) for x, ts in at.items() for pair in combinations(ts, 2)):
        if p1 in paid or p2 in paid:
            continue  # a payer has spent both credits: the budget, not a rule seen to decide
        short = [
            (u, w) for u in p1.vertices for w in p2.vertices
            if x not in (u, w) and g.has_edge(u, w)
            and get(g.edge_id(x, u), 0) + get(g.edge_id(x, w), 0) + get(g.edge_id(u, w), 0) == 2
        ]
        us, ws = sorted({u for u, _ in short}), sorted({w for _, w in short})
        side, payers = (ws, (p2, p1)) if len(ws) < len(us) else (us, (p1, p2))
        for v, payer in zip(side, payers):
            led.give(payer, g.edge_id(x, v), 1)
            paid.add(payer)
