"""Exact fractional charge assignments, the credit ledger, and the
order-6 / order-3 engines.

Weights are integer numerators over a fixed denominator (the order), so
all verification is exact rational arithmetic.  Every charging engine
(orders 6, 3 and 2) books its credits on one ``Ledger``: each packed
triangle places numerators on nearby edges, its contributions are kept
apart from everyone else's so a triangle's whole share can be replaced,
and contributions from different packed triangles accumulate per edge.
``Ledger.to_assignment`` makes the single check that no edge went above
weight one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InternalChargeError, StructureInvalidError
from .graph import Graph, Triangle, enumerate_triangles
from .structure import SolutionStructure, check_structure


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

    def triangle_value(self, t: Triangle) -> Fraction:
        return sum((self.value(e) for e in t.edge_ids), Fraction(0))

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

    Weights are numerators over ``f.order``, so a triangle has weight at
    least one exactly when its three edges' numerators sum to at least
    the order: the rational test, made on integers.
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
        over = sorted(e for e, v in self.numerators.items() if v > self.order)
        if over:
            raise InternalChargeError(
                f"edge weight above one on edges {over}", focus_edges=over
            )
        return ChargeAssignment(
            self.order,
            {e: v for e, v in self.numerators.items() if v},
            {psi: self.spent(psi) for psi in self.contrib},
        )


def _require_valid(s: SolutionStructure) -> None:
    violations = check_structure(s)
    if violations:
        raise StructureInvalidError(
            f"structure has open violations: {[v.kind for v in violations]}"
        )


def charge_order6(s: SolutionStructure) -> ChargeAssignment:
    """Distribute exactly 2 credits per packed triangle in sixths.

    type-0: 2/3 on each edge.  type-1 with several attachments: base 1,
    non-base 1/2 each.  type-1 with a unique attachment: base 2/3,
    non-base 1/2 each, 1/6 on both non-solution edges of the attachment.
    type-3: 1/3 on all six edges of its K4.
    """
    _require_valid(s)
    led = Ledger(6)
    for psi in s.packing.triangles:
        i = s.info[psi]
        if i.type == 0:
            for e in psi.edge_ids:
                led.give(psi, e, 4)
        elif i.type == 1:
            base = next(iter(i.base_edges))
            for e in psi.edge_ids:
                if e != base:
                    led.give(psi, e, 3)
            if len(i.cl_sin) > 1:
                led.give(psi, base, 6)
            else:
                led.give(psi, base, 4)
                t = i.cl_sin[0]
                for e in t.edge_ids:
                    if s.owner(e) is not psi:
                        led.give(psi, e, 1)
        else:
            for e in s.k4_region_edges(psi):
                led.give(psi, e, 2)
    return led.to_assignment()


def charge_order3(s: SolutionStructure) -> ChargeAssignment:
    """Order-3 scheme: thirds only, type-1 triangles processed iteratively.

    Triangles with a unique attachment are handled in ascending canonical
    order: the base gets 2/3, then each base endpoint's attachment leg is
    inspected; a still-null leg gets 1/3 together with the adjacent
    non-base edge, otherwise the non-base edge alone gets 2/3.
    """
    _require_valid(s)
    g = s.g
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
            base = next(iter(i.base_edges))
            led.give(psi, base, 3)
            for e in psi.edge_ids:
                if e != base:
                    led.give(psi, e, 1)
        else:
            singles.append(psi)

    for psi in sorted(singles):
        i = s.info[psi]
        base = next(iter(i.base_edges))
        attachment = i.cl_sin[0]
        anchor = next(v for v in attachment.vertices if v not in psi.vertices)
        u, v = g.edges[base]
        w = next(x for x in psi.vertices if x not in (u, v))
        led.give(psi, base, 2)
        for end in (u, v):
            leg = g.edge_id(end, anchor)
            own_nonbase = g.edge_id(end, w)
            if led.numerators.get(leg, 0) == 0:
                led.give(psi, leg, 1)
                led.give(psi, own_nonbase, 1)
            else:
                led.give(psi, own_nonbase, 2)

    _spend_spare_thirds(s, led)
    return led.to_assignment()


def _spend_spare_thirds(s: SolutionStructure, led: Ledger) -> None:
    """Cover leftovers with the thirds the main scheme never spent.

    Type-1 triangles with several attachments only use 5/3 of their two
    credits.  Bridges between two such triangles that avoid both bases
    can end up at 2/3 (two triangles sharing a vertex inside a K5 are the
    smallest case), so the spare thirds go, greedily, onto the edges that
    finish the most leftovers.  Everything stays within two credits per
    packed triangle; anything this cannot finish is left to the caller's
    verification.
    """

    def value(eid: int) -> int:
        return led.numerators.get(eid, 0)

    def uncovered() -> list[Triangle]:
        return [
            t
            for t in s.nonsolution
            if value(t.edge_ids[0]) + value(t.edge_ids[1]) + value(t.edge_ids[2]) < 3
        ]

    def donors() -> list[Triangle]:
        # a donor has a third to spare: at most 5 of its 6 thirds placed
        return [
            psi
            for psi in s.packing.triangles
            if sum(led.contrib.get(psi, {}).values()) <= 5
        ]

    missing = uncovered()
    while missing:
        pool = donors()
        if not pool:
            raise InternalChargeError(
                "leftover triangles but no spare credit",
                focus_edges={e for t in missing for e in t.edge_ids},
            )
        # an extra third on e finishes t iff t currently sits at 2/3
        finishes: dict[int, int] = {}
        for t in missing:
            short = 3 - sum(value(e) for e in t.edge_ids)
            for e in t.edge_ids:
                if value(e) < 3:
                    finishes[e] = finishes.get(e, 0) + (short == 1)
        eid = max(sorted(finishes), key=lambda e: finishes[e])
        donor_owners = [p for p in pool if eid in p.edge_ids]
        donor = donor_owners[0] if donor_owners else pool[0]
        led.give(donor, eid, 1)
        # every round spends one third, so the spare pool bounds the loop
        missing = uncovered()
