"""The order-2 charging pipeline.

Half-integral initial charge, credit lending along chains of type-1
triangles into a type-3 head (grown with the satisfy-and-truncate rules),
demanding-triangle analysis, and a final discharge-and-pin of three
stated steps, with no search.  It spends the spare half credit of type-0
triangles and rotates the K4 charges of the rotatables: the unsatisfied
tails and the type-3 triangles outside every chain that the chain
cascade has not settled (a fixed half on a spoke fixes one for good).
First, a type-0 triangle whose demand sits on one edge discharges there.
Then each rotatable with demand pins an edge: one with no demand, else
one a free type-0 owner of its demand pays for, else its lowest.  Last,
a rotatable whose null edge leaves a triangle outside its K4 short pins
the edge that leaves the fewest short.  The shape of the demanding set
is not checked at run time: ``verify_cover`` alone judges the result.
A rotatable's K4 charge, from a type-3 triangle's initial one through an
unsatisfied tail's spare credit to each pin, is one ``rotation``: a half
on each edge of its K4 but one own edge and the spoke opposite it.

Charge bookkeeping is the shared ``charges.Ledger`` at order 2, so every
numerator counts half credits: a half on an edge is numerator 1, a full
unit is 2.  The ledger keeps each packed triangle's contribution apart,
so a rotation replaces one triangle's share without touching anyone
else's, and the budget check (at most 2 credits each) is a sum over it.
Values read back through ``f`` and ``spent`` are exact ``Fraction``s.

Which triangles the steps may still spend is kept in one place,
``DemandState.free``: a discharge or a pin removes its triangle from it.
The steps reach their work through indexes, not by rescanning lists:
the chain starts, the ended chains and the spokes in ``build_chains``,
and the demand by edge in ``DemandState.by_edge``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .charges import ChargeAssignment, Ledger, require_clean
from .graph import Triangle
from .structure import SolutionStructure


# ---------------------------------------------------------------------------
# initial charge

def initial_half_charge(s: SolutionStructure) -> Ledger:
    """Tentative half-integral distribution before chains are grown.

    type-0: 1/2 on each edge (half a credit kept in reserve).
    type-1: base 1, non-base 1/2 each.
    type-3: the ``rotation`` with the edge opposite its smallest vertex
    null.
    """
    require_clean(s)
    cs = Ledger(2)
    for psi in s.packing.triangles:
        i = s.info[psi]
        if i.type == 0:
            cs.replace(psi, {e: 1 for e in psi.edge_ids})
        elif i.type == 1:
            m = {e: 1 for e in psi.edge_ids if e != i.base}
            m[i.base] = 2
            cs.replace(psi, m)
        else:
            cs.replace(psi, rotation(s, psi, psi.opposite(psi.vertices[0])))
    return cs


def rotation(s: SolutionStructure, psi: Triangle, eid: int) -> dict[int, int]:
    """The K4 half charge of rotatable ``psi`` with its own edge ``eid``
    null: a half on each edge of the K4 of psi and its anchor but ``eid``
    and the spoke opposite it, a C4.

    For a tail, ``eid`` is never the base, so the base keeps its half, and
    so does the gain edge, which is the spoke of the tail's apex.
    """
    null_spoke = s.spoke(psi, psi.off(eid))
    return {e: 1 for e in s.k4_region_edges(psi) if e not in (eid, null_spoke)}


# ---------------------------------------------------------------------------
# lend relation

@dataclass(frozen=True)
class LendArc:
    src: Triangle
    dst: Triangle
    gain: int


def build_lend(s: SolutionStructure) -> dict[Triangle, LendArc]:
    """All lend arcs, keyed by their source: a type-1 triangle with a
    unique attachment whose anchor-to-apex edge is a solution edge.

    The twin doubly-attached witnesses exist automatically: the base legs
    come from the attachment, the gain edge from the target triangle, so
    the four vertices induce a K4.  Out-degree is at most one because the
    gain edge determines the target.  Arcs into type-0 triangles are kept
    but never read: a chain starts at a type-3 target and grows through
    the arcs into its type-1 tail.
    """
    arcs: dict[Triangle, LendArc] = {}
    g = s.g
    for psi in s.packing.triangles:
        i = s.info[psi]
        if i.type != 1 or len(i.cl_sin) != 1:
            continue
        c = psi.off(i.base)
        a = i.anchor
        # an attached type-1 triangle has an anchor, and the anchor lies
        # outside psi, so psi never owns the gain edge c-a
        if not g.has_edge(c, a):
            continue
        gain = g.edge_id(c, a)
        dst = s.owner(gain)
        if dst is None:
            continue
        arcs[psi] = LendArc(psi, dst, gain)
    return arcs


# ---------------------------------------------------------------------------
# chains

@dataclass
class ChainLink:
    psi: Triangle
    e1: int | None = None  # leg fixed to 1/2 when a successor joins


@dataclass
class Chain:
    head: Triangle
    links: list[ChainLink]
    head_half_spokes: tuple[int, int]
    satisfied: bool = False

    def tail(self) -> Triangle:
        return self.links[-1].psi

    def half_nonsolution_edges(self) -> frozenset[int]:
        """The head's two half spokes and the leg each link fixed when its
        successor joined."""
        return frozenset(self.head_half_spokes) | {l.e1 for l in self.links[:-1]}


@dataclass
class ChainSet:
    chains: list[Chain]
    settled: set[Triangle]  # type-3 triangles outside every chain fixed by the cascade


def build_chains(
    s: SolutionStructure, lend: dict[Triangle, LendArc], cs: Ledger
) -> ChainSet:
    """Grow all chains on ``cs``, satisfy what can be satisfied, truncate
    the rest.

    A type-3 triangle outside every chain is satisfied, a half on each
    own edge, exactly when the cascade has settled it: its own edges
    carry only its own charge (a lender into one joins only when it
    heads a chain), the tentative C4, which leaves one own edge at 0,
    until settling puts a fixed half on each.  So ``settled`` is the one
    record of that, and it only grows.

    The start arcs wait in ``(dst, src)`` order, and the front one is
    dropped for good once its head is chained or settled or its lender
    has both legs fixed: each of these only grows.  The cascade finds the
    chains that ended unsatisfied by tail leg, in the order they ended,
    and the type-3 triangles by spoke, sorted, in an index built when it
    first meets an unowned edge.

    A lender joins only at its own target, and it has one arc, so the
    chain growers need no test that a lender is chained: each tail is
    extended at most once, and a start head is dropped once chained.

    An unsatisfied tail takes the ``rotation`` with its higher-id non-base
    edge null, until discharge-and-pin rotates it.
    """
    chains: list[Chain] = []
    chained: set[Triangle] = set()  # heads and links of every chain
    settled: set[Triangle] = set()
    fixed_half: set[int] = set()
    queue: deque[int] = deque()  # fixed half-edges the cascade has not looked at
    incoming: dict[Triangle, list[LendArc]] = {}
    for src in sorted(lend):
        incoming.setdefault(lend[src].dst, []).append(lend[src])
    starts = deque(sorted(
        (a for a in lend.values() if s.info[a.dst].type == 3), key=lambda a: (a.dst, a.src)
    ))
    ended_on_leg: dict[int, list[Chain]] = {}  # unsatisfied ended chains by tail leg
    on_spoke: dict[int, list[Triangle]] = {}  # type-3 triangles by spoke, once needed

    def eligible_lender(psi: Triangle) -> bool:
        """A candidate may extend a chain while an attachment leg is unfixed."""
        return any(e not in fixed_half for e in s.info[psi].legs)

    def fix(edges: list[int]) -> None:
        fixed_half.update(edges)
        queue.extend(edges)

    def satisfy(chain: Chain) -> None:
        """The tail keeps its base and spends the spare credit on its own
        non-base edges."""
        tail = chain.tail()
        own = [e for e in tail.edge_ids if e != s.info[tail].base]
        for e in own:
            cs.give(tail, e, 1)
        chain.satisfied = True
        fix(own)

    def cascade() -> None:
        """Satisfy and settle what the freshly fixed half-edges allow."""
        while queue:
            e = queue.popleft()
            # a chain ends only with both tail legs unfixed, so none ends
            # on e once e is fixed: one look at e finds them all.  It waits
            # on both legs, and the first one fixed satisfies it
            for c in ended_on_leg.pop(e, ()):
                if not c.satisfied:
                    satisfy(c)
            if s.owner(e) is not None:
                continue  # a spoke is unowned: a shortcut past the index
            if not on_spoke:
                for psi in sorted(s.packed_of_type(3)):
                    for x in s.k4_region_edges(psi)[3:]:
                        on_spoke.setdefault(x, []).append(psi)
            # settle unsatisfied type-3 triangles outside every chain with
            # a half on this spoke: each own edge and one more spoke get 1/2
            unsatisfied = [
                psi for psi in on_spoke.get(e, ()) if psi not in chained and psi not in settled
            ]
            for psi in unsatisfied:
                other = min(x for x in s.k4_region_edges(psi)[3:] if x != e)
                m = {se: 1 for se in psi.edge_ids}
                m[other] = 1
                cs.replace(psi, m)
                settled.add(psi)
                fix(list(psi.edge_ids) + [other])

    def join(chain: Chain, arc: LendArc) -> int:
        """The lender keeps half on its base and lends half onto the gain
        edge; returns the base."""
        base = s.info[arc.src].base
        cs.replace(arc.src, {arc.gain: 1, base: 1})
        chain.links.append(ChainLink(arc.src))
        chained.add(arc.src)
        return base

    while True:
        while starts and (starts[0].dst in chained or starts[0].dst in settled
                          or not eligible_lender(starts[0].src)):
            starts.popleft()
        if not starts:
            break
        arc = starts[0]
        head = arc.dst
        spokes = s.k4_region_edges(head)[3:]
        null_spoke = s.spoke(head, arc.src.off(s.info[arc.src].base))
        half_spokes = tuple(sorted(e for e in spokes if e != null_spoke))
        # the lender's half sits on the gain edge, like in every later
        # step, so a pin of this triangle keeps the head region intact
        m = {e: 1 for e in head.edge_ids if e != arc.gain}
        cs.replace(head, {**m, half_spokes[0]: 1, half_spokes[1]: 1})
        chain = Chain(head, [], half_spokes)  # type: ignore[arg-type]
        chains.append(chain)
        chained.add(head)
        base1 = join(chain, arc)
        fix(list(head.edge_ids) + list(half_spokes) + [base1])
        cascade()

        while True:
            tail = chain.tail()
            if any(e in fixed_half for e in s.info[tail].legs):
                satisfy(chain)  # and truncate: the chain grows no further
                cascade()
                break
            base = s.info[tail].base
            growers = [a for a in incoming.get(tail, ())
                       if a.gain != base and eligible_lender(a.src)]
            if not growers:
                for leg in s.info[tail].legs:
                    ended_on_leg.setdefault(leg, []).append(chain)
                break  # unsatisfied chain; tail's spare credit placed later
            nxt = growers[0]
            h_prev = next(e for e in tail.edge_ids if e not in (base, nxt.gain))
            # the leg at the base end that h_prev and the base share
            e1_prev = s.spoke(tail, tail.off(nxt.gain))
            chain.links[-1].e1 = e1_prev
            cs.give(tail, h_prev, 1)
            cs.give(tail, e1_prev, 1)
            base_n = join(chain, nxt)
            fix([base_n, h_prev, nxt.gain, e1_prev])
            cascade()

    # spare credit of every unsatisfied tail
    for chain in chains:
        if not chain.satisfied:
            tail = chain.tail()
            null = max(e for e in tail.edge_ids if e != s.info[tail].base)
            cs.replace(tail, rotation(s, tail, null))

    return ChainSet(chains, settled)


# ---------------------------------------------------------------------------
# demanding triangles and discharge-and-pin

@dataclass
class DemandState:
    """The demand set D, the free set A, and the roles in A: the type-0
    triangles and the unsatisfied tails.  The free non-type-0 triangles,
    tails and type-3 alike, are the rotatables.  ``s`` is the structure
    they belong to.  ``by_edge`` maps each edge with demand to its
    demanding triangles, in ``demanding`` order; ``drop`` keeps the two
    in step."""

    s: SolutionStructure
    demanding: list[Triangle]
    free: list[Triangle]
    type0: set[Triangle]
    tails: set[Triangle]
    log: list[dict] = field(default_factory=list)
    by_edge: dict[int, dict[Triangle, None]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.by_edge = {}
        for t in self.demanding:
            for e in t.edge_ids:
                self.by_edge.setdefault(e, {})[t] = None

    def drop(self, gone: list[Triangle]) -> None:
        """Take the triangles ``gone`` out of the demand."""
        for t in dict.fromkeys(gone):
            self.demanding.remove(t)
            for e in t.edge_ids:
                del self.by_edge[e][t]
                if not self.by_edge[e]:
                    del self.by_edge[e]


def compute_demanding(s: SolutionStructure, chains: ChainSet) -> DemandState:
    """The set D of triangles discharge-and-pin must cover, and the free
    set A whose credits it may still move."""
    type0 = set(s.packed_of_type(0))
    tails = {c.tail() for c in chains.chains if not c.satisfied}
    heads = {c.head for c in chains.chains}
    free_threes = set(s.packed_of_type(3)) - heads - chains.settled
    free = type0 | tails | free_threes
    blocked = {s.info[psi].base for psi in s.packed_of_type(1)}.union(
        *(c.half_nonsolution_edges() for c in chains.chains)
    )
    # a non-packed triangle shares at most one edge with each owner, so
    # its owners count its type-0 edges
    demanding = [
        t
        for t, owners in s.attachments.items()
        if blocked.isdisjoint(t.edge_ids)
        and free.issuperset(owners)
        and len(type0.intersection(owners)) == 1
    ]
    return DemandState(s, sorted(demanding), sorted(free), type0, tails)


def discharge(ds: DemandState, cs: Ledger, psi0: Triangle, eid: int) -> None:
    """Spend the reserved half credit of free type-0 ``psi0`` on edge ``eid``."""
    cs.give(psi0, eid, 1)
    ds.free.remove(psi0)
    ds.drop(list(ds.by_edge.get(eid, ())))
    ds.log.append(
        {"op": "discharge", "triangle": list(psi0.vertices), "edge": list(ds.s.g.edges[eid])}
    )


def pin(ds: DemandState, cs: Ledger, psi: Triangle, eid: int) -> None:
    """Re-fix the K4 half-integral charge of free non-type-0 ``psi`` to
    its ``rotation`` with own edge ``eid`` (never a tail's base) null.

    The other two sides carry a half, which covers each demanding triangle
    on them; no such triangle holds ``eid`` too, as a triangle with two
    edges of psi is psi, which is packed.
    """
    cs.replace(psi, rotation(ds.s, psi, eid))
    ds.free.remove(psi)
    ds.drop([t for e in psi.edge_ids if e != eid for t in ds.by_edge.get(e, ())])
    ds.log.append(
        {"op": "pin", "triangle": list(psi.vertices), "edge": list(ds.s.g.edges[eid])}
    )


def discharge_and_pin(s: SolutionStructure, cs: Ledger, ds: DemandState) -> None:
    """Spend free triangles on the demand in three stated steps.

    1. While a free type-0 triangle has demand on exactly one of its
       edges, it discharges there.
    2. Each rotatable with demand, in order, pins its lowest eligible
       edge with no demand.  If every one has demand, it pins the lowest
       where a demanding triangle has a free type-0 owner, and the lowest
       such owner discharges onto it; else its lowest eligible edge.  An
       owner that paid for an earlier rotatable is no longer free, so the
       lowest edge need not have one.
    3. Each rotatable still free whose null edge leaves a triangle outside
       its K4 below weight one, read from the ledger, pins the eligible
       edge that leaves the fewest such triangles, the lowest on a tie.
       The K4 holds every singly attached triangle of a rotatable, so
       only owners of a triangle with two or more owners are visited.

    Eligible edges are a rotatable's own but for a tail's base.  What stays
    short is ``verify_cover``'s to report.  The only caller of ``discharge``
    and ``pin``, it meets their preconditions, and each removes its
    triangle from ``ds.free``: none is spent twice.
    """
    type0 = ds.type0

    def eligible_edges(psi: Triangle) -> list[int]:
        return sorted(e for e in psi.edge_ids if psi not in ds.tails or e != s.info[psi].base)

    # 1. a demanding triangle has one type-0 owner, so a discharge leaves
    # every other type-0 triangle's hot edges as they were: one pass over
    # the free type-0 triangles, in free order, discharges what a rescan
    # after each discharge would.  Without demand steps 1 and 2 spend nothing
    free0 = dict.fromkeys(p for p in ds.free if p in type0) if ds.by_edge else {}
    for psi0 in list(free0):
        hot = [e for e in psi0.edge_ids if e in ds.by_edge]
        if len(hot) == 1:
            discharge(ds, cs, psi0, hot[0])
            del free0[psi0]

    demanded = set(ds.by_edge)  # 2.
    for psi in [p for p in ds.free if p not in type0 and not demanded.isdisjoint(p.edge_ids)]:
        edges = eligible_edges(psi)
        payers = {e: sorted({o for t in ds.by_edge[e] for o in s.attachments[t] if o in free0})
                  for e in edges if e in ds.by_edge}
        if not payers:
            continue
        eid = ([e for e in edges if e not in payers] or [e for e in edges if payers[e]] or edges)[0]
        pin(ds, cs, psi, eid)
        if payers.get(eid):
            discharge(ds, cs, payers[eid][0], eid)
            del free0[payers[eid][0]]

    near: dict[Triangle, list[Triangle]] = {p: [] for p in ds.free if p not in type0}  # 3.
    for t, owners in s.attachments.items():
        if near and len(owners) > 1:
            for o in owners:
                if o in near:
                    near[o].append(t)
    for psi in [p for p, ts in near.items() if ts]:
        anchor, mine = s.info[psi].anchor, cs.contrib[psi]

        def short(e: int) -> int:
            """Triangles outside the K4 through e left below weight one by a null e."""
            return sum(
                e in t.edge_ids and anchor not in t.vertices
                and sum(cs.numerators.get(x, 0) for x in t.edge_ids) - mine.get(e, 0) < 2
                for t in near[psi]
            )

        edges = eligible_edges(psi)
        if short(next(e for e in edges if not mine.get(e))):
            pin(ds, cs, psi, min(edges, key=short))


# ---------------------------------------------------------------------------
# full order-2 run against one packing

@dataclass
class Order2Run:
    charge: Ledger
    chains: ChainSet
    demand: DemandState
    assignment: ChargeAssignment


def run_order2(s: SolutionStructure) -> tuple[Order2Run, None]:
    """One pass of the whole order-2 pipeline on a fixed packing.

    Whatever discharge-and-pin leaves short is ``verify_cover``'s to
    report.  The second item is always None; the pair is kept only for
    callers that still unpack one.
    """
    cs = initial_half_charge(s)
    lend = build_lend(s)
    chains = build_chains(s, lend, cs)
    ds = compute_demanding(s, chains)
    discharge_and_pin(s, cs, ds)
    return Order2Run(cs, chains, ds, cs.to_assignment()), None
