"""The order-2 charging pipeline.

Half-integral initial charge, credit lending along chains of type-1
triangles into a type-3 head (grown with the satisfy-and-truncate rules),
demanding-triangle analysis, and the final discharge-and-pin loop that
spends the spare half credit of type-0 triangles while rotating the K4
charges of the unsatisfied tails and of the type-3 triangles outside
every chain.

Charge bookkeeping is the shared ``charges.Ledger`` at order 2, so every
numerator counts half credits: a half on an edge is numerator 1, a full
unit is 2.  The ledger keeps each packed triangle's contribution apart,
so a rotation replaces one triangle's share without touching anyone
else's, and the budget check (at most 2 credits each) is a sum over it.
Values read back through ``f`` and ``spent`` are exact ``Fraction``s.

Which triangles the loop may still spend is kept in one place,
``DemandState.free``: a discharge or a pin removes its triangle from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .charges import ChargeAssignment, Ledger
from .errors import (
    AlreadyPinnedError,
    AlreadySpentError,
    ExistenceInAViolatedError,
    PinBaseEdgeError,
    StructureInvalidError,
)
from .graph import Graph, Triangle
from .structure import SolutionStructure, check_structure

HALF = Fraction(1, 2)  # the weight of one half credit, numerator 1 at order 2


# ---------------------------------------------------------------------------
# charge state

class ChargeState(Ledger):
    """The order-2 ledger of one packing's structure."""

    def __init__(self, s: SolutionStructure):
        super().__init__(2)
        self.structure = s
        self.g: Graph = s.g

    def satisfied(self, psi: Triangle) -> bool:
        return all(self.numerators.get(e, 0) >= 1 for e in psi.edge_ids)


def initial_half_charge(s: SolutionStructure) -> ChargeState:
    """Tentative half-integral distribution before chains are grown.

    type-0: 1/2 on each edge (half a credit kept in reserve).
    type-1: base 1, non-base 1/2 each.
    type-3: 1/2 on a C4 of its K4; the omitted matching pairs the spoke
    of the smallest vertex with the opposite solution edge.
    """
    if check_structure(s):
        raise StructureInvalidError("cannot charge a packing with open violations")
    cs = ChargeState(s)
    g = s.g
    for psi in s.packing.triangles:
        i = s.info[psi]
        if i.type == 0:
            cs.replace(psi, {e: 1 for e in psi.edge_ids})
        elif i.type == 1:
            base = next(iter(i.base_edges))
            m = {e: 1 for e in psi.edge_ids if e != base}
            m[base] = 2
            cs.replace(psi, m)
        else:
            a = i.anchor
            smin = min(psi.vertices)
            null_spoke = g.edge_id(smin, a)
            null_solution = next(
                e for e in psi.edge_ids if smin not in g.edges[e]
            )
            m = {
                e: 1
                for e in s.k4_region_edges(psi)
                if e not in (null_spoke, null_solution)
            }
            cs.replace(psi, m)
    return cs


# ---------------------------------------------------------------------------
# lend relation

@dataclass(frozen=True)
class LendArc:
    src: Triangle
    dst: Triangle
    gain: int
    common_vertex: int
    anchor: int


def build_lend(s: SolutionStructure) -> dict[Triangle, LendArc]:
    """All lend arcs, keyed by their source: a type-1 triangle with a
    unique attachment whose anchor-to-apex edge is a solution edge of a
    type-1 or type-3 triangle.

    The twin doubly-attached witnesses exist automatically: the base legs
    come from the attachment, the gain edge from the target triangle, so
    the four vertices induce a K4.  Out-degree is at most one because the
    gain edge determines the target.
    """
    arcs: dict[Triangle, LendArc] = {}
    g = s.g
    for psi in s.packing.triangles:
        i = s.info[psi]
        if i.type != 1 or len(i.cl_sin) != 1:
            continue
        base = next(iter(i.base_edges))
        u, v = g.edges[base]
        c = next(x for x in psi.vertices if x not in (u, v))
        a = i.anchor
        if a is None or not g.has_edge(c, a):
            continue
        gain = g.edge_id(c, a)
        dst = s.owner(gain)
        if dst is None or dst == psi or s.info[dst].type not in (1, 3):
            continue
        arcs[psi] = LendArc(psi, dst, gain, c, a)
    return arcs


# ---------------------------------------------------------------------------
# chains

@dataclass
class ChainLink:
    psi: Triangle
    base: int
    gain: int  # g_i, an edge of the predecessor
    anchor: int
    legs: tuple[int, int]  # non-solution edges of the attachment
    h: int | None = None  # own edge given 1/2 when a successor joins
    e1: int | None = None  # leg fixed to 1/2 when a successor joins
    e2: int | None = None


@dataclass
class Chain:
    head: Triangle
    links: list[ChainLink] = field(default_factory=list)
    satisfied: bool = False
    terminated: bool = False
    zero_sized: bool = False
    head_half_spokes: tuple[int, int] | None = None
    tail_g_next: int | None = None  # the unsatisfied tail's other non-base edge

    @property
    def size(self) -> int:
        return len(self.links)

    def tail(self) -> Triangle | None:
        return self.links[-1].psi if self.links else None

    def members(self) -> list[Triangle]:
        return [self.head] + [l.psi for l in self.links]

    def half_nonsolution_edges(self) -> frozenset[int]:
        if self.zero_sized:
            return frozenset()
        out = set(self.head_half_spokes or ())
        for l in self.links[:-1]:
            if l.e1 is not None:
                out.add(l.e1)
        return frozenset(out)


@dataclass
class ChainSet:
    chains: list[Chain]
    by_triangle: dict[Triangle, Chain]

    def heads(self) -> set[Triangle]:
        return {c.head for c in self.chains}

    def unsatisfied_tails(self) -> list[Triangle]:
        return sorted(c.tail() for c in self.chains if not c.satisfied)

    def chain_of(self, psi: Triangle) -> Chain | None:
        return self.by_triangle.get(psi)

    def half_nonsolution_edges(self) -> frozenset[int]:
        out: set[int] = set()
        for c in self.chains:
            out |= c.half_nonsolution_edges()
        return frozenset(out)


def _legs_of(s: SolutionStructure, psi: Triangle) -> tuple[int, int]:
    """Non-solution edges of the unique attachment of a type-1 triangle."""
    i = s.info[psi]
    w = i.cl_sin[0]
    legs = tuple(sorted(e for e in w.edge_ids if s.owner(e) is not psi))
    return legs  # type: ignore[return-value]


def build_chains(
    s: SolutionStructure, lend: dict[Triangle, LendArc], cs: ChargeState
) -> ChainSet:
    """Grow all chains on ``cs``, satisfy what can be satisfied, truncate
    the rest.

    Satisfaction and candidate-eligibility tests look only at *fixed*
    half-edges (the ones some construction step placed for good), never
    at the tentative C4 charges of type-3 triangles outside chains: those
    are revoked the moment such a triangle becomes a head, so counting
    them would satisfy a triangle with credit that later disappears.

    An unsatisfied tail puts its spare half on the lower-id of its two
    non-base edges, ``link.h``; the other one is ``tail_g_next``.  The
    choice follows edge ids alone: the same graph read with its edges in
    reverse order swaps the two names, and its cover verifies all the
    same.
    """
    g = s.g
    chains: list[Chain] = []
    by_triangle: dict[Triangle, Chain] = {}
    threes = set(s.packed_of_type(3))
    fixed_half: set[int] = set()
    incoming: dict[Triangle, list[LendArc]] = {}
    for src in sorted(lend):
        incoming.setdefault(lend[src].dst, []).append(lend[src])

    def eligible_lender(psi: Triangle) -> bool:
        """A candidate may extend a chain while an attachment leg is unfixed."""
        return any(e not in fixed_half for e in _legs_of(s, psi))

    def unsat_nonhead_threes() -> list[Triangle]:
        return sorted(
            psi for psi in threes if psi not in by_triangle and not cs.satisfied(psi)
        )

    def process_fixed(queue: list[int]) -> None:
        """Cascade satisfactions triggered by freshly fixed half-edges."""
        fixed_half.update(queue)
        while queue:
            e = queue.pop(0)
            # terminated, still unsatisfied chains whose tail attachment touches e
            for c in chains:
                if c.satisfied or c.zero_sized or not c.terminated:
                    continue
                tail = c.tail()
                if tail is None:
                    continue
                if e in _legs_of(s, tail):
                    base = next(iter(s.info[tail].base_edges))
                    for ne in tail.edge_ids:
                        if ne != base:
                            cs.give(tail, ne, 1)
                            fixed_half.add(ne)
                            queue.append(ne)
                    c.satisfied = True
            # unsatisfied type-3 triangles outside every chain
            if s.owner(e) is None:
                for psi in unsat_nonhead_threes():
                    spokes = s.k4_region_edges(psi)[3:]
                    if e not in spokes:
                        continue
                    other = min(x for x in spokes if x != e)
                    m = {se: 1 for se in psi.edge_ids}
                    m[other] = 1
                    cs.replace(psi, m)
                    zc = Chain(
                        head=psi, satisfied=True, terminated=True, zero_sized=True
                    )
                    chains.append(zc)
                    by_triangle[psi] = zc
                    fresh = list(psi.edge_ids) + [other]
                    fixed_half.update(fresh)
                    queue.extend(fresh)

    def start_candidates() -> list[LendArc]:
        out = []
        for psi, arc in lend.items():
            if s.info[arc.dst].type != 3:
                continue
            if cs.satisfied(arc.dst) or arc.dst in by_triangle:
                continue
            if psi in by_triangle or not eligible_lender(psi):
                continue
            out.append(arc)
        return sorted(out, key=lambda a: (a.dst, a.src))

    while True:
        starts = start_candidates()
        if not starts:
            break
        arc = starts[0]
        head, psi1 = arc.dst, arc.src
        spokes = s.k4_region_edges(head)[3:]
        null_spoke = g.edge_id(arc.common_vertex, s.info[head].anchor)
        half_spokes = tuple(sorted(e for e in spokes if e != null_spoke))
        base1 = next(iter(s.info[psi1].base_edges))
        # the lender's half sits on the gain edge, like in every later
        # step, so a pin of this triangle keeps the head region intact
        cs.replace(
            head,
            {
                **{e: 1 for e in head.edge_ids if e != arc.gain},
                half_spokes[0]: 1,
                half_spokes[1]: 1,
            },
        )
        cs.replace(psi1, {arc.gain: 1, base1: 1})
        chain = Chain(
            head=head,
            links=[ChainLink(psi1, base1, arc.gain, arc.anchor, _legs_of(s, psi1))],
            head_half_spokes=half_spokes,  # type: ignore[arg-type]
        )
        chains.append(chain)
        by_triangle[head] = chain
        by_triangle[psi1] = chain
        process_fixed(list(head.edge_ids) + list(half_spokes) + [base1])

        while True:
            tail = chain.tail()
            if chain.satisfied:
                break
            if any(e in fixed_half for e in _legs_of(s, tail)):
                # satisfy-and-truncate: the tail keeps its base and spends
                # the spare credit on its own non-base edges
                base = next(iter(s.info[tail].base_edges))
                fixed = []
                for ne in tail.edge_ids:
                    if ne != base:
                        cs.give(tail, ne, 1)
                        fixed.append(ne)
                chain.satisfied = True
                chain.terminated = True
                process_fixed(fixed)
                break
            growers = [
                a
                for a in incoming.get(tail, ())
                if a.gain != next(iter(s.info[tail].base_edges))
                and a.src not in by_triangle
                and eligible_lender(a.src)
            ]
            if not growers:
                chain.terminated = True
                break  # unsatisfied chain; tail's spare credit placed later
            nxt = growers[0]
            prev_link = chain.links[-1]
            h_prev = next(
                e for e in tail.edge_ids if e not in (prev_link.base, nxt.gain)
            )
            hx = set(g.edges[h_prev])
            e1_prev = next(
                e for e in prev_link.legs if set(g.edges[e]) & hx
            )
            e2_prev = next(e for e in prev_link.legs if e != e1_prev)
            prev_link.h, prev_link.e1, prev_link.e2 = h_prev, e1_prev, e2_prev
            base_n = next(iter(s.info[nxt.src].base_edges))
            cs.give(tail, h_prev, 1)
            cs.give(tail, e1_prev, 1)
            cs.replace(nxt.src, {nxt.gain: 1, base_n: 1})
            chain.links.append(
                ChainLink(nxt.src, base_n, nxt.gain, nxt.anchor, _legs_of(s, nxt.src))
            )
            by_triangle[nxt.src] = chain
            process_fixed([base_n, h_prev, nxt.gain, e1_prev])

    # spare credit of every unsatisfied tail
    for chain in chains:
        if chain.satisfied or chain.zero_sized:
            continue
        link = chain.links[-1]
        tail = link.psi
        h_k, g_next = sorted(e for e in tail.edge_ids if e != link.base)
        hx = set(g.edges[h_k])
        e2_k = next(e for e in link.legs if not (set(g.edges[e]) & hx))
        e1_k = next(e for e in link.legs if e != e2_k)
        cs.give(tail, h_k, 1)
        cs.give(tail, e2_k, 1)
        link.h, link.e1, link.e2 = h_k, e1_k, e2_k
        chain.tail_g_next = g_next

    return ChainSet(chains, by_triangle)


# ---------------------------------------------------------------------------
# demanding triangles and discharge-and-pin

@dataclass
class FreeRegion:
    """Rotation data for a free triangle in A."""

    kind: str  # "type0" | "tail" | "three"
    base: int | None = None
    gain: int | None = None
    anchor: int | None = None


@dataclass
class DemandState:
    demanding: list[Triangle]
    free: list[Triangle]
    regions: dict[Triangle, FreeRegion]
    log: list[dict] = field(default_factory=list)

    def demanding_on_edge(self, eid: int) -> list[Triangle]:
        return [t for t in self.demanding if eid in t.edge_ids]

    def demanding_on(self, psi: Triangle) -> list[Triangle]:
        es = set(psi.edge_ids)
        return [t for t in self.demanding if es & set(t.edge_ids)]


def compute_demanding(s: SolutionStructure, chains: ChainSet) -> DemandState:
    """The set D of triangles the discharge-and-pin loop must cover, and
    the free set A whose credits it may still move."""
    type0 = set(s.packed_of_type(0))
    tails = set(chains.unsatisfied_tails())
    heads = chains.heads()
    free_threes = {psi for psi in s.packed_of_type(3) if psi not in heads}
    flexible_owners = tails | free_threes
    half_edges = chains.half_nonsolution_edges()
    base_edges_type1 = {
        e for psi in s.packed_of_type(1) for e in s.info[psi].base_edges
    }

    demanding: list[Triangle] = []
    for t in s.nonsolution:
        zero_edges = [
            e for e in t.edge_ids if (o := s.owner(e)) is not None and o in type0
        ]
        if len(zero_edges) != 1:
            continue
        ok = True
        for e in t.edge_ids:
            o = s.owner(e)
            if o is not None and o not in type0 and o not in flexible_owners:
                ok = False
            if e in base_edges_type1 or e in half_edges:
                ok = False
        if ok:
            demanding.append(t)

    regions: dict[Triangle, FreeRegion] = {}
    for psi in sorted(type0):
        regions[psi] = FreeRegion("type0")
    for psi in sorted(tails):
        chain = chains.chain_of(psi)
        link = chain.links[-1]
        regions[psi] = FreeRegion("tail", base=link.base, gain=link.gain, anchor=link.anchor)
    for psi in sorted(free_threes):
        regions[psi] = FreeRegion("three", anchor=s.info[psi].anchor)

    free = sorted(type0 | tails | free_threes)
    return DemandState(sorted(demanding), free, regions)


def check_demand_lemma(s: SolutionStructure, ds: DemandState) -> set[int] | None:
    """None if every type-0 triangle's demanding set has one of the three
    legal shapes; otherwise witness edges for the repair search."""
    for psi in s.packed_of_type(0):
        dem = ds.demanding_on(psi)
        if len(dem) <= 1:
            continue
        for ix, t1 in enumerate(dem):
            for t2 in dem[ix + 1 :]:
                if not set(t1.edge_ids) & set(t2.edge_ids):
                    return set(t1.edge_ids) | set(t2.edge_ids) | set(psi.edge_ids)
        common = set(dem[0].edge_ids)
        for t in dem[1:]:
            common &= set(t.edge_ids)
        if common and next(iter(common)) in psi.edge_ids:
            continue
        witness = {e for t in dem for e in t.edge_ids} | set(psi.edge_ids)
        if len(dem) != 3:
            return witness
        extra = {v for t in dem for v in t.vertices} - set(psi.vertices)
        if len(extra) != 1:
            return witness
        u = extra.pop()
        if not all(s.g.has_edge(u, x) for x in psi.vertices):
            return witness
        hollow = sum(1 for t in dem if len(s.attachments[t].owners) == 3)
        doubly = sum(1 for t in dem if len(s.attachments[t].owners) == 2)
        if (hollow, doubly) not in ((3, 0), (1, 2)):
            return witness
        if {next(e for e in t.edge_ids if e in psi.edge_ids) for t in dem} != set(
            psi.edge_ids
        ):
            return witness
    return None


def discharge(ds: DemandState, cs: ChargeState, psi0: Triangle, eid: int) -> None:
    """Spend the reserved half credit of type-0 ``psi0`` on edge ``eid``."""
    if psi0 not in ds.free or ds.regions[psi0].kind != "type0":
        raise AlreadySpentError(f"{psi0} is not a free type-0 triangle")
    cs.give(psi0, eid, 1)
    ds.free.remove(psi0)
    covered = ds.demanding_on_edge(eid)
    ds.demanding = [t for t in ds.demanding if t not in covered]
    ds.log.append(
        {"op": "discharge", "triangle": list(psi0.vertices), "edge": list(cs.g.edges[eid])}
    )


def pin(ds: DemandState, cs: ChargeState, psi: Triangle, eid: int) -> None:
    """Re-fix the K4 half-integral charge of ``psi`` so ``eid`` is null.

    The opposite spoke of the K4 goes null with it; for an unsatisfied
    tail the base and gain edges stay half no matter the rotation.
    """
    if psi not in ds.free:
        raise AlreadyPinnedError(f"{psi} is not free to pin")
    region = ds.regions[psi]
    if region.kind == "type0":
        raise PinBaseEdgeError(f"{psi} is type-0, cannot pin")
    if eid not in psi.edge_ids:
        raise PinBaseEdgeError(f"edge {eid} not on {psi}")
    g = cs.g
    anchor = region.anchor
    if region.kind == "tail":
        if eid == region.base:
            raise PinBaseEdgeError("cannot pin the base edge of a tail triangle")
        u, v = g.edges[region.base]
        x = next(w for w in g.edges[eid] if w in (u, v))
        y = v if x == u else u
        c = next(w for w in psi.vertices if w not in (u, v))
        m = {
            region.base: 1,
            region.gain: 1,
            g.edge_id(y, c): 1,
            g.edge_id(x, anchor): 1,
        }
    else:
        opposite = next(w for w in psi.vertices if w not in g.edges[eid])
        null_spoke = g.edge_id(opposite, anchor)
        m = {
            e: 1
            for e in cs.structure.k4_region_edges(psi)
            if e not in (eid, null_spoke)
        }
    cs.replace(psi, m)
    ds.free.remove(psi)
    ds.log.append(
        {"op": "pin", "triangle": list(psi.vertices), "edge": list(g.edges[eid])}
    )


def _type0_edge_of(s: SolutionStructure, t: Triangle, type0: set[Triangle]) -> int:
    return next(
        e for e in t.edge_ids if (o := s.owner(e)) is not None and o in type0
    )


def discharge_and_pin(s: SolutionStructure, cs: ChargeState, ds: DemandState) -> None:
    """Cover every demanding triangle, spending each free triangle at most once."""
    type0 = set(s.packed_of_type(0))

    def free13() -> list[Triangle]:
        return [p for p in ds.free if ds.regions[p].kind != "type0"]

    def eligible_edges(psi: Triangle) -> list[int]:
        region = ds.regions[psi]
        if region.kind == "tail":
            return sorted(e for e in psi.edge_ids if e != region.base)
        return sorted(psi.edge_ids)

    while ds.demanding:
        # type-0 triangles whose remaining demand sits on a single edge
        acted = False
        for psi0 in sorted(p for p in ds.free if ds.regions[p].kind == "type0"):
            hot = [e for e in psi0.edge_ids if ds.demanding_on_edge(e)]
            if len(hot) == 1:
                discharge(ds, cs, psi0, hot[0])
                acted = True
                break
        if acted:
            continue

        candidates = [p for p in free13() if ds.demanding_on(p)]
        if not candidates:
            focus = {e for t in ds.demanding for e in t.edge_ids}
            raise ExistenceInAViolatedError(
                "no free triangle adjacent to remaining demand", focus_edges=focus
            )
        psi = candidates[0]
        critical: int | None = None
        while True:
            choices = [e for e in eligible_edges(psi) if e != critical]
            idle = [e for e in choices if not ds.demanding_on_edge(e)]
            if idle:
                pin(ds, cs, psi, idle[0])
                covered = ds.demanding_on(psi)
                ds.demanding = [t for t in ds.demanding if t not in covered]
                break
            e_i = choices[0]
            pin(ds, cs, psi, e_i)
            keep = set(ds.demanding_on_edge(e_i))
            covered = [t for t in ds.demanding_on(psi) if t not in keep]
            ds.demanding = [t for t in ds.demanding if t not in covered]

            t_i = ds.demanding_on_edge(e_i)[0]
            e0 = _type0_edge_of(s, t_i, type0)
            psi0 = s.owner(e0)
            if psi0 not in ds.free:
                raise ExistenceInAViolatedError(
                    f"type-0 {psi0} already spent", focus_edges=set(t_i.edge_ids)
                )
            x = set(cs.g.edges[e_i]) & set(cs.g.edges[e0])
            if len(x) != 1:
                raise ExistenceInAViolatedError(
                    "demanding triangle edges do not meet", focus_edges=set(t_i.edge_ids)
                )
            xv = x.pop()
            e_far = next(e for e in psi0.edge_ids if xv not in cs.g.edges[e])
            discharge(ds, cs, psi0, e_i)
            leftovers = ds.demanding_on_edge(e_far)
            if not leftovers:
                break
            if len(leftovers) > 1:
                raise ExistenceInAViolatedError(
                    "several demanding triangles on the far type-0 edge",
                    focus_edges={e for t in leftovers for e in t.edge_ids},
                )
            t_next = leftovers[0]
            options = [
                (e, s.owner(e))
                for e in t_next.edge_ids
                if (o := s.owner(e)) is not None and o in set(free13())
            ]
            if not options:
                raise ExistenceInAViolatedError(
                    "no free rotatable triangle covers the leftover demand",
                    focus_edges=set(t_next.edge_ids),
                )
            critical, psi = options[0]


# ---------------------------------------------------------------------------
# full order-2 run against one packing

@dataclass
class Order2Run:
    charge: ChargeState
    chains: ChainSet
    demand: DemandState
    assignment: ChargeAssignment


def run_order2(s: SolutionStructure) -> tuple[Order2Run, set[int] | None]:
    """One pass of the whole order-2 pipeline on a fixed packing.

    Returns the run and, when the demanding-structure check fails, the
    witness edges (the assignment is then not built).
    """
    cs = initial_half_charge(s)
    lend = build_lend(s)
    chains = build_chains(s, lend, cs)
    ds = compute_demanding(s, chains)
    witness = check_demand_lemma(s, ds)
    if witness is not None:
        return Order2Run(cs, chains, ds, ChargeAssignment(2, {})), witness
    discharge_and_pin(s, cs, ds)
    return Order2Run(cs, chains, ds, cs.to_assignment()), None
