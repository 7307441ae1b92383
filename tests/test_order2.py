"""The order-2 pipeline: initial charge, chains, demand, discharge-and-pin."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from tricover import (
    Packing,
    build_graph,
    build_structure,
    charge_order3,
    charge_order6,
    check_structure,
    cover,
    enumerate_triangles,
    local_search_packing,
    nu_exact,
    verify_cover,
)
from tricover.generators import complete_graph, glued_k4, gnp, lend_chain
from tricover.order2 import (
    DemandState,
    build_chains,
    build_lend,
    compute_demanding,
    discharge_and_pin,
    initial_half_charge,
    pin,
    run_order2,
)
from tricover.packing import find_swap
from tricover.structure import PackedInfo, SolutionStructure

from test_acceptance import demand_lemma_violation

F = Fraction
HALF = F(1, 2)


def structure_of(g, triangles):
    return build_structure(g, Packing(g, triangles))


def pipeline_state(g, triangles):
    s = structure_of(g, triangles)
    assert check_structure(s) == []
    cs = initial_half_charge(s)
    chains = build_chains(s, build_lend(s), cs)
    ds = compute_demanding(s, chains)
    return s, cs, chains, ds


def fixed_charge(s):
    """Numerators of the chain-built charge outside the rotatable K4
    regions: an unsatisfied tail keeps only its base and gain edges
    fixed, a type-3 triangle outside every chain that the cascade did
    not settle keeps nothing.  Pins and discharges must never take an
    edge below this."""
    cs = initial_half_charge(s)
    lend = build_lend(s)
    chains = build_chains(s, lend, cs)
    flexible = set()
    for c in chains.chains:
        if c.satisfied:
            continue
        link = c.links[-1]
        kept = {s.info[link.psi].base, lend[link.psi].gain}
        flexible |= set(s.k4_region_edges(link.psi)) - kept
    fixed_threes = {c.head for c in chains.chains} | chains.settled
    for psi in s.packed_of_type(3):
        if psi not in fixed_threes:
            flexible |= set(s.k4_region_edges(psi))
    return {e: v for e, v in cs.numerators.items() if v and e not in flexible}


def spare_half(s, chain):
    """The non-base edge of an unsatisfied tail that gets its spare half:
    the lower-id one."""
    tail = chain.tail()
    return min(e for e in tail.edge_ids if e != s.info[tail].base)


def spare_edge(s, chain):
    """The non-base edge of an unsatisfied tail that gets no spare half."""
    tail = chain.tail()
    return next(
        e for e in tail.edge_ids if e not in (s.info[tail].base, spare_half(s, chain))
    )


def members(chain):
    return [chain.head] + [l.psi for l in chain.links]


# ---------------------------------------------------------------------------
# initial charge

def test_initial_charge_isolated_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    cs = initial_half_charge(structure_of(g, [g.triangle(0, 1, 2)]))
    assert all(cs.f(e) == HALF for e in range(3))
    assert cs.spent(g.triangle(0, 1, 2)) == F(3, 2)


def test_initial_charge_k4_c4_covers_every_triangle():
    g = complete_graph(4)
    cs = initial_half_charge(structure_of(g, [g.triangle(0, 1, 2)]))
    halves = [e for e in range(6) if cs.f(e) == HALF]
    assert len(halves) == 4
    for t in enumerate_triangles(g):
        assert sum(cs.f(e) for e in t.edge_ids) >= 1


def test_half_integral_k4_fact_all_three_c4_choices():
    # every C4 of K4 is the complement of a perfect matching; each of the
    # three half-charges covers all four triangles
    g = complete_graph(4)
    matchings = [
        pair
        for pair in combinations(range(6), 2)
        if set(g.edges[pair[0]]) | set(g.edges[pair[1]]) == {0, 1, 2, 3}
    ]
    assert len(matchings) == 3
    for matching in matchings:
        weights = {e: HALF for e in range(6) if e not in matching}
        for t in enumerate_triangles(g):
            assert sum(weights.get(e, F(0)) for e in t.edge_ids) >= 1


def test_initial_charge_type1_pendant():
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)])
    cs = initial_half_charge(structure_of(g, [g.triangle(0, 1, 2)]))
    assert cs.f(g.edge_id(0, 2)) == 1
    assert cs.f(g.edge_id(0, 1)) == HALF
    assert cs.f(g.edge_id(1, 2)) == HALF


# ---------------------------------------------------------------------------
# lend relation

def test_lend_arc_in_gadget():
    g = lend_chain(1)
    p = local_search_packing(g, 0, 5)
    s = build_structure(g, p)
    lend = build_lend(s)
    assert len(lend) == 1
    arc = next(iter(lend.values()))
    assert s.info[arc.src].type == 1
    assert s.info[arc.dst].type == 3
    assert arc.gain in arc.dst.edge_ids


def test_no_lend_between_disjoint_triangles():
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    s = structure_of(g, [g.triangle(0, 1, 2), g.triangle(3, 4, 5)])
    assert build_lend(s) == {}


def test_no_lend_when_attachment_not_unique():
    # two pendants on the same base kill the unique-attachment condition
    g = lend_chain(1)
    extra = g.n
    edges = list(g.edges) + [(0, extra), (1, extra)]
    g2 = build_graph(g.n + 1, edges)
    p = local_search_packing(g2, 0, 5)
    s = build_structure(g2, p)
    src_types = {s.info[a.src].type for a in build_lend(s).values()}
    assert g2.triangle(0, 1, 2) not in {a.src for a in build_lend(s).values()}
    assert src_types <= {1}


# ---------------------------------------------------------------------------
# chains

def test_chain_sizes_on_gadgets():
    for L in (1, 2, 3, 4):
        g = lend_chain(L)
        p = local_search_packing(g, 0, 5)
        assert len(p) == L + 1 == nu_exact(g).value
        s = build_structure(g, p)
        cs = initial_half_charge(s)
        chains = build_chains(s, build_lend(s), cs)
        assert len(chains.chains) == 1
        chain = chains.chains[0]
        assert len(chain.links) == L
        assert not chain.satisfied
        assert s.info[chain.head].type == 3
        assert all(s.info[l.psi].type == 1 for l in chain.links)


def test_chain_half_edge_pattern():
    # gain edges are half-edges; all solution edges except the tail's
    # spare non-base edge carry at least one half
    for L in (1, 2, 3, 4):
        g = lend_chain(L)
        p = local_search_packing(g, 0, 5)
        s = build_structure(g, p)
        cs = initial_half_charge(s)
        lend = build_lend(s)
        chains = build_chains(s, lend, cs)
        (chain,) = chains.chains
        for link in chain.links:
            assert cs.f(lend[link.psi].gain) == HALF
        solution_edges = {e for psi in members(chain) for e in psi.edge_ids}
        for e in solution_edges:
            if e == spare_edge(s, chain):
                assert cs.f(e) == 0
            else:
                assert cs.f(e) >= HALF
        halves = chain.half_nonsolution_edges()
        assert len(halves) == L + 1  # two head spokes plus interior legs
        assert all(cs.f(e) == HALF for e in halves)


def test_distinct_chains_have_disjoint_half_edges():
    rng = random.Random(31)
    for _ in range(25):
        g = gnp(rng.randint(6, 11), rng.choice([0.4, 0.5, 0.6]), rng.randint(0, 10**6))
        p = local_search_packing(g, rng.randint(0, 20), 5)
        s = build_structure(g, p)
        if check_structure(s):
            continue
        cs = initial_half_charge(s)
        lend = build_lend(s)
        chains = build_chains(s, lend, cs)
        seen = set()
        for c in chains.chains:
            mine = c.half_nonsolution_edges()
            assert not (mine & seen)
            seen |= mine
            # charge pattern: gain edges are half, and every member's
            # solution edge carries at least a half except an unsatisfied
            # tail's spare non-base edge
            for link in c.links:
                assert cs.f(lend[link.psi].gain) >= HALF
            for psi in members(c):
                for e in psi.edge_ids:
                    if not c.satisfied and e == spare_edge(s, c):
                        assert cs.f(e) == 0
                    else:
                        assert cs.f(e) >= HALF


def test_one_link_chain_leaves_no_null_edge_on_head():
    g = lend_chain(1)
    p = local_search_packing(g, 0, 5)
    s = build_structure(g, p)
    cs = initial_half_charge(s)
    chains = build_chains(s, build_lend(s), cs)
    head = chains.chains[0].head
    assert all(cs.f(e) == HALF for e in head.edge_ids)


def test_no_arcs_mean_no_chains():
    g = complete_graph(4)
    s = structure_of(g, [g.triangle(0, 1, 2)])
    cs = initial_half_charge(s)
    before = {e: cs.f(e) for e in range(g.m)}
    chains = build_chains(s, build_lend(s), cs)
    assert chains.chains == []
    assert {e: cs.f(e) for e in range(g.m)} == before


# ---------------------------------------------------------------------------
# fixed charge and demand

def test_f_fix_zeroes_unsatisfied_tail_region():
    g = lend_chain(2)
    p = local_search_packing(g, 0, 5)
    s, cs, chains, ds = pipeline_state(g, list(p.triangles))
    fix = fixed_charge(s)
    chain = chains.chains[0]
    link = chain.links[-1]
    assert fix.get(spare_edge(s, chain), 0) == 0
    assert fix.get(spare_half(s, chain), 0) == 0
    for leg in s.info[link.psi].legs:
        assert fix.get(leg, 0) == 0
    assert fix.get(s.info[link.psi].base, 0) == 1  # numerator 1 is HALF at order 2
    assert fix.get(build_lend(s)[link.psi].gain, 0) == 1
    # satisfied members and the head keep everything fixed
    for l in chain.links[:-1]:
        for e in l.psi.edge_ids:
            assert fix.get(e, 0) == cs.numerators.get(e, 0)
    for e in chain.head.edge_ids:
        assert fix.get(e, 0) == cs.numerators.get(e, 0) == 1


def _bridge_instance():
    # type-0 triangle (0,1,2) and type-3 triangle (2,3,4) anchored at 5,
    # bridged by the doubly-attached triangle (1,2,3)
    g = build_graph(
        6,
        [
            (0, 1), (0, 2), (1, 2),          # type-0
            (2, 3), (2, 4), (3, 4),          # type-3 triangle
            (2, 5), (3, 5), (4, 5),          # its anchor spokes
            (1, 3),                          # bridge
        ],
    )
    return g, Packing(g, [g.triangle(0, 1, 2), g.triangle(2, 3, 4)])


def test_demanding_set_on_bridge_instance():
    # a type-0 triangle sharing an edge with a bridge into an unsatisfied
    # type-3: the bridge triangle is demanding
    g, p = _bridge_instance()
    s, cs, chains, ds = pipeline_state(g, list(p.triangles))
    bridge = g.triangle(1, 2, 3)
    assert bridge in ds.demanding
    discharge_and_pin(s, cs, ds)
    assert ds.demanding == []
    f = cs.to_assignment()
    assert verify_cover(g, f, len(p)).ok
    assert f.value(g.edge_id(1, 2)) == 1  # the spare half made it full


def test_demanding_empty_when_all_satisfied():
    g = lend_chain(2)
    p = local_search_packing(g, 0, 5)
    s, cs, chains, ds = pipeline_state(g, list(p.triangles))
    assert ds.demanding == []


def test_triangle_on_full_base_edge_not_demanding():
    # the bridge triangle (1,2,3) carries a type-0 edge but also the base
    # edge (2,3) of the type-1 triangle, so it is excluded from the
    # demanding set and covered by the full base edge instead
    g = build_graph(
        6, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (2, 5), (3, 5), (1, 3)]
    )
    p = Packing(g, [g.triangle(0, 1, 2), g.triangle(2, 3, 4)])
    s, cs, chains, ds = pipeline_state(g, list(p.triangles))
    bridge = g.triangle(1, 2, 3)
    base_edge = g.edge_id(2, 3)
    assert s.info[g.triangle(2, 3, 4)].base_edges == frozenset({base_edge})
    assert base_edge in bridge.edge_ids
    assert bridge not in ds.demanding
    assert cs.f(base_edge) == 1
    discharge_and_pin(s, cs, ds)
    assert verify_cover(g, cs.to_assignment(), len(p)).ok


def _k4_shape_instance():
    # type-0 triangle (0,1,2) and the apex 3 over all three of its edges:
    # the spokes (1,3) and (2,3) are packed in (1,3,4) and (2,3,5) and the
    # spoke (0,3) is free, so (1,2,3) is hollow and (0,1,3), (0,2,3) are
    # doubly attached; all three packed triangles are type 0
    g = build_graph(
        6,
        [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (3, 5)],
    )
    return g, [g.triangle(0, 1, 2), g.triangle(1, 3, 4), g.triangle(2, 3, 5)]


def _demand(s, *triangles):
    return DemandState(s, list(triangles), [], set(), {})


def test_demand_lemma_accepts_the_k4_shape():
    # (0,1,2) meets one hollow and two doubly attached triangles on its
    # three edges; (1,3,4) and (2,3,5) each meet two that fan out from
    # the spoke it packs
    g, packed = _k4_shape_instance()
    s = structure_of(g, packed)
    assert s.violations == () and all(i.type == 0 for i in s.info.values())
    k4 = [g.triangle(0, 1, 3), g.triangle(0, 2, 3), g.triangle(1, 2, 3)]
    assert demand_lemma_violation(s, _demand(s, *k4)) is None


def _illegal_demand_shapes(g):
    """Demand sets on (0,1,2) that fail the lemma and that
    ``compute_demanding`` can give: distinct triangles of the graph."""
    return {"two on a spoke": (g.triangle(0, 1, 3), g.triangle(0, 2, 3))}


@pytest.mark.parametrize("name", list(_illegal_demand_shapes(_k4_shape_instance()[0])))
def test_demand_lemma_witnesses_an_illegal_shape(name):
    g, packed = _k4_shape_instance()
    s = structure_of(g, packed)
    dem = _illegal_demand_shapes(g)[name]
    assert demand_lemma_violation(s, _demand(s, *dem)) == packed[0]


def test_discharge_and_pin_identity_when_no_demand():
    g = complete_graph(4)
    s, cs, chains, ds = pipeline_state(g, [g.triangle(0, 1, 2)])
    assert ds.demanding == []
    before = {e: cs.f(e) for e in range(g.m)}
    discharge_and_pin(s, cs, ds)
    assert {e: cs.f(e) for e in range(g.m)} == before


def test_discharge_and_pin_returns_when_stuck():
    # with no free triangle left no step applies, and what discharge-and-pin
    # leaves short is verify_cover's to report
    g = gnp(10, 0.5, 25)
    s, cs, chains, ds = pipeline_state(g, list(local_search_packing(g, 0, 5).triangles))
    demanding = list(ds.demanding)
    assert demanding
    before = dict(cs.numerators)
    ds.free.clear()
    discharge_and_pin(s, cs, ds)
    assert ds.demanding == demanding and cs.numerators == before


def test_rotatable_whose_demand_an_earlier_pin_dropped_pins_nothing():
    # step 2 starts with (1, 5, 8) and (3, 5, 9) both on demanded edges;
    # the pin of (1, 5, 8) on (5, 8) drops (1, 3, 5), the demand on
    # (3, 5), so (3, 5, 9) has none left and stays free
    g = gnp(11, 0.5, 801710)
    packed = [(0, 5, 10), (1, 2, 10), (1, 3, 4), (1, 5, 8), (3, 5, 9)]
    s = structure_of(g, [g.triangle(*t) for t in packed])
    assert s.violations == ()
    run, _ = run_order2(s)
    assert run.demand.log == [
        {"op": "discharge", "triangle": [0, 5, 10], "edge": [0, 5]},
        {"op": "discharge", "triangle": [1, 2, 10], "edge": [1, 2]},
        {"op": "pin", "triangle": [1, 5, 8], "edge": [5, 8]},
    ]
    assert [t.vertices for t in run.demand.free] == [(1, 3, 4), (3, 5, 9)]
    assert run.demand.demanding == []
    f3 = charge_order3(s)
    for f in (run.assignment, f3, charge_order6(s)):
        assert verify_cover(g, f, len(s.packing)).ok, f.order
    assert max(f3.per_triangle.values()) <= 2


def test_pin_type3_rotates_to_requested_null_edge():
    g = complete_graph(4)
    s, cs, chains, ds = pipeline_state(g, [g.triangle(0, 1, 2)])
    psi = g.triangle(0, 1, 2)
    target = g.edge_id(1, 2)
    pin(ds, cs, psi, target)
    assert cs.f(target) == 0
    opposite_spoke = g.edge_id(0, 3)
    assert cs.f(opposite_spoke) == 0
    others = set(range(6)) - {target, opposite_spoke}
    assert all(cs.f(e) == HALF for e in others)
    for t in enumerate_triangles(g):
        assert sum(cs.f(e) for e in t.edge_ids) >= 1


def gadget_union(rng, with_gnp=False):
    """Lend chains and glued K4s (and, ``with_gnp``, small gnp blocks)
    side by side, joined by random bridge edges.  The bridges make chains
    meet each other and the K4 blocks, which is what drives the satisfy,
    truncate and settle steps of ``build_chains``."""
    parts = []
    for _ in range(rng.randint(2, 4 if with_gnp else 3)):
        kind = rng.random()
        if not with_gnp:
            part = lend_chain(rng.randint(1, 3)) if kind < 0.5 else glued_k4(rng.randint(1, 2))
        elif kind < 0.45:
            part = lend_chain(rng.randint(1, 4))
        elif kind < 0.8:
            part = glued_k4(rng.randint(1, 3))
        else:
            part = gnp(rng.randint(4, 7), 0.6, rng.randint(0, 10**6))
        parts.append(part)
    offset, edges = 0, []
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges]
        offset += part.n
    eset = set(edges)
    bridges, added, tries = rng.randint(2, 10 if with_gnp else 6), 0, 0
    while added < bridges and tries < 200:
        tries += 1
        u, v = rng.randrange(offset), rng.randrange(offset)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in eset:
            continue
        eset.add(key)
        added += 1
    return build_graph(offset, sorted(eset))


def test_tentative_halves_do_not_satisfy_chains():
    # regression: two chain gadgets and a K4 block glued by random edges.
    # The first chain's tail attachment touches a spoke that carries only
    # the *tentative* C4 charge of a later chain head; treating that as
    # satisfaction left the attachment uncovered once the head was reset.
    rng = random.Random(9)
    g = gadget_union(rng)
    r = cover(g, 2, seed=rng.randint(0, 3))
    assert r.report.ok
    assert r.assignment.total() <= 2 * len(r.packing)


def test_pinned_size_one_tail_keeps_head_region_intact():
    # regression: the start-step lend of a one-link chain must be booked
    # on the gain edge; booking it on a head spoke made a later pin of
    # the tail rotate the spoke's half away and uncover the head-side
    # attachment relying on it
    rng = random.Random(453)
    g = gadget_union(rng, with_gnp=True)
    r = cover(g, 2, seed=rng.randint(0, 4))
    assert r.report.ok


def test_gadget_union_digest():
    # 300 gadget unions with gnp blocks: the only inputs in the suite
    # that satisfy a chain (by the cascade and by truncation) and settle
    # a K4.  The sha256 covers each union's covers at orders 2, 3 and 6,
    # and, on the order-2 packing, the charge after build_chains, the
    # demanding set and the discharge-and-pin log.
    rng = random.Random(1)
    h = hashlib.sha256()
    satisfied = settled = 0
    for _ in range(300):
        g = gadget_union(rng, with_gnp=True)
        seed = rng.randint(0, 4)
        covers = [cover(g, order, seed=seed) for order in (2, 3, 6)]
        for r in covers:
            assert r.report.ok
            h.update(repr((
                [t.vertices for t in r.packing.triangles],
                sorted(r.assignment.numerators.items()),
                r.repair_log,
            )).encode())
        s = build_structure(g, covers[0].packing)
        cs = initial_half_charge(s)
        chains = build_chains(s, build_lend(s), cs)
        satisfied += sum(c.satisfied for c in chains.chains)
        settled += len(chains.settled)
        ds = compute_demanding(s, chains)
        run, witness = run_order2(s)
        h.update(repr((
            sorted((e, v) for e, v in cs.numerators.items() if v),
            [t.vertices for t in ds.demanding],
            witness,
            run.demand.log,
        )).encode())
    assert satisfied and settled
    assert h.hexdigest() == "f7a6bf10b49f746997585a1cea04f8064c8ca4757bea1eebb529c154cb31c2ef"


def test_deep_discharge_and_pin_iteration():
    # three type-0 triangles in the K4 demand shape, all pressing on the
    # type-3 triangle A=(0,1,4), whose every edge has demand: A must pin
    # the lowest one with a free type-0 payer, and Z discharges onto that
    # fresh null edge; the type-3 triangles B, C and D' then pin edges
    # with no demand, so Z' and Z'' keep their spare halves
    edges = [
        (1, 2), (1, 3), (2, 3),          # Z    type-0
        (4, 8), (4, 9), (8, 9),          # Z'   type-0
        (4, 12), (4, 13), (12, 13),      # Z''  type-0
        (0, 1), (0, 4), (1, 4),          # A    type-3
        (0, 2), (0, 5), (2, 5),          # B    type-3
        (1, 8), (1, 10), (8, 10),        # C    type-3
        (0, 12), (0, 14), (12, 14),      # D'   type-3
        (0, 6), (1, 6), (4, 6),          # anchors completing the K4s
        (0, 7), (2, 7), (5, 7),
        (1, 11), (8, 11), (10, 11),
        (0, 15), (12, 15), (14, 15),
        (0, 3), (1, 9), (0, 13),         # the type-0 K4 partners' spokes
    ]
    g = build_graph(16, edges)
    p = Packing(
        g,
        [g.triangle(*t) for t in
         [(1, 2, 3), (4, 8, 9), (4, 12, 13), (0, 1, 4), (0, 2, 5), (1, 8, 10), (0, 12, 14)]],
    )
    s = build_structure(g, p)
    assert check_structure(s) == []
    run, witness = run_order2(s)
    assert witness is None
    log = run.demand.log
    deep = any(
        log[i]["op"] == "pin"
        and log[i + 1]["op"] == "discharge"
        and log[i]["edge"] == log[i + 1]["edge"]
        for i in range(len(log) - 1)
    )
    assert deep, log
    assert verify_cover(g, run.assignment, len(p)).ok
    assert run.assignment.total() == 13  # 2 per packed triangle, 3/2 for Z' and Z''
    # pins and discharges never dip below the fixed charge
    fix = fixed_charge(s)
    for e in range(g.m):
        assert run.charge.numerators.get(e, 0) >= fix.get(e, 0)


# ---------------------------------------------------------------------------
# whole runs

def test_cover_order2_k3():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    r = cover(g, 2)
    assert r.assignment.total() == F(3, 2)
    assert all(r.assignment.value(e) == HALF for e in range(3))
    assert len(r.packing) == 1


def test_cover_order2_k4():
    g = complete_graph(4)
    r = cover(g, 2)
    assert r.assignment.total() == 2
    assert sorted(r.assignment.numerators.values()) == [1, 1, 1, 1]
    assert r.report.ok


def test_cover_order2_k6():
    g = complete_graph(6)
    r = cover(g, 2)
    assert len(r.packing) == 4 == nu_exact(g).value
    assert r.assignment.total() <= 8
    assert r.report.ok


def _spine(k):
    """The edge ab joined to k disjoint edges: k K4s sharing the edge ab."""
    a, b = 2 * k, 2 * k + 1
    edges = [(i, i + k) for i in range(k)]
    edges += [(i, v) for i in range(2 * k) for v in (a, b)]
    return build_graph(2 * k + 2, edges + [(a, b)])


def test_spine_ledger_overload_is_capped():
    # at seed 0 each of the three packed triangles is type 3 and anchored
    # at 7, and each K4 books a half on the spine (6, 7); the read-out
    # caps the spine at weight one, which covers every triangle through it
    g = _spine(3)
    p = local_search_packing(g, 0, 5)
    assert sorted(t.vertices for t in p.triangles) == [(0, 3, 6), (1, 4, 6), (2, 5, 6)]
    run, _ = run_order2(build_structure(g, p))
    spine = g.edge_id(6, 7)
    assert run.charge.numerators[spine] == 3 and run.assignment.numerators[spine] == 2
    assert verify_cover(g, run.assignment, len(p)).ok


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_spine_family_covers_without_repair(k):
    # before the read-out cap, 5, 4, 2 and 1 of these 40 seeds left an
    # edge above weight one and exhausted the repair
    g = _spine(k)
    for seed in range(40):
        for order in (2, 4):
            r = cover(g, order, seed=seed)
            assert r.report.ok and r.repair_log == [], (seed, order)


def test_tail_renaming_invariance():
    # the reversed edge order swaps the names of the unsatisfied tail's
    # two non-base edges; the cover verifies under either naming
    for L in (1, 2, 3, 4):
        g = lend_chain(L)
        named = []
        for h in (g, build_graph(g.n, list(reversed(g.edges)))):
            r = cover(h, 2)
            assert r.report.ok
            assert verify_cover(h, r.assignment, len(r.packing)).ok
            assert r.assignment.total() <= 2 * len(r.packing)
            s, _, chains, _ = pipeline_state(h, list(r.packing.triangles))
            chain = chains.chains[0]
            named.append(
                (set(h.edges[spare_half(s, chain)]), set(h.edges[spare_edge(s, chain)]))
            )
        (h0, g0), (h1, g1) = named
        assert h0 == g1 and g0 == h1


def test_run_order2_spends_each_triangle_at_most_twice():
    rng = random.Random(41)
    for _ in range(25):
        g = gnp(rng.randint(6, 11), rng.choice([0.4, 0.6]), rng.randint(0, 10**6))
        p = local_search_packing(g, rng.randint(0, 25), 5)
        s = build_structure(g, p)
        if check_structure(s):
            continue
        run, witness = run_order2(s)
        if witness is not None:
            continue
        for psi, spent in run.assignment.per_triangle.items():
            assert spent <= 2
            if s.info[psi].type == 0:
                assert spent in (F(3, 2), 2)
        assert verify_cover(g, run.assignment, len(p)).ok
        fix = fixed_charge(s)
        for e in range(g.m):
            assert run.charge.numerators.get(e, 0) >= fix.get(e, 0)


# ---------------------------------------------------------------------------
# the gap graphs: clean packings below nu, each with the triangle that
# order 2 left uncovered before discharge-and-pin took three stated steps;
# B, C and D now verify, and E still leaves that triangle short

GAPS = {
    # one unsatisfied tail, (2, 5, 6), whose lower-id non-base edge took
    # the spare half and left the needed one null; step 3 of
    # discharge-and-pin pins the tail on the edge that leaves no triangle
    # short
    "B": (
        [(0, 3), (1, 4), (0, 5), (2, 5), (3, 5), (0, 6), (1, 6), (2, 6), (4, 6),
         (5, 6), (1, 7), (2, 7), (3, 7), (4, 7), (5, 7), (6, 7)],
        [(0, 3, 5), (1, 6, 7), (2, 5, 6)],
        (0, 5, 6),
        4,
    ),
    # as B, with the unsatisfied tail (0, 3, 6)
    "C": (
        [(0, 3), (1, 3), (0, 4), (2, 4), (0, 5), (1, 5), (3, 5), (4, 5), (0, 6),
         (1, 6), (2, 6), (3, 6), (4, 6), (0, 7), (2, 7), (3, 7), (4, 7), (5, 7),
         (6, 7)],
        [(0, 3, 6), (0, 4, 5), (1, 3, 5), (4, 6, 7)],
        (1, 3, 6),
        5,
    ),
    # no tail; the edge (2, 7) has demand from three triangles, and the
    # earlier engine gave up as the type-0 owner of the first, (0, 2, 9),
    # was spent; step 2 pays with the lowest unspent owner, (1, 6, 7)
    "D": (
        [(0, 1), (0, 2), (0, 4), (0, 6), (0, 7), (0, 8), (0, 9), (1, 2), (1, 3),
         (1, 5), (1, 6), (1, 7), (1, 8), (2, 3), (2, 5), (2, 7), (2, 8), (2, 9),
         (3, 5), (3, 6), (3, 7), (3, 8), (3, 9), (4, 5), (4, 6), (4, 7), (4, 8),
         (5, 6), (5, 7), (5, 8), (5, 9), (6, 7), (6, 8), (6, 9), (7, 8), (8, 9)],
        [(0, 1, 8), (0, 2, 9), (0, 4, 6), (1, 3, 5), (1, 6, 7), (2, 7, 8),
         (3, 6, 9), (4, 5, 7), (5, 8, 9)],
        (2, 5, 7),
        11,
    ),
    # one tail whose two non-base edges each carry a short triangle with
    # no type-0 owner, (1, 3, 4) and (1, 5, 9): whichever edge the tail
    # pins, one of them stays at 1/2, and no demand set lists either
    "E": (
        [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 9), (1, 3), (1, 4),
         (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (2, 5), (2, 6), (2, 8), (2, 9),
         (3, 4), (3, 5), (3, 6), (3, 7), (3, 9), (4, 6), (4, 9), (5, 6), (5, 9),
         (6, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9)],
        [(0, 2, 6), (0, 3, 4), (0, 5, 9), (1, 3, 9), (1, 6, 7), (2, 8, 9),
         (3, 5, 6), (4, 6, 9)],
        (1, 3, 4),
        9,
    ),
}


def gap_structure(name):
    edges, packed, _, _ = GAPS[name]
    g = build_graph(1 + max(map(max, edges)), edges)
    s = structure_of(g, [g.triangle(*t) for t in packed])
    assert s.violations == ()
    return s


@pytest.mark.parametrize("name", sorted(GAPS))
def test_gap_graphs_verify_at_orders_3_and_6_and_by_default(name):
    # the engines of orders 3 and 6 verify on each gap packing, and the
    # default order-2 cover packs nu triangles with no repair
    s = gap_structure(name)
    for f in (charge_order3(s), charge_order6(s)):
        assert verify_cover(s.g, f, len(s.packing)).ok, f.order
    r = cover(s.g, 2)
    assert r.report.ok and r.repairs == 0
    assert len(r.packing) == GAPS[name][3] == nu_exact(s.g).value


@pytest.mark.parametrize(
    "name",
    [
        "B",
        "C",
        "D",
        pytest.param(
            "E",
            marks=pytest.mark.xfail(
                strict=True, raises=AssertionError,
                reason="gap E's packing has an improving 3-swap, so it is outside "
                "the engines' precondition; T(1, 3, 4) stays uncovered",
            ),
        ),
    ],
)
def test_gap_graphs_order2(name):
    s = gap_structure(name)
    run, _ = run_order2(s)
    report = verify_cover(s.g, run.assignment, len(s.packing))
    assert report.ok, [t.vertices for t in report.failing]


# the E family: clean local-search packings of gnp graphs whose short
# triangle has gap E's shape: its two owners are an unsatisfied tail and
# a type-1 or type-3 triangle, and it has no type-0 owner.  Each was the
# start packing of an order-2 cover at the seed and max_swap named, until
# cover searched to 3-swap optimality (tests/test_pipeline.py pins those
# covers now)
E_FAMILY = {
    # seed 11, max_swap 2
    "565391": (
        (12, 0.6, 565391),
        [(0, 2, 6), (0, 3, 10), (0, 5, 8), (1, 3, 11), (1, 4, 8), (2, 4, 11),
         (5, 6, 10), (5, 7, 9), (6, 8, 11), (7, 10, 11)],
        (0, 2, 8),
    ),
    # seed 42, max_swap 1
    "871043": (
        (11, 0.7, 871043),
        [(0, 1, 4), (0, 3, 7), (0, 5, 6), (0, 9, 10), (1, 6, 7), (1, 8, 10),
         (2, 3, 8), (3, 5, 9), (3, 6, 10), (4, 5, 8), (4, 7, 10), (6, 8, 9)],
        (4, 6, 7),
    ),
    # seed 78, max_swap 1 and 2
    "76099": (
        (16, 0.6, 76099),
        [(0, 1, 4), (0, 6, 15), (0, 9, 14), (1, 3, 10), (1, 6, 7), (1, 9, 13),
         (2, 6, 10), (2, 7, 11), (2, 8, 15), (2, 12, 14), (4, 7, 10), (4, 8, 14),
         (4, 11, 15), (5, 8, 9), (5, 13, 14), (6, 8, 13), (10, 12, 13)],
        (1, 4, 13),
    ),
    # seed 79, max_swap 2; the other owner is of type 3
    "225439": (
        (14, 0.5, 225439),
        [(0, 2, 6), (0, 5, 11), (0, 10, 13), (1, 8, 10), (1, 11, 12), (2, 5, 9),
         (3, 6, 12), (4, 7, 8), (6, 7, 11), (7, 9, 10)],
        (2, 5, 6),
    ),
}


def e_family_structure(name):
    args, packed, _ = E_FAMILY[name]
    g = gnp(*args)
    s = structure_of(g, [g.triangle(*t) for t in packed])
    assert s.violations == ()
    return s


@pytest.mark.parametrize("name", sorted(E_FAMILY))
def test_e_family_shape(name):
    # order 2 leaves the named triangle, and it alone, short, in gap E's
    # shape; the engines of orders 3 and 6 verify
    s = e_family_structure(name)
    run, _ = run_order2(s)
    failing = verify_cover(s.g, run.assignment, len(s.packing)).failing
    assert [t.vertices for t in failing] == [E_FAMILY[name][2]]
    tails = {c.tail() for c in run.chains.chains if not c.satisfied}
    tail, other = sorted(s.attachments[failing[0]], key=lambda o: o not in tails)
    assert tail in tails and other not in tails and s.info[other].type in (1, 3)
    for f in (charge_order3(s), charge_order6(s)):
        assert verify_cover(s.g, f, len(s.packing)).ok, f.order


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="each packing has an improving swap of size 3 or less, so it is "
    "outside the engines' precondition; the short triangle has gap E's shape",
)
@pytest.mark.parametrize("name", sorted(E_FAMILY))
def test_e_family_order2(name):
    s = e_family_structure(name)
    run, _ = run_order2(s)
    report = verify_cover(s.g, run.assignment, len(s.packing))
    assert report.ok, [t.vertices for t in report.failing]


def test_order2_failures_are_not_3_swap_optimal():
    # the engines' precondition is a packing with no improving swap of
    # size 3 or less, which cover's local search guarantees; the packings
    # that order 2 leaves short fall outside it
    for s in [gap_structure("E")] + [e_family_structure(name) for name in E_FAMILY]:
        assert find_swap(s.g, s.packing, 3) is not None


# ---------------------------------------------------------------------------
# many chains: relabelled lend chains, whose chains meet, and glued K4 paths

def _relabel(g, key):
    """``g`` with its vertices permuted by ``random.Random(key)``, as the
    benchmark relabels its instances."""
    perm = list(range(g.n))
    random.Random(key).shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _many_chain_structures():
    for base in (lend_chain(20), lend_chain(50), lend_chain(100), lend_chain(200), glued_k4(50)):
        for key in ("z", "y"):
            g = _relabel(base, key)
            for max_swap in (2, 5):
                s = build_structure(g, local_search_packing(g, 0, max_swap))
                assert not s.violations
                yield s


def test_many_chain_digest():
    # the only inputs in the suite with many chains, many settled K4s and
    # chains satisfied by the cascade.  The sha256 covers the charge after
    # build_chains, each chain's links and flag, the settled set, the
    # demanding set, the discharge-and-pin log and the final numerators,
    # recorded before build_chains and discharge-and-pin were indexed.
    h = hashlib.sha256()
    chained = satisfied = settled = 0
    for s in _many_chain_structures():
        cs = initial_half_charge(s)
        lend = build_lend(s)
        chains = build_chains(s, lend, cs)
        chained += len(chains.chains)
        satisfied += sum(c.satisfied for c in chains.chains)
        settled += len(chains.settled)
        ds = compute_demanding(s, chains)
        run, _ = run_order2(s)
        h.update(repr((
            sorted((e, v) for e, v in cs.numerators.items() if v),
            [([(l.psi.vertices, lend[l.psi].gain, l.e1) for l in c.links], c.satisfied)
             for c in chains.chains],
            sorted(t.vertices for t in chains.settled),
            [t.vertices for t in ds.demanding],
            run.demand.log,
            sorted((e, v) for e, v in run.charge.numerators.items() if v),
        )).encode())
    assert (chained, satisfied, settled) == (338, 36, 66)
    assert h.hexdigest() == "a3abeebb968c29d4d4528b70c7c0ed038cded1b9e148518b1fdde663e0171052"


def test_type3_outside_chains_is_satisfied_iff_settled():
    # build_chains drops a start arc for good once its head is satisfied,
    # which is safe as satisfaction of a type-3 triangle outside every
    # chain means it was settled, and settling is for good
    rng = random.Random(2)
    structures = list(_many_chain_structures())
    for _ in range(300):
        g = gadget_union(rng, with_gnp=True)
        structures.append(build_structure(g, cover(g, 2, seed=rng.randint(0, 4)).packing))
    settled = 0
    for s in structures:
        cs = initial_half_charge(s)
        chains = build_chains(s, build_lend(s), cs)
        members = {t for c in chains.chains for t in (c.head, *(l.psi for l in c.links))}
        for psi in s.packed_of_type(3):
            if psi not in members:
                full = all(cs.numerators.get(e, 0) >= 1 for e in psi.edge_ids)
                assert full == (psi in chains.settled), psi
        settled += len(chains.settled)
    assert settled > 66


def test_start_arc_lender_with_both_legs_fixed_starts_no_chain():
    # the lender (0, 1, 2) lends into the type-3 head (2, 3, 4), and its
    # legs (0, 3) and (1, 3) are half spokes of the heads (0, 6, 7) and
    # (1, 10, 11), whose chains start first; so its arc is dropped and
    # (2, 3, 4) stays a free rotatable.  Started anyway, it would make a
    # third chain, satisfied at once on the fixed legs
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (2, 4), (3, 4), (2, 5),
             (3, 5), (4, 5), (0, 6), (0, 7), (6, 7), (3, 6), (3, 7), (8, 9), (6, 8),
             (6, 9), (7, 8), (7, 9), (1, 10), (1, 11), (10, 11), (3, 10), (3, 11),
             (12, 13), (10, 12), (10, 13), (11, 12), (11, 13)]
    g = build_graph(14, edges)
    packed = [(0, 1, 2), (0, 6, 7), (1, 10, 11), (2, 3, 4), (6, 8, 9), (10, 12, 13)]
    s, cs, chains, ds = pipeline_state(g, [g.triangle(*t) for t in packed])
    lend = build_lend(s)
    lender, head = g.triangle(0, 1, 2), g.triangle(2, 3, 4)
    assert lend[lender].dst == head
    assert set(s.info[lender].legs) == {g.edge_id(0, 3), g.edge_id(1, 3)}
    assert [(c.head.vertices, [l.psi.vertices for l in c.links], c.satisfied)
            for c in chains.chains] == [((0, 6, 7), [(6, 8, 9)], False),
                                        ((1, 10, 11), [(10, 12, 13)], False)]
    assert {g.edge_id(0, 3), g.edge_id(1, 3)} <= set().union(
        *(c.half_nonsolution_edges() for c in chains.chains)
    )
    assert head in ds.free and not chains.settled
    run, _ = run_order2(s)
    for f in (run.assignment, charge_order3(s), charge_order6(s)):
        assert verify_cover(g, f, len(s.packing)).ok, f.order


def _pinned_structure(n, edges, packed):
    """The structure of a packing, with ``edges`` written "u-v"."""
    g = build_graph(n, [tuple(map(int, e.split("-"))) for e in edges.split()])
    s = structure_of(g, [g.triangle(*t) for t in packed])
    assert not s.violations
    return s


def _pinned_run(s):
    """``run_order2`` on ``s``, with the chains as (head, links, satisfied)
    and the numerators by edge; the cover verifies."""
    run, _ = run_order2(s)
    assert verify_cover(s.g, run.assignment, len(s.packing)).ok
    chains = [(c.head.vertices, [l.psi.vertices for l in c.links], c.satisfied)
              for c in run.chains.chains]
    nums = {s.g.edges[e]: v for e, v in run.assignment.numerators.items() if v}
    return run, chains, nums


def _pinned_3_swap_optimal_run(n, edges, packed):
    s = _pinned_structure(n, edges, packed)
    assert find_swap(s.g, s.packing, 3) is None
    return _pinned_run(s)


def test_start_arc_into_a_settled_head_starts_no_chain():
    # the chain of (2, 3, 4) fixes a half on (4, 6), a spoke of the type-3
    # (5, 6, 7), and the cascade settles it; so the arc of (7, 8, 9) into
    # it is dropped.  Started anyway, (5, 6, 7) would head a second chain
    # and (4, 6) would carry a full unit
    run, chains, nums = _pinned_3_swap_optimal_run(
        10, "0-1 1-2 0-2 2-3 3-4 2-4 4-5 5-6 4-6 6-7 7-8 6-8 6-9 7-9 8-9 0-4 1-4 2-6 3-6 4-7 5-7",
        [(0, 1, 2), (2, 3, 4), (5, 6, 7), (7, 8, 9)],
    )
    assert chains == [((2, 3, 4), [(0, 1, 2)], False)]
    assert sorted(t.vertices for t in run.chains.settled) == [(5, 6, 7)]
    assert run.demand.log == []
    assert nums == {
        (0, 1): 1, (0, 4): 1, (1, 2): 1, (2, 3): 1, (2, 4): 1, (3, 4): 1, (3, 6): 1,
        (4, 5): 1, (4, 6): 1, (5, 6): 1, (5, 7): 1, (6, 7): 1, (7, 8): 1, (7, 9): 1,
        (8, 9): 2,
    }


def test_lender_onto_a_tail_base_does_not_grow_the_chain():
    # (0, 3, 6) lends onto (6, 7), the base of the tail (4, 6, 7), so it
    # does not join the chain of (1, 4, 5).  Joined anyway, it would be a
    # second link, and (3, 6) and (5, 7) would lose their halves
    run, chains, nums = _pinned_3_swap_optimal_run(
        8, "1-2 0-3 1-4 2-4 1-5 2-5 4-5 0-6 3-6 4-6 5-6 0-7 3-7 4-7 5-7 6-7",
        [(0, 3, 6), (1, 4, 5), (4, 6, 7)],
    )
    assert chains == [((1, 4, 5), [(4, 6, 7)], False)]
    assert not run.chains.settled and run.demand.log == []
    assert nums == {
        (0, 3): 2, (0, 6): 1, (1, 2): 1, (1, 4): 1, (1, 5): 1, (2, 5): 1, (3, 6): 1,
        (4, 5): 1, (4, 6): 1, (5, 7): 1, (6, 7): 1,
    }


def test_lender_with_both_legs_fixed_does_not_grow_the_chain():
    # the heads (0, 6, 7) and (1, 10, 11) start first and fix halves on
    # (0, 3) and (1, 3), the legs of (0, 1, 2); so when the chain of
    # (2, 5, 14) reaches its tail (2, 3, 4), the arc of (0, 1, 2) into
    # that tail is passed over and the chain ends unsatisfied.  Joined
    # anyway, (0, 1, 2) would satisfy the chain and keep half on its base
    run, chains, nums = _pinned_3_swap_optimal_run(
        16, "0-1 0-2 1-2 0-3 1-3 2-3 2-4 3-4 2-5 3-5 4-5 0-6 0-7 6-7 3-6 3-7 8-9 6-8 6-9 "
            "7-8 7-9 1-10 1-11 10-11 3-10 3-11 12-13 10-12 10-13 11-12 11-13 2-14 5-14 "
            "2-15 5-15 14-15",
        [(0, 1, 2), (0, 6, 7), (1, 10, 11), (2, 3, 4), (2, 5, 14), (6, 8, 9), (10, 12, 13)],
    )
    assert chains == [((0, 6, 7), [(6, 8, 9)], False), ((1, 10, 11), [(10, 12, 13)], False),
                      ((2, 5, 14), [(2, 3, 4)], False)]
    assert nums == {
        (0, 1): 2, (0, 2): 1, (0, 3): 1, (0, 6): 1, (0, 7): 1, (1, 2): 1, (1, 3): 1,
        (1, 10): 1, (1, 11): 1, (2, 3): 1, (2, 5): 1, (2, 14): 1, (3, 4): 1, (3, 7): 1,
        (3, 11): 1, (4, 5): 1, (5, 14): 1, (5, 15): 1, (6, 7): 1, (6, 8): 1, (7, 9): 1,
        (8, 9): 1, (10, 11): 1, (10, 12): 1, (11, 13): 1, (12, 13): 1, (14, 15): 1,
    }


def test_chain_satisfied_on_one_tail_leg_is_not_satisfied_again():
    # the chain of (0, 3, 4) ends with its tail (0, 1, 2) unsatisfied,
    # waiting on the legs (1, 3) and (2, 3).  The head (3, 6, 7) fixes a
    # half on (1, 3), which satisfies it; the head (3, 10, 11) then fixes
    # one on (2, 3).  Satisfied again, the tail would spend three credits
    # and the cover would fail its budget
    run, chains, nums = _pinned_3_swap_optimal_run(
        14, "0-1 0-2 0-3 0-4 0-5 1-2 1-3 1-6 1-7 2-3 2-10 2-11 3-4 3-5 3-6 3-7 3-10 3-11 "
            "4-5 6-7 6-8 6-9 7-8 7-9 8-9 10-11 10-12 10-13 11-12 11-13 12-13",
        [(0, 1, 2), (0, 3, 4), (3, 6, 7), (3, 10, 11), (6, 8, 9), (10, 12, 13)],
    )
    assert chains == [((0, 3, 4), [(0, 1, 2)], True), ((3, 6, 7), [(6, 8, 9)], False),
                      ((3, 10, 11), [(10, 12, 13)], False)]
    assert run.charge.spent(run.chains.chains[0].tail()) == 2
    assert nums == {
        (0, 1): 1, (0, 2): 1, (0, 3): 1, (0, 4): 1, (1, 2): 1, (1, 3): 1, (1, 7): 1,
        (2, 3): 1, (2, 11): 1, (3, 4): 1, (3, 5): 1, (3, 6): 1, (3, 7): 1, (3, 10): 1,
        (3, 11): 1, (4, 5): 1, (6, 7): 1, (6, 8): 1, (7, 9): 1, (8, 9): 1, (10, 11): 1,
        (10, 12): 1, (11, 13): 1, (12, 13): 1,
    }


def test_rotatable_whose_lowest_payer_is_spent_pins_an_edge_that_is_paid():
    # a clean packing outside the engines' precondition (it has an
    # improving 2-swap).  Step 2 pins (0, 1, 2) on (0, 1), paid by
    # (0, 4, 8); the demand on (4, 5) and (4, 6), the lower edges of
    # (4, 5, 6), has only that spent payer, so (4, 5, 6) pins (5, 6),
    # which (2, 6, 9) pays.  Pinned on (4, 5), it would leave (4, 5, 8)
    # short
    s = _pinned_structure(
        10, "0-1 0-2 0-3 0-4 0-6 0-8 1-2 1-3 1-8 1-9 2-3 2-6 2-9 4-5 4-6 4-7 4-8 5-6 5-7 "
            "5-8 5-9 6-7 6-9",
        [(0, 1, 2), (0, 4, 8), (2, 6, 9), (4, 5, 6)],
    )
    assert find_swap(s.g, s.packing, 3) is not None
    run, chains, nums = _pinned_run(s)
    assert chains == [] and run.demand.log == [
        {"op": "pin", "triangle": [0, 1, 2], "edge": [0, 1]},
        {"op": "discharge", "triangle": [0, 4, 8], "edge": [0, 1]},
        {"op": "pin", "triangle": [4, 5, 6], "edge": [5, 6]},
        {"op": "discharge", "triangle": [2, 6, 9], "edge": [5, 6]},
    ]
    assert nums == {
        (0, 1): 1, (0, 2): 1, (0, 3): 1, (0, 4): 1, (0, 8): 1, (1, 2): 1, (1, 3): 1,
        (2, 6): 1, (2, 9): 1, (4, 5): 1, (4, 6): 1, (4, 8): 1, (5, 6): 1, (5, 7): 1,
        (6, 7): 1, (6, 9): 1,
    }


def _structure_reads(s):
    """How often ``run_order2(s)`` reads the K4 regions, spokes, owners
    and attachment legs of the structure."""
    calls = Counter()

    def counted(name, read):
        def wrapper(*args):
            calls[name] += 1
            return read(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in ("k4_region_edges", "spoke", "owner"):
            mp.setattr(SolutionStructure, name, counted(name, getattr(SolutionStructure, name)))
        legs = PackedInfo.__dict__["legs"]
        mp.setattr(PackedInfo, "legs", property(counted("legs", lambda i: legs.__get__(i, PackedInfo))))
        run_order2(s)
    return calls


def test_order2_work_grows_linearly():
    # counts, not wall clock: on a chain four times as long run_order2
    # reads the structure at most five times as often.  Before the chain
    # cascade, the chain starts and the demand were indexed the counts
    # were 12268 and 175734, a ratio of 14.3
    small, large = (
        _structure_reads(build_structure(g, local_search_packing(g, 0, 5)))
        for g in (_relabel(lend_chain(100), "z"), _relabel(lend_chain(400), "z"))
    )
    assert all(small.values()) and small.keys() == large.keys()
    assert sum(large.values()) <= 5 * sum(small.values()), (small, large)
