"""The order-2 pipeline: initial charge, chains, demand, discharge-and-pin."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from tricover import (
    Packing,
    build_graph,
    build_structure,
    check_structure,
    cover,
    enumerate_triangles,
    local_search_packing,
    nu_exact,
    verify_cover,
)
from tricover.errors import AlreadySpentError, PinBaseEdgeError
from tricover.generators import complete_graph, gnp, lend_chain
from tricover.order2 import (
    HALF,
    build_chains,
    build_lend,
    check_demand_lemma,
    compute_demanding,
    compute_f_fix,
    discharge,
    discharge_and_pin,
    initial_half_charge,
    pin,
    run_order2,
)

F = Fraction


def structure_of(g, triangles):
    return build_structure(g, Packing(g, triangles))


def pipeline_state(g, triangles, flip_tails=False):
    s = structure_of(g, triangles)
    assert check_structure(s) == []
    cs = initial_half_charge(s)
    chains, cs = build_chains(s, build_lend(s), cs, flip_tails=flip_tails)
    cs = compute_f_fix(cs, chains)
    ds = compute_demanding(s, cs, chains)
    return s, cs, chains, ds


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
    assert len(lend.arcs) == 1
    arc = next(iter(lend.arcs.values()))
    assert s.info[arc.src].type == 1
    assert s.info[arc.dst].type == 3
    assert arc.gain in arc.dst.edge_ids


def test_no_lend_between_disjoint_triangles():
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    s = structure_of(g, [g.triangle(0, 1, 2), g.triangle(3, 4, 5)])
    assert build_lend(s).arcs == {}


def test_no_lend_when_attachment_not_unique():
    # two pendants on the same base kill the unique-attachment condition
    g = lend_chain(1)
    extra = g.n
    edges = list(g.edges) + [(0, extra), (1, extra)]
    g2 = build_graph(g.n + 1, edges)
    p = local_search_packing(g2, 0, 5)
    s = build_structure(g2, p)
    src_types = {s.info[a.src].type for a in build_lend(s).arcs.values()}
    assert g2.triangle(0, 1, 2) not in {a.src for a in build_lend(s).arcs.values()}
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
        chains, cs = build_chains(s, build_lend(s), cs)
        real = [c for c in chains.chains if not c.zero_sized]
        assert len(real) == 1
        chain = real[0]
        assert chain.size == L
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
        chains, cs = build_chains(s, build_lend(s), cs)
        chain = next(c for c in chains.chains if not c.zero_sized)
        for link in chain.links:
            assert cs.f(link.gain) == HALF
        solution_edges = {e for psi in chain.members() for e in psi.edge_ids}
        for e in solution_edges:
            if e == chain.tail_g_next:
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
        chains, cs = build_chains(s, build_lend(s), cs)
        seen = set()
        for c in chains.chains:
            mine = c.half_nonsolution_edges()
            assert not (mine & seen)
            seen |= mine
            # charge pattern: gain edges are half, and every member's
            # solution edge carries at least a half except an unsatisfied
            # tail's spare non-base edge
            if c.zero_sized:
                continue
            for link in c.links:
                assert cs.f(link.gain) >= HALF
            for psi in c.members():
                for e in psi.edge_ids:
                    if not c.satisfied and e == c.tail_g_next:
                        assert cs.f(e) == 0
                    else:
                        assert cs.f(e) >= HALF


def test_one_link_chain_leaves_no_null_edge_on_head():
    g = lend_chain(1)
    p = local_search_packing(g, 0, 5)
    s = build_structure(g, p)
    cs = initial_half_charge(s)
    chains, cs = build_chains(s, build_lend(s), cs)
    head = next(c for c in chains.chains if not c.zero_sized).head
    assert all(cs.f(e) == HALF for e in head.edge_ids)


def test_no_arcs_mean_no_chains():
    g = complete_graph(4)
    s = structure_of(g, [g.triangle(0, 1, 2)])
    cs = initial_half_charge(s)
    before = {e: cs.f(e) for e in range(g.m)}
    chains, cs = build_chains(s, build_lend(s), cs)
    assert chains.chains == []
    assert {e: cs.f(e) for e in range(g.m)} == before


# ---------------------------------------------------------------------------
# fixed charge and demand

def test_f_fix_zeroes_unsatisfied_tail_region():
    g = lend_chain(2)
    p = local_search_packing(g, 0, 5)
    s, cs, chains, ds = pipeline_state(g, list(p.triangles))
    chain = next(c for c in chains.chains if not c.zero_sized)
    link = chain.links[-1]
    assert cs.fix_value(chain.tail_g_next) == 0
    assert cs.fix_value(link.h) == 0
    assert cs.fix_value(link.e1) == 0
    assert cs.fix_value(link.e2) == 0
    assert cs.fix_value(link.base) == HALF
    assert cs.fix_value(link.gain) == HALF
    # satisfied members and the head keep everything fixed
    for l in chain.links[:-1]:
        for e in l.psi.edge_ids:
            assert cs.fix_value(e) == cs.f(e)
    for e in chain.head.edge_ids:
        assert cs.fix_value(e) == cs.f(e) == HALF


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
    assert check_demand_lemma(s, ds) is None
    cs = discharge_and_pin(s, cs, ds)
    assert ds.demanding == []
    f = cs.to_assignment()
    assert verify_cover(g, f, len(p)).ok
    assert f.value(g.edge_id(1, 2)) == 1  # the spare half made it full


def test_demanding_empty_when_all_satisfied():
    g = lend_chain(2)
    p = local_search_packing(g, 0, 5)
    s, cs, chains, ds = pipeline_state(g, list(p.triangles))
    assert ds.demanding == []
    assert check_demand_lemma(s, ds) is None


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
    cs = discharge_and_pin(s, cs, ds)
    assert verify_cover(g, cs.to_assignment(), len(p)).ok


def test_discharge_and_pin_identity_when_no_demand():
    g = complete_graph(4)
    s, cs, chains, ds = pipeline_state(g, [g.triangle(0, 1, 2)])
    assert ds.demanding == []
    before = {e: cs.f(e) for e in range(g.m)}
    discharge_and_pin(s, cs, ds)
    assert {e: cs.f(e) for e in range(g.m)} == before


def test_discharge_twice_rejected():
    g, p = _bridge_instance()
    s, cs, chains, ds = pipeline_state(g, list(p.triangles))
    psi0 = g.triangle(0, 1, 2)
    discharge(ds, cs, psi0, g.edge_id(1, 2))
    with pytest.raises(AlreadySpentError):
        discharge(ds, cs, psi0, g.edge_id(1, 2))


def test_pin_base_edge_rejected():
    g = lend_chain(1)
    p = local_search_packing(g, 0, 5)
    s, cs, chains, ds = pipeline_state(g, list(p.triangles))
    tail = next(c for c in chains.chains if not c.zero_sized).links[-1].psi
    base = next(iter(s.info[tail].base_edges))
    with pytest.raises(PinBaseEdgeError):
        pin(ds, cs, tail, base)


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


def test_tentative_halves_do_not_satisfy_chains():
    # regression: two chain gadgets and a K4 block glued by random edges.
    # The first chain's tail attachment touches a spoke that carries only
    # the *tentative* C4 charge of a later chain head; treating that as
    # satisfaction left the attachment uncovered once the head was reset.
    import random as _random
    from tricover.generators import glued_k4, lend_chain

    rng = _random.Random(9)
    parts = []
    for _ in range(rng.randint(2, 3)):
        kind = rng.random()
        parts.append(lend_chain(rng.randint(1, 3)) if kind < 0.5 else glued_k4(rng.randint(1, 2)))
    offset, edges = 0, []
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges]
        offset += part.n
    eset = set(edges)
    bridges = rng.randint(2, 6)
    added = 0
    while added < bridges:
        u, v = rng.randrange(offset), rng.randrange(offset)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in eset:
            continue
        eset.add(key)
        added += 1
    g = build_graph(offset, sorted(eset))
    seed = rng.randint(0, 3)
    r = cover(g, 2, seed=seed)
    assert r.report.ok
    assert r.assignment.total() <= 2 * len(r.packing)


def test_pinned_size_one_tail_keeps_head_region_intact():
    # regression: the start-step lend of a one-link chain must be booked
    # on the gain edge; booking it on a head spoke made a later pin of
    # the tail rotate the spoke's half away and uncover the head-side
    # attachment relying on it
    import random as _random
    from tricover.generators import glued_k4, lend_chain, gnp as _gnp

    rng = _random.Random(453)
    parts = []
    for _ in range(rng.randint(2, 4)):
        kind = rng.random()
        if kind < 0.45:
            parts.append(lend_chain(rng.randint(1, 4)))
        elif kind < 0.8:
            parts.append(glued_k4(rng.randint(1, 3)))
        else:
            parts.append(_gnp(rng.randint(4, 7), 0.6, rng.randint(0, 10**6)))
    offset, edges = 0, []
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges]
        offset += part.n
    eset = set(edges)
    bridges, added, tries = rng.randint(2, 10), 0, 0
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
    g = build_graph(offset, sorted(eset))
    r = cover(g, 2, seed=rng.randint(0, 4))
    assert r.report.ok


def test_deep_discharge_and_pin_iteration():
    # three type-0 triangles in the K4 demand shape, all pressing on the
    # type-3 triangle A=(0,1,4): the loop must pin A on a demanded edge,
    # discharge a type-0 onto the fresh null edge and hand the leftover
    # demand to the next free triangle through its critical edge
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
    assert run.assignment.total() == 14  # exactly 2 per packed triangle
    # pins and discharges never dip below the fixed charge
    for e in range(g.m):
        assert run.charge.f(e) >= run.charge.fix_value(e)


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


def test_tail_renaming_invariance():
    for L in (1, 2, 3, 4):
        g = lend_chain(L)
        for flip in (False, True):
            r = cover(g, 2, flip_tails=flip)
            assert r.report.ok
            assert r.assignment.total() <= 2 * len(r.packing)


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
        for e in range(g.m):
            assert run.charge.f(e) >= run.charge.fix_value(e)
