"""Acceptance suite.

One test per criterion; each prints a single PASS line when it holds.
All arithmetic is exact rational, so checks are equalities and exact
inequalities, no tolerances.
"""

import time
from fractions import Fraction
from itertools import combinations

from tricover import (
    build_graph,
    build_structure,
    check_structure,
    cover,
    enumerate_triangles,
    local_search_packing,
    nu_exact,
    tau_exact,
    tau_star_k_exact,
    verify_cover,
)
from tricover.generators import bowtie, complete_graph, glued_k4, gnp, lend_chain
from tricover.order2 import (
    build_chains,
    build_lend,
    compute_demanding,
    initial_half_charge,
)

F = Fraction
HALF = F(1, 2)


def suite_instances():
    """The desk-scale suite: complete graphs, gadgets and 100 random graphs."""
    instances = [(f"K{n}", complete_graph(n)) for n in (4, 5, 6, 7, 8)]
    instances.append(("bowtie", bowtie()))
    instances += [(f"lend_chain({L})", lend_chain(L)) for L in (1, 2, 3, 4)]
    instances += [(f"glued_k4({L})", glued_k4(L)) for L in (1, 2, 3, 4)]
    ps = (0.3, 0.5, 0.7)
    for i in range(100):
        n = 8 + (i % 5)
        p = ps[i % 3]
        instances.append((f"gnp({n},{p},{i})", gnp(n, p, i)))
    return instances


def random_instances(count=200):
    ps = (0.3, 0.5, 0.7)
    out = []
    for i in range(count):
        n = 4 + (i % 7)
        out.append(gnp(n, ps[i % 3], 1000 + i))
    return out


def test_criterion_1_complete_graph_formulas():
    t0 = time.time()
    for n in (4, 6):
        expected = n * (n - 2) // 4
        start = time.time()
        assert tau_exact(complete_graph(n)).value == expected
        assert tau_star_k_exact(complete_graph(n), 2).value == expected
        assert time.time() - start < 10
    print(f"ACCEPTANCE 1 PASS: tau(K4)=tau*2(K4)=2, tau(K6)=tau*2(K6)=6 "
          f"({time.time() - t0:.1f}s)")


def test_criterion_2_k6_order_gap():
    t0 = time.time()
    ts3 = tau_star_k_exact(complete_graph(6), 3).value
    ts2 = tau_star_k_exact(complete_graph(6), 2).value
    assert ts3 == 5 and ts2 == 6
    assert ts3 <= F(5, 6) * ts2
    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"ACCEPTANCE 2 PASS: tau*3(K6)=5 <= (5/6)*tau*2(K6)=5 ({elapsed:.1f}s)")


def test_criterion_3_main_theorem_desk_scale():
    t0 = time.time()
    runs = 0
    for name, g in suite_instances():
        for order in (2, 3, 6):
            r = cover(g, order)  # raises RepairExhaustedError on failure
            runs += 1
            assert r.report.covered, (name, order)
            assert r.report.integrality_ok, (name, order)
            assert r.assignment.total() <= 2 * len(r.packing), (name, order)
    elapsed = time.time() - t0
    assert elapsed < 300
    print(f"ACCEPTANCE 3 PASS: {runs} verified covers, zero repair exhaustion "
          f"({elapsed:.1f}s)")


def test_criterion_4_charging_totals():
    t0 = time.time()
    checked = 0
    for name, g in suite_instances()[:40]:
        r3 = cover(g, 3)
        r6 = cover(g, 6)
        assert r6.assignment.per_triangle == r3.assignment.per_triangle, name
        assert r6.assignment.total() <= 2 * len(r6.packing)

        s = build_structure(g, r3.packing)
        for psi, spent in r3.assignment.per_triangle.items():
            info = s.info[psi]
            if info.type == 1 and len(info.cl_sin) > 1:
                assert F(5, 3) <= spent <= 2, name
            else:
                assert spent == 2, name

        r2 = cover(g, 2)
        s2 = build_structure(g, r2.packing)
        for psi, spent in r2.assignment.per_triangle.items():
            if s2.info[psi].type == 0:
                assert spent in (F(3, 2), F(2)), name  # 1.5 plus one optional half
            else:
                assert spent <= 2, name
        checked += 1
    print(f"ACCEPTANCE 4 PASS: per-triangle ledgers on {checked} instances "
          f"({time.time() - t0:.1f}s)")


def test_criterion_5_oracle_sandwich():
    t0 = time.time()
    for g in random_instances(200):
        nu = nu_exact(g).value
        tau = tau_exact(g).value
        assert nu <= tau <= 3 * nu
        for order in (2, 3, 6):
            tsk = tau_star_k_exact(g, order).value
            assert tsk <= tau
            r = cover(g, order)
            assert tsk <= r.assignment.total() <= 2 * nu or nu == 0
    print(f"ACCEPTANCE 5 PASS: sandwich on 200 random graphs n<=10 "
          f"({time.time() - t0:.1f}s)")


def demanding_on(ds, psi):
    """The demanding triangles of ``ds`` that share an edge with ``psi``."""
    es = set(psi.edge_ids)
    return [t for t in ds.demanding if es & set(t.edge_ids)]


def demand_lemma_violation(s, ds):
    """The first type-0 triangle whose demanding set has an illegal shape,
    or None.

    Reduced to the sets ``compute_demanding`` can give: distinct triangles
    of the graph, each on one edge of the type-0 triangle psi.  Such a set
    is legal iff it has at most one triangle, or no two of its triangles
    are edge-disjoint and they either share an edge of psi or number
    exactly three.  Three that pairwise share an edge, with no edge of
    psi common to all, are one apex over the three edges of psi and
    adjacent to all of psi; since psi is type 0, at most one spoke is
    unowned, so the hollow and doubly attached counts are (3, 0) or
    (1, 2): the K4 shape.
    """
    for psi in s.packed_of_type(0):
        dem = demanding_on(ds, psi)
        if len(dem) <= 1:
            continue
        if any(not set(a.edge_ids) & set(b.edge_ids) for a, b in combinations(dem, 2)):
            return psi
        if not set(psi.edge_ids).intersection(*(t.edge_ids for t in dem)) and len(dem) != 3:
            return psi
    return None


def test_criterion_7_structure_postconditions():
    t0 = time.time()
    for name, g in suite_instances():
        p = local_search_packing(g, 0, 5)
        s = build_structure(g, p)
        assert check_structure(s) == [], name
        cs = initial_half_charge(s)
        chains = build_chains(s, build_lend(s), cs)
        ds = compute_demanding(s, chains)
        assert demand_lemma_violation(s, ds) is None, name
    print(f"ACCEPTANCE 7 PASS: structure and demand checks clean on the suite "
          f"({time.time() - t0:.1f}s)")


def test_criterion_8_k4_half_integral_fact():
    g = complete_graph(4)
    tris = enumerate_triangles(g)
    matchings = [
        pair
        for pair in combinations(range(6), 2)
        if set(g.edges[pair[0]]) | set(g.edges[pair[1]]) == {0, 1, 2, 3}
    ]
    assert len(matchings) == 3
    for matching in matchings:
        weights = {e: HALF for e in range(6) if e not in matching}
        assert all(
            sum(weights.get(e, F(0)) for e in t.edge_ids) >= 1 for t in tris
        )
    print("ACCEPTANCE 8 PASS: every C4 half-charge covers all four K4 triangles")


def test_criterion_9_chain_construction():
    t0 = time.time()
    for L in (1, 2, 3, 4):
        g = lend_chain(L)
        p = local_search_packing(g, 0, 5)
        s = build_structure(g, p)
        cs = initial_half_charge(s)
        lend = build_lend(s)
        chains = build_chains(s, lend, cs)
        assert len(chains.chains) == 1
        chain = chains.chains[0]
        assert len(chain.links) == L
        halves = chain.half_nonsolution_edges()
        assert len(halves) == L + 1
        assert all(cs.f(e) == HALF for e in halves)
        for link in chain.links:
            assert cs.f(lend[link.psi].gain) == HALF
        # the reversed edge order swaps the naming of the tail's two
        # non-base edges; each cover is verified against its own graph
        for h in (g, build_graph(g.n, list(reversed(g.edges)))):
            r = cover(h, 2)
            assert verify_cover(h, r.assignment, len(r.packing)).ok
    print(f"ACCEPTANCE 9 PASS: size-L chains with the half-edge pattern, "
          f"tail renaming invariant ({time.time() - t0:.1f}s)")
