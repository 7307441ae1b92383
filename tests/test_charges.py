"""The order-3 charging engine, its order-6 doubling, and the ledger."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    ChargeAssignment,
    Packing,
    build_graph,
    build_structure,
    charge_order3,
    charge_order6,
    cover,
    local_search_packing,
    run_order2,
    verify_cover,
)
from tricover import charges
from tricover.charges import Ledger, _spend_spare_thirds
from tricover.errors import InputError
from tricover.generators import complete_graph, gnp

from test_census import relabeled

F = Fraction


def structure_of(g, triangles):
    return build_structure(g, Packing(g, triangles))


def test_order3_k4_type3():
    g = complete_graph(4)
    f = charge_order3(structure_of(g, [g.triangle(0, 1, 2)]))
    assert all(f.value(e) == F(1, 3) for e in range(6))
    assert f.total() == 2
    assert verify_cover(g, f, 1).ok


def test_order3_type1_many_attachments():
    # base edge (0,2) with two pendant apexes sharing no structure: the
    # base alone covers both, and the spare third stays unspent
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (0, 4), (2, 4)])
    f = charge_order3(structure_of(g, [g.triangle(0, 1, 2)]))
    assert f.value(g.edge_id(0, 2)) == 1
    assert f.value(g.edge_id(0, 1)) == F(1, 3)
    assert f.value(g.edge_id(1, 2)) == F(1, 3)
    assert f.total() == F(5, 3)
    assert verify_cover(g, f, 1).ok


def test_order3_triangle_free_zero():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    f = charge_order3(structure_of(g, []))
    assert f.total() == 0


def test_order3_single_type1_processed_first():
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)])
    f = charge_order3(structure_of(g, [g.triangle(0, 1, 2)]))
    assert f.value(g.edge_id(0, 2)) == F(2, 3)  # base
    assert f.value(g.edge_id(0, 3)) == F(1, 3)  # attachment legs
    assert f.value(g.edge_id(2, 3)) == F(1, 3)
    assert f.value(g.edge_id(0, 1)) == F(1, 3)  # adjacent non-base edges
    assert f.value(g.edge_id(1, 2)) == F(1, 3)
    assert f.total() == 2


def test_order3_chain_of_two_sharing_a_leg():
    # second triangle sees its first leg already charged and pushes 2/3
    # onto the adjacent non-base edge instead
    g = build_graph(
        6,
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (0, 5), (2, 5), (4, 5), (1, 3)],
    )
    s = structure_of(g, [g.triangle(0, 1, 2), g.triangle(2, 3, 4)])
    f = charge_order3(s)
    expected = {
        (0, 1): F(1, 3), (1, 2): F(1, 3), (0, 2): F(2, 3),
        (2, 3): F(2, 3), (3, 4): F(1, 3), (2, 4): F(2, 3),
        (0, 5): F(1, 3), (2, 5): F(1, 3), (4, 5): F(1, 3),
        (1, 3): F(0),
    }
    for (u, v), val in expected.items():
        assert f.value(g.edge_id(u, v)) == val, (u, v)
    assert verify_cover(g, f, 2).ok


def test_order3_isolated_triangle_like_order6():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    f = charge_order3(structure_of(g, [g.triangle(0, 1, 2)]))
    assert all(f.numerators[e] == 2 for e in range(3))
    assert f.total() == 2


def test_engines_reject_invalid_structure():
    g = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (1, 4), (2, 4)])
    s = structure_of(g, [g.triangle(0, 1, 2)])  # type-2 configuration
    for engine in (charge_order6, charge_order3, run_order2):
        with pytest.raises(InputError, match="structure has open violations"):
            engine(s)


def test_budget_coverage_integrality_on_random_graphs():
    rng = random.Random(5)
    for _ in range(30):
        g = gnp(rng.randint(5, 11), rng.choice([0.3, 0.5, 0.7]), rng.randint(0, 10**6))
        p = local_search_packing(g, rng.randint(0, 30), 5)
        s = build_structure(g, p)
        for engine, order in ((charge_order6, 6), (charge_order3, 3)):
            f = engine(s)
            report = verify_cover(g, f, len(p))
            assert report.ok, (engine.__name__, g.edges)
            assert all(0 <= v <= order for v in f.numerators.values())
            if order == 3:
                # every solution edge carries at least a third
                for psi in p.triangles:
                    assert all(f.value(e) >= F(1, 3) for e in psi.edge_ids)


def test_per_triangle_ledger_totals():
    rng = random.Random(9)
    for _ in range(20):
        g = gnp(rng.randint(5, 10), 0.6, rng.randint(0, 10**6))
        p = local_search_packing(g, rng.randint(0, 30), 5)
        s = build_structure(g, p)
        f3 = charge_order3(s)
        assert charge_order6(s).per_triangle == f3.per_triangle
        for psi, spent in f3.per_triangle.items():
            info = s.info[psi]
            if info.type == 1 and len(info.cl_sin) > 1:
                assert spent == F(5, 3)
            else:
                assert spent == 2


def test_verify_cover_flags_failures():
    g = complete_graph(4)
    f = charge_order6(structure_of(g, [g.triangle(0, 1, 2)]))
    broken = ChargeAssignment(6, dict(f.numerators))
    broken.numerators[0] = 0
    report = verify_cover(g, broken, 1)
    assert not report.covered and report.failing
    over = ChargeAssignment(6, {e: 13 for e in range(6)})
    report = verify_cover(g, over, 1)
    assert not report.budget_ok and not report.integrality_ok


def test_ledger_caps_each_edge_at_weight_one():
    # an edge at weight one covers every triangle through it alone, so the
    # read-out caps it there: the same triangles stay covered, the total
    # falls, and per_triangle keeps what each triangle placed
    g = complete_graph(4)
    psi = g.triangle(0, 1, 2)
    a, b, _ = psi.edge_ids
    led = Ledger(2)
    for e in (a, a, a, b):
        led.give(psi, e, 1)
    f = led.to_assignment()
    assert f.numerators == {a: 2, b: 1} and led.numerators == {a: 3, b: 1}
    assert f.per_triangle == {psi: 2} and f.total() == F(3, 2)
    booked = ChargeAssignment(2, dict(led.numerators))
    assert charges.uncovered_triangles(g, f) == charges.uncovered_triangles(g, booked)
    report = verify_cover(g, f, 1)
    assert report.integrality_ok and report.budget_ok and not report.covered


def test_spare_thirds_outside_a_k5_graph(monkeypatch):
    # the pair rule fires on gnp(15, 0.3, 970918) at default settings, not
    # on K5 alone; the two type-1 triangles with several attachments span
    # a K5, and their spare thirds lift (1, 3) and (1, 10), the first
    # triangle's sides at the shared vertex 1, from 1/3 to 2/3
    g = gnp(15, 0.3, 970918)
    r = cover(g, 3, seed=0)
    assert r.repairs == 0 and r.report.ok
    assert r.assignment.total() == 2 * len(r.packing) == 16
    s = build_structure(g, r.packing)
    multi = [psi for psi, i in s.info.items() if i.type == 1 and len(i.cl_sin) > 1]
    assert [psi.vertices for psi in multi] == [(1, 3, 10), (1, 8, 11)]
    k5 = {v for psi in multi for v in psi.vertices}
    assert all(g.has_edge(u, v) for u, v in combinations(k5, 2))
    monkeypatch.setattr(charges, "_spend_spare_thirds", lambda s, led: None)
    main = charge_order3(s).numerators
    moved = {
        g.edges[e]: (main.get(e, 0), k)
        for e, k in r.assignment.numerators.items()
        if main.get(e, 0) != k
    }
    assert moved == {(1, 3): (1, 2), (1, 10): (1, 2)}


def test_spare_thirds_stop_without_donors():
    # no type-1 triangle with several attachments, so no third to spare:
    # the pass places nothing, and the leftovers stay uncovered for
    # verify_cover to report
    g = complete_graph(4)
    s = structure_of(g, [g.triangle(0, 1, 2)])
    led = Ledger(3)
    e01 = g.edge_id(0, 1)
    led.give(s.packing.triangles[0], e01, 6)
    _spend_spare_thirds(s, led)
    assert led.numerators == {e01: 6}
    report = verify_cover(g, led.to_assignment(), 1)
    assert [t.vertices for t in report.failing] == [(0, 2, 3), (1, 2, 3)]


def test_spare_thirds_k5_pair_takes_the_first_side_on_a_tie():
    # the four bridges 0-u-w of K5 all sit at 2/3 and fill the 2 x 2 grid;
    # on the tie the first triangle's sides at 0 get a third each, and
    # each triangle pays one, spending its two credits
    g = complete_graph(5)
    s = structure_of(g, [g.triangle(0, 1, 2), g.triangle(0, 3, 4)])
    assert s.violations == ()
    f = charge_order3(s)
    assert {g.edges[e]: v for e, v in f.numerators.items()} == {
        (0, 1): 2, (0, 2): 2, (1, 2): 3, (0, 3): 1, (0, 4): 1, (3, 4): 3,
    }
    assert set(f.per_triangle.values()) == {2} and f.total() == 4
    assert verify_cover(g, f, 2).ok


def test_spare_thirds_take_the_side_with_fewer_edges():
    # (2, 3, 5) and (2, 6, 7) meet at 2, and the short bridges 2-3-6 and
    # 2-3-7 need one edge on the first side, 2-3, against two on the
    # second; the first triangle pays for it and the second keeps 5/3
    edges = [(2, 3), (0, 4), (1, 4), (2, 5), (3, 5), (4, 5), (1, 6), (2, 6), (3, 6),
             (4, 6), (5, 6), (0, 7), (2, 7), (3, 7), (4, 7), (5, 7), (6, 7)]
    g = build_graph(8, edges)
    packed = [(0, 4, 7), (1, 4, 6), (2, 3, 5), (2, 6, 7)]
    s = structure_of(g, [g.triangle(*t) for t in packed])
    assert s.violations == ()
    f = charge_order3(s)
    assert f.value(g.edge_id(2, 3)) == F(2, 3)
    assert {t.vertices: v for t, v in f.per_triangle.items()} == {
        (0, 4, 7): 2, (1, 4, 6): 2, (2, 3, 5): 2, (2, 6, 7): F(5, 3),
    }
    assert verify_cover(g, f, 4).ok


def test_spare_thirds_skip_a_pair_with_a_paid_triangle():
    # four triangles with several attachments meet in four pairs; (5, 6,
    # 8) pays for its pair at 8 and (1, 3, 5) for its pair at 3, so their
    # own pair at 5 comes after both paid and is skipped; no triangle
    # spends over two credits, and the covers verify at every order
    g = gnp(11, 0.7, 391863)
    packed = [(0, 1, 4), (0, 2, 9), (0, 7, 8), (1, 3, 5), (2, 4, 6), (2, 8, 10),
              (3, 4, 8), (3, 7, 10), (4, 7, 9), (5, 6, 8), (6, 9, 10)]
    s = structure_of(g, [g.triangle(*t) for t in packed])
    assert s.violations == ()
    multi = [psi.vertices for psi, i in s.info.items() if i.type == 1 and len(i.cl_sin) > 1]
    assert multi == [(0, 7, 8), (1, 3, 5), (3, 7, 10), (5, 6, 8)]
    f3 = charge_order3(s)
    assert max(f3.per_triangle.values()) <= 2
    assert {t.vertices: v for t, v in f3.per_triangle.items() if v != 2} == {
        (0, 7, 8): F(5, 3), (3, 7, 10): F(5, 3),
    }
    for f in (run_order2(s)[0].assignment, f3, charge_order6(s)):
        assert verify_cover(g, f, len(s.packing)).ok, f.order


@settings(max_examples=100, deadline=None)
@given(
    st.integers(8, 11),
    st.floats(0.2, 0.8),
    st.integers(0, 10**6),
    st.sampled_from([1, 2, 3]),
    st.integers(0, 10**6),
    st.randoms(use_true_random=False),
)
def test_clean_packings_charge_and_verify(n, p, graph_seed, max_swap, seed, rng):
    # the sampled half of the census: packings of a weak local search, on
    # relabeled graphs, charge and verify at orders 2, 3 and 6 whenever
    # their structure is clean, and no packed triangle spends over two
    # credits
    g = relabeled(gnp(n, p, graph_seed), rng)
    packing = local_search_packing(g, seed, max_swap)
    s = build_structure(g, packing)
    if s.violations:
        return
    for f in (run_order2(s)[0].assignment, charge_order3(s), charge_order6(s)):
        assert verify_cover(g, f, len(packing)).ok, (f.order, g.edges)
        assert max(f.per_triangle.values(), default=0) <= 2
