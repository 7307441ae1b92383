"""Exact baselines, LP bound, rounding and order composition."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from tricover import (
    ChargeAssignment,
    build_graph,
    compose_order_k,
    enumerate_triangles,
    nu_exact,
    round_third_integral,
    tau_exact,
    tau_star_k_exact,
)
from tricover.errors import (
    InstanceTooLargeError,
    MissingInputError,
    NotACoverError,
    NotThirdIntegralError,
)
from tricover.generators import bowtie, complete_graph, gnp
from tricover.oracles import tau_star_lp_exact

F = Fraction


def test_nu_values():
    assert nu_exact(complete_graph(4)).value == 1
    assert nu_exact(complete_graph(6)).value == 4
    assert nu_exact(bowtie()).value == 2


def test_nu_witness_is_disjoint():
    res = nu_exact(complete_graph(6))
    edges = [e for t in res.witness for e in t.edge_ids]
    assert len(edges) == len(set(edges)) == 12


def test_tau_values():
    # complete-graph formula n(n-2)/4 at n = 4 and 6
    assert tau_exact(complete_graph(4)).value == 2
    assert tau_exact(complete_graph(6)).value == 6
    k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert tau_exact(k3).value == 1


def test_tau_witness_hits_everything():
    g = complete_graph(6)
    res = tau_exact(g)
    cover = set(res.witness)
    assert len(cover) == 6
    for t in enumerate_triangles(g):
        assert any(e in cover for e in t.edge_ids)


def test_tau_star_values():
    assert tau_star_k_exact(complete_graph(6), 2).value == 6
    assert tau_star_k_exact(complete_graph(6), 3).value == 5
    assert tau_star_k_exact(complete_graph(4), 2).value == 2


def test_tau_star_witness_is_feasible():
    g = complete_graph(6)
    res = tau_star_k_exact(g, 3)
    f = res.witness
    assert isinstance(f, ChargeAssignment) and f.order == 3
    assert f.total() == res.value
    for t in enumerate_triangles(g):
        assert f.triangle_value(t) >= 1


def test_tau_star_order_one_equals_tau():
    for seed in range(5):
        g = gnp(7, 0.5, seed)
        assert tau_star_k_exact(g, 1).value == tau_exact(g).value


def test_lp_bound_chain():
    # tau* <= tau*_k <= tau and nu <= tau <= 3 nu
    rng = random.Random(2)
    for _ in range(25):
        g = gnp(rng.randint(4, 10), rng.choice([0.3, 0.5, 0.7]), rng.randint(0, 10**6))
        lp = tau_star_lp_exact(g).value
        tau = tau_exact(g).value
        nu = nu_exact(g).value
        assert nu <= tau <= 3 * nu
        for k in (2, 3):
            tsk = tau_star_k_exact(g, k).value
            assert lp <= tsk <= tau


def test_lp_witness_is_exact_cover():
    g = complete_graph(6)
    res = tau_star_lp_exact(g)
    assert res.value == 5  # the all-1/3 assignment is optimal here
    assert sum(res.witness.values(), F(0)) == 5
    for t in enumerate_triangles(g):
        assert sum(res.witness.get(e, F(0)) for e in t.edge_ids) >= 1


def test_instance_cap():
    with pytest.raises(InstanceTooLargeError):
        nu_exact(complete_graph(12), cap=100)
    with pytest.raises(InstanceTooLargeError):
        tau_exact(complete_graph(12), cap=100)
    with pytest.raises(InstanceTooLargeError):
        tau_star_k_exact(complete_graph(12), 2, cap=100)


def test_round_third_integral_k6_all_thirds():
    g = complete_graph(6)
    f = ChargeAssignment(3, {e: 1 for e in range(g.m)})
    rounded = round_third_integral(g, f)
    assert tau_exact(g).value <= len(rounded) <= 7  # floor of 1.5 * 5
    covered = set(rounded)
    for t in enumerate_triangles(g):
        assert any(e in covered for e in t.edge_ids)


def test_round_already_integral_unchanged():
    g = complete_graph(4)
    cover = tau_exact(g).witness
    f = ChargeAssignment(3, {e: 3 for e in cover})
    assert round_third_integral(g, f) == sorted(cover)


def test_round_all_two_thirds_keeps_support():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    f = ChargeAssignment(3, {0: 2, 1: 2, 2: 2})
    assert round_third_integral(g, f) == [0, 1, 2]


def test_round_rejects_non_cover():
    g = complete_graph(4)
    with pytest.raises(NotACoverError):
        round_third_integral(g, ChargeAssignment(3, {0: 1}))


def test_round_rejects_wrong_order():
    g = complete_graph(4)
    with pytest.raises(NotThirdIntegralError):
        round_third_integral(g, ChargeAssignment(2, {e: 1 for e in range(6)}))


def test_compose_even_k_preserves_values():
    f2 = ChargeAssignment(2, {0: 1, 1: 2, 2: 1})
    f4 = compose_order_k(f2, None, 4)
    assert f4.order == 4
    assert all(f4.value(e) == f2.value(e) for e in (0, 1, 2))
    assert f4.total() == f2.total()


def test_compose_k5_weighted_average():
    f2 = ChargeAssignment(2, {0: 2, 1: 1})
    f3 = ChargeAssignment(3, {1: 3, 2: 1})
    f5 = compose_order_k(f2, f3, 5)
    assert f5.order == 5
    assert f5.value(0) == F(2, 5)
    assert f5.value(1) == F(1 + 3, 5)
    assert f5.value(2) == F(1, 5)


def test_compose_k2_and_k3_pass_through():
    f2 = ChargeAssignment(2, {0: 1})
    f3 = ChargeAssignment(3, {0: 2})
    assert compose_order_k(f2, None, 2).numerators == f2.numerators
    assert compose_order_k(None, f3, 3).numerators == f3.numerators


def test_compose_missing_inputs():
    with pytest.raises(MissingInputError):
        compose_order_k(None, None, 2)
    with pytest.raises(MissingInputError):
        compose_order_k(ChargeAssignment(2, {}), None, 5)
    with pytest.raises(MissingInputError):
        compose_order_k(None, ChargeAssignment(3, {}), 4)


def test_witness_checks_raise_under_optimize_flag():
    # python -O strips asserts; these checks must still fire there
    script = textwrap.dedent(
        """
        from fractions import Fraction
        import tricover.oracles as o
        from tricover import ChargeAssignment
        from tricover.errors import NotACoverError
        from tricover.generators import complete_graph

        solve = o._simplex_min

        def misplaced(rows, cost, basis):
            # the LP value, all of it on edge 0: right total, not a cover
            value, z = solve(rows, cost, basis)
            z = [Fraction(0)] * len(z)
            z[len(cost) - len(rows)] = -value
            return value, z

        def inflated(rows, cost, basis):
            value, z = solve(rows, cost, basis)
            return value, [2 * v for v in z]

        for corrupt, expected in ((misplaced, NotACoverError), (inflated, ArithmeticError)):
            o._simplex_min = corrupt
            try:
                o.tau_star_lp_exact(complete_graph(4))
            except expected:
                print(expected.__name__)
        o._simplex_min = solve

        o._greedy_max_cut = lambda n, edges: [0] * n
        try:
            o.round_third_integral(complete_graph(4), ChargeAssignment(3, {e: 1 for e in range(6)}))
        except AssertionError:
            print("AssertionError")
        """
    )
    src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["NotACoverError", "ArithmeticError", "AssertionError"]
