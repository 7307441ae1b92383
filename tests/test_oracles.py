"""Exact baselines, LP bound, rounding and cover's order composition."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tricover import (
    ChargeAssignment,
    build_graph,
    build_structure,
    cover,
    enumerate_triangles,
    nu_exact,
    round_third_integral,
    tau_exact,
    tau_star_k_exact,
    verify_cover,
)
from tricover.errors import (
    BadParamsError,
    InstanceTooLargeError,
    NotACoverError,
    NotThirdIntegralError,
)
from tricover import oracles
from tricover.generators import bowtie, complete_graph, glued_k4, gnp, lend_chain
from tricover.oracles import tau_star_lp_exact

from test_acceptance import random_instances

F = Fraction


def test_nu_values():
    assert nu_exact(complete_graph(4)).value == 1
    assert nu_exact(complete_graph(6)).value == 4
    assert nu_exact(bowtie()).value == 2


def test_nu_stops_at_the_degree_bound():
    # K10 meets its degree bound of 13; without the stop the search
    # proves 13 maximal over 5,493,151 nodes
    res = nu_exact(complete_graph(10))
    assert res.value == 13 and res.nodes_explored <= 1000


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
        assert sum(f.value(e) for e in t.edge_ids) >= 1


def test_tau_star_order_one_equals_tau():
    for seed in range(5):
        g = gnp(7, 0.5, seed)
        assert tau_star_k_exact(g, 1).value == tau_exact(g).value


def _reference_tau_exact(g, cap=oracles.DEFAULT_TRIANGLE_CAP):
    """Minimum edge set meeting every triangle, exactly.

    Branches on the three edges of an uncovered triangle; previously
    tried edges of the same triangle are banned in later branches so each
    cover is enumerated once.
    """
    tris = oracles._triangles_capped(g, cap)
    nodes = 0

    # greedy incumbent: repeatedly take the edge in most uncovered triangles
    cover: set[int] = set()
    uncovered = list(tris)
    while uncovered:
        counts: dict[int, int] = {}
        for t in uncovered:
            for e in t.edge_ids:
                counts[e] = counts.get(e, 0) + 1
        e_best = max(sorted(counts), key=lambda e: counts[e])
        cover.add(e_best)
        uncovered = [t for t in uncovered if e_best not in t.edge_ids]
    best: set[int] = set(cover)

    def lower_bound(covered_by: set[int], banned: frozenset[int]) -> int | None:
        """Greedy edge-disjoint uncovered triangles; None if infeasible."""
        used: set[int] = set()
        count = 0
        for t in tris:
            if any(e in covered_by for e in t.edge_ids):
                continue
            if all(e in banned for e in t.edge_ids):
                return None
            if not any(e in used for e in t.edge_ids):
                used.update(t.edge_ids)
                count += 1
        return count

    def dfs(cover_now: set[int], banned: frozenset[int]) -> None:
        nonlocal nodes, best
        nodes += 1
        lb = lower_bound(cover_now, banned)
        if lb is None or len(cover_now) + lb >= len(best):
            return
        target = next(
            (t for t in tris if not any(e in cover_now for e in t.edge_ids)), None
        )
        if target is None:
            best = set(cover_now)
            return
        tried: set[int] = set()
        for e in target.edge_ids:
            if e in banned:
                continue
            dfs(cover_now | {e}, banned | frozenset(tried))
            tried.add(e)

    dfs(set(), frozenset())
    return oracles.OracleResult(Fraction(len(best)), sorted(best), nodes)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(4, 11),
    density=st.sampled_from([0.3, 0.5, 0.7]),
    seed=st.integers(0, 10**6),
)
def test_tau_matches_reference(n, density, seed):
    # tau is tau*_1; the set-based search it replaced is kept above
    g = gnp(n, density, seed)
    res = tau_exact(g)
    assert res.value == _reference_tau_exact(g).value
    hit = set(res.witness)
    assert res.witness == sorted(hit) and len(hit) == res.value
    assert all(hit.intersection(t.edge_ids) for t in enumerate_triangles(g))


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
    assert res.nodes_explored == 20  # Dantzig pivots; Bland's rule takes 28
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


COMPOSE_GRAPHS = (complete_graph(6), lend_chain(3), gnp(11, 0.5, 2), gnp(12, 0.5, 150))


def test_compose_even_k_preserves_values():
    # an even order takes order//2 copies of the order-2 cover
    for g in COMPOSE_GRAPHS:
        f2 = cover(g, 2).assignment
        for k in (4, 8, 12):
            fk = cover(g, k)
            assert fk.report.ok and fk.assignment.order == k
            assert fk.assignment.numerators == {e: k // 2 * v for e, v in f2.numerators.items()}
            assert all(fk.assignment.value(e) == f2.value(e) for e in range(g.m))
            assert fk.assignment.total() == f2.total()


def test_compose_k5_weighted_average():
    # an odd order takes one order-2 copy fewer plus the order-3 cover
    for g in COMPOSE_GRAPHS:
        f2 = cover(g, 2).assignment.numerators
        f3 = cover(g, 3).assignment.numerators
        for k in (5, 7):
            q = k // 2 - 1
            fk = cover(g, k)
            assert fk.report.ok and fk.assignment.order == k
            for e in range(g.m):
                want = F(q * f2.get(e, 0) + f3.get(e, 0), k)
                assert fk.assignment.value(e) == want


def test_compose_k2_and_k3_pass_through():
    # orders 2 and 3 are their own engine's read-out on the cover's packing
    from tricover.charges import charge_order3
    from tricover.order2 import run_order2

    for g in COMPOSE_GRAPHS:
        r2, r3 = cover(g, 2), cover(g, 3)
        engine2 = run_order2(build_structure(g, r2.packing))[0].assignment
        assert r2.assignment.numerators == engine2.numerators
        assert r3.assignment.numerators == charge_order3(build_structure(g, r3.packing)).numerators


def test_compose_missing_inputs():
    # below order 2 there is no cover to compose from
    for k in (-1, 0, 1):
        with pytest.raises(BadParamsError):
            cover(complete_graph(4), k)


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
            value, z, pivots = solve(rows, cost, basis)
            z = [Fraction(0)] * len(z)
            z[len(cost) - len(rows)] = -value
            return value, z, pivots

        def inflated(rows, cost, basis):
            value, z, pivots = solve(rows, cost, basis)
            return value, [2 * v for v in z], pivots

        def overpacked(rows, cost, basis):
            # one basic triangle's value raised by one: the tableau's
            # packing overloads its edges and misses the value
            value, z, pivots = solve(rows, cost, basis)
            i = next(i for i, b in enumerate(basis) if b < len(cost) - len(rows))
            rows[i][-1] += rows[i][basis[i]]
            return value, z, pivots

        for corrupt, expected in (
            (misplaced, NotACoverError),
            (inflated, ArithmeticError),
            (overpacked, ArithmeticError),
        ):
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
    assert out.stdout.split() == [
        "NotACoverError", "ArithmeticError", "ArithmeticError", "AssertionError"
    ]


def _reference_simplex_min(
    rows: list[list[Fraction]], cost: list[Fraction], basis: list[int]
) -> tuple[Fraction, list[Fraction]]:
    """Tableau simplex for min c.x, rows = [A | b], x >= 0.

    The entering column has the most negative reduced cost, ties to the
    lowest column, except after ``oracles._DEGENERATE_RUN`` degenerate
    pivots in a row (leaving row with b = 0), when it is the first
    negative column (Bland) until the next non-degenerate pivot.  The
    caller supplies a feasible starting basis (slack columns).
    Returns the optimal objective value and the final reduced-cost row.
    """
    m = len(rows)
    ncols = len(rows[0]) - 1
    # reduced cost row for the starting basis (slack costs are zero)
    z = cost[:] + [Fraction(0)]
    for i, bi in enumerate(basis):
        if cost[bi]:
            f = cost[bi]
            z = [zj - f * aj for zj, aj in zip(z, rows[i] + [Fraction(0)])]
    degenerate = 0
    while True:
        negative = [j for j in range(ncols) if z[j] < 0]
        if not negative:
            break
        if degenerate < oracles._DEGENERATE_RUN:
            enter = min(negative, key=lambda j: (z[j], j))
        else:
            enter = negative[0]
        leave, best_ratio = None, None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][-1] / rows[i][enter]
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[leave]
                ):
                    leave, best_ratio = i, ratio
        if leave is None:
            raise ArithmeticError("unbounded LP")
        degenerate = degenerate + 1 if rows[leave][-1] == 0 else 0
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter]:
                f = rows[i][enter]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[leave])]
        if z[enter]:
            f = z[enter]
            z = [a - f * b for a, b in zip(z, rows[leave] + [Fraction(0)])]
        basis[leave] = enter
    value = sum(cost[basis[i]] * rows[i][-1] for i in range(m))
    return value, z


def _check_simplex_against_reference(g):
    """Solve the LP that tau_star_lp_exact builds both ways: the integer
    simplex must reach the same value, reduced costs and final basis."""
    seen = []
    solve = oracles._simplex_min

    def both(rows, cost, basis):
        ref_basis = basis[:]
        ref = _reference_simplex_min(
            [[F(v) for v in row] for row in rows], [F(c) for c in cost], ref_basis
        )
        value, z, pivots = solve(rows, cost, basis)
        assert (value, z, basis) == (ref[0], ref[1], ref_basis)
        nv = len(cost) - len(rows)
        assert pivots >= sum(1 for b in basis if b < nv)
        seen.append(pivots)
        return value, z, pivots

    with mock.patch.object(oracles, "_simplex_min", both):
        res = tau_star_lp_exact(g)
    assert seen == ([res.nodes_explored] if enumerate_triangles(g) else [])


@pytest.mark.parametrize(
    "g",
    [complete_graph(n) for n in range(4, 9)] + [glued_k4(length) for length in range(1, 5)],
)
def test_simplex_matches_reference_on_fixed_graphs(g):
    _check_simplex_against_reference(g)


@pytest.mark.parametrize("run", [0, 1])
@pytest.mark.parametrize(
    "g", [complete_graph(n) for n in range(5, 9)] + [gnp(9, 0.7, 1026)]
)
def test_simplex_matches_reference_with_bland_fallback(g, run, monkeypatch):
    # no LP of the other tests has 50 degenerate pivots in a row, so the
    # Bland fallback runs only with the limit lowered: at 0 every column
    # enters by Bland's rule, at 1 the rule switches after each
    # degenerate pivot and back after each non-degenerate one
    monkeypatch.setattr(oracles, "_DEGENERATE_RUN", run)
    _check_simplex_against_reference(g)


def test_pivot_counts_of_the_three_entering_rules(monkeypatch):
    # K6: Bland's rule alone takes 28 pivots, switching after every
    # degenerate pivot 23, and Dantzig's rule 20
    counts = []
    for run in (0, 1, oracles._DEGENERATE_RUN):
        monkeypatch.setattr(oracles, "_DEGENERATE_RUN", run)
        counts.append(tau_star_lp_exact(complete_graph(6)).nodes_explored)
    assert counts == [28, 23, 20]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(4, 11),
    density=st.sampled_from([0.3, 0.5, 0.7]),
    seed=st.integers(0, 10**6),
)
def test_simplex_matches_reference(n, density, seed):
    _check_simplex_against_reference(gnp(n, density, seed))


def test_lp_sandwich_digest():
    # sha256 of repr([(value, sorted(witness.items()))]) of tau_star_lp_exact
    # over the criterion-5 graphs, computed when Dantzig's rule replaced
    # Bland's: the values are those of the value digest below, and the
    # witness of graph 26, gnp(9, 0.7, 1026), is another optimal cover
    results = [tau_star_lp_exact(g) for g in random_instances(200)]
    digest = hashlib.sha256(
        repr([(r.value, sorted(r.witness.items())) for r in results]).encode()
    ).hexdigest()
    assert digest == "e07b52e0c5a2f11e90c9eee17f44a4af3f1a25c50eebbef14ce4db20822726c2"


def test_lp_value_digest():
    # sha256 of repr([value]) of tau_star_lp_exact over the criterion-5
    # graphs, computed under Bland's rule: the LP optimum is unique, so it
    # holds for any pivot rule
    values = [tau_star_lp_exact(g).value for g in random_instances(200)]
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == "d30c95b3c34bea56a9fffb1b2511d1f9b814f49cf5385f254399a3f3f4b3ce56"


def test_lp_pivots_scale_on_gnp_20():
    # 156 triangles: Dantzig's rule takes 216 pivots, Bland's 1561, so a
    # silent fall back to Bland shows here
    res = tau_star_lp_exact(gnp(20, 0.5, 1))
    assert (res.value, res.nodes_explored) == (F(91, 3), 216)


def test_tau_star_k_solves_the_lp_once_per_graph(monkeypatch):
    solves = []
    solve = oracles.tau_star_lp_exact

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        solves.append(res)
        return res

    monkeypatch.setattr(oracles, "tau_star_lp_exact", counted)
    g = gnp(9, 0.5, 1004)
    values = [tau_star_k_exact(g, k).value for k in (2, 3, 6)]
    assert len(solves) == 1
    fresh = build_graph(g.n, g.edges)
    assert values == [tau_star_k_exact(fresh, k).value for k in (2, 3, 6)]
    assert len(solves) == 2
    # the public LP oracle is not memoized: a fresh result on every call
    a, b = oracles.tau_star_lp_exact(g), oracles.tau_star_lp_exact(g)
    assert a is not b and a.witness is not b.witness and a.value == b.value
    assert len(solves) == 4


def test_nu_sandwich_digest():
    # sha256 of repr([(value, [t.vertices for t in witness])]) of nu_exact over
    # the criterion-5 graphs (the benchmark's sandwich_specs()), computed on
    # the commit before the edge-count bound in nu_exact
    results = [nu_exact(g) for g in random_instances(200)]
    digest = hashlib.sha256(
        repr([(r.value, [t.vertices for t in r.witness]) for r in results]).encode()
    ).hexdigest()
    assert digest == "59319459aa1445599dd6584a1b0cdf9eba41d98508c694d9750f3119ffa48360"


def test_tau_sandwich_digest():
    # sha256 of repr([value]) of tau_exact over the criterion-5 graphs,
    # computed on the commit before tau became tau*_1
    values = [tau_exact(g).value for g in random_instances(200)]
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == "029d0cceeb01bfcc402da456293eaf8f4415c874d3cc230f96a0092269532775"


def test_tau_star_k_sandwich_digest():
    # sha256 of repr([(value, nodes_explored)]) of tau_star_k_exact at
    # k = 2, 3, 6 over the criterion-5 graphs, computed on the commit
    # before tau became tau*_1: the incumbent for k > 1 is still an
    # optimal integral cover, so the searches are unchanged
    results = [
        (r.value, r.nodes_explored)
        for g in random_instances(200)
        for k in (2, 3, 6)
        for r in [tau_star_k_exact(g, k)]
    ]
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "a65d76b835b26515bbd62d20e09d0110e66dcabd48e8da670a5a04d7660958ea"


def test_tau_star_k_witness_digest():
    # sha256 of repr([(k, value, nodes_explored, sorted witness numerators)])
    # of tau_star_k_exact at k = 1, 2, 3, 6 over the criterion-5 graphs,
    # computed when Dantzig's rule replaced Bland's in the LP: only graph
    # 26 moved, whose LP cover, integral at value 9, solves every k at the
    # root and is now another optimal cover
    rows = [
        (k, r.value, r.nodes_explored, sorted(r.witness.numerators.items()))
        for g in random_instances(200)
        for k in (1, 2, 3, 6)
        for r in [tau_star_k_exact(g, k)]
    ]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "17b7fc86e855814f5b6459be4602363e0c538a1e1904763b788f4248e0263c8c"


def test_tau_star_k_complete_graph_7():
    # one search deep enough to pin on its own (same commit as above)
    res = tau_star_k_exact(complete_graph(7), 2)
    assert (res.value, res.nodes_explored) == (9, 4996)


def _exhaustive_tau_star_k(g, k):
    """tau*_k as the least sum(y) / k over every y in {0..k}^E on the
    edges that lie in a triangle, among those giving each triangle at
    least k units."""
    tris = [t.edge_ids for t in enumerate_triangles(g)]
    edges = sorted({e for es in tris for e in es})
    pos = {e: i for i, e in enumerate(edges)}
    local = [tuple(pos[e] for e in es) for es in tris]
    best = min(
        sum(y)
        for y in itertools.product(range(k + 1), repeat=len(edges))
        if all(y[a] + y[b] + y[c] >= k for a, b, c in local)
    )
    return F(best, k)


def _check_against_exhaustive(g, k):
    expected = _exhaustive_tau_star_k(g, k)
    nu = int(nu_exact(g).value)
    real = tau_star_k_exact(g, k)
    # a zero LP bound whose witness is not (1/k)-integral: the root is not
    # settled by the LP, so the branch-and-bound itself is checked too
    weak = oracles.OracleResult(F(0), {0: F(1, 5)}, 0)
    with mock.patch.object(oracles, "tau_star_lp_exact", lambda h, cap: weak):
        searched = tau_star_k_exact(build_graph(g.n, g.edges), k)
    for res in (real, searched):
        assert res.value == expected
        assert res.witness.order == k and res.witness.total() == res.value
        assert verify_cover(g, res.witness, nu).ok
    return real


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(4, 7),
    density=st.sampled_from([0.5, 0.7]),
    seed=st.integers(0, 10**6),
    k=st.sampled_from([2, 3]),
)
def test_tau_star_k_matches_exhaustive_search(n, density, seed, k):
    g = gnp(n, density, seed)
    assume(len({e for t in enumerate_triangles(g) for e in t.edge_ids}) <= 7)
    _check_against_exhaustive(g, k)


def test_tau_star_k_matches_exhaustive_search_on_k5():
    # the LP root does not settle K5 at k = 2, so the search branches
    assert _check_against_exhaustive(complete_graph(5), 2).nodes_explored > 1
