"""Exact baselines, LP bound and cover's order composition."""

import dataclasses
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from types import SimpleNamespace
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
    tau_exact,
    tau_star_k_exact,
    verify_cover,
)
from tricover.errors import BadParamsError, InstanceTooLargeError
from tricover import oracles
from tricover.generators import bowtie, complete_graph, glued_k4, gnp, lend_chain
from tricover.oracles import tau_star_lp_exact
from tricover.packing import greedy_packing

from test_acceptance import random_instances
from test_census import small_graphs
from test_packing import _relabeled

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


def test_nu_stops_at_the_parity_bound():
    # K11 has 55 edges and every degree even, so at least 4 edges stay
    # unpacked: the bound is 17 = ν, where the degree bound alone is 18
    # and the search proved 17 maximal over 9,977,811 nodes
    res = nu_exact(complete_graph(11))
    assert res.value == 17 and res.nodes_explored <= 1000


@pytest.mark.parametrize("length, relabel", [(2, None), (4, None), (10, None), (12, 1)])
def test_nu_stops_at_the_block_bound(length, relabel):
    # a lend chain's K4-block bound is its ν of length + 1, well below its
    # degree bound; with the degree bound alone the search took 575,253
    # nodes on lend_chain(10) and about 6 million on lend_chain(12)
    g = lend_chain(length) if relabel is None else _relabeled(lend_chain(length), relabel)
    res = nu_exact(g)
    assert res.value == length + 1 and res.nodes_explored <= 30


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


def _weights(f):
    """An LP witness as sorted (edge, Fraction weight) pairs, the form
    the LP digests were recorded in."""
    return sorted((e, F(v, f.order)) for e, v in f.numerators.items())


def test_lp_witness_is_exact_cover():
    g = complete_graph(6)
    res = tau_star_lp_exact(g)
    assert res.value == 5  # the all-1/3 assignment is optimal here
    # Dantzig pivots after the greedy packing's crash, 20 from the
    # all-slack basis; Bland's rule takes 26 (28 from the all-slack basis)
    assert res.nodes_explored == 18
    assert res.witness.total() == 5
    for t in enumerate_triangles(g):
        assert sum(res.witness.value(e) for e in t.edge_ids) >= 1


def test_instance_cap():
    with pytest.raises(InstanceTooLargeError):
        nu_exact(complete_graph(12), cap=100)
    with pytest.raises(InstanceTooLargeError):
        tau_exact(complete_graph(12), cap=100)
    with pytest.raises(InstanceTooLargeError):
        tau_star_k_exact(complete_graph(12), 2, cap=100)


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
        from tricover.errors import NotACoverError
        from tricover.generators import complete_graph

        solve = o._simplex_min

        def misplaced(rows, masks, z, basis, cols, start):
            # the LP value, all of it on one edge: right total, not a cover
            nv = len(cols)
            d, z, x, pivots = solve(rows, masks, z, basis, cols, start)
            j = next(j for j, c in enumerate(cols) if c >= nv)
            z = [0] * len(cols) + [z[-1]]
            z[j] = z[-1]
            return d, z, x, pivots

        def inflated(rows, masks, z, basis, cols, start):
            # every reduced cost doubled, the value kept
            d, z, x, pivots = solve(rows, masks, z, basis, cols, start)
            return d, [2 * v for v in z[:-1]] + [z[-1]], x, pivots

        def overpacked(rows, masks, z, basis, cols, start):
            # one basic triangle's value raised by one: the tableau's
            # packing overloads its edges and misses the value
            nv = len(cols)
            d, z, x, pivots = solve(rows, masks, z, basis, cols, start)
            i = next(i for i, b in enumerate(basis) if b < nv)
            x[i] += d
            return d, z, x, pivots

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
        """
    )
    src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["NotACoverError", "ArithmeticError", "ArithmeticError"]


def _reference_simplex_min(
    rows: list[list[Fraction]],
    cost: list[Fraction],
    basis: list[int],
    start: tuple[int, ...] | list[int] = (),
) -> tuple[Fraction, list[Fraction], int]:
    """Tableau simplex for min c.x, rows = [A | b], x >= 0.

    The columns of ``start`` enter first, in order.  Then the entering
    column has the most negative reduced cost, ties to the lowest
    column, except after ``oracles._DEGENERATE_RUN`` degenerate pivots
    in a row (leaving row with b = 0), when it is the first negative
    column (Bland) until the next non-degenerate pivot.  The caller
    supplies a feasible starting basis (slack columns).  Returns the
    optimal objective value, the final reduced-cost row and the number
    of pivots.
    """
    m = len(rows)
    ncols = len(rows[0]) - 1
    # reduced cost row for the starting basis (slack costs are zero)
    z = cost[:] + [Fraction(0)]
    for i, bi in enumerate(basis):
        if cost[bi]:
            f = cost[bi]
            z = [zj - f * aj for zj, aj in zip(z, rows[i] + [Fraction(0)])]
    degenerate = pivots = 0
    while True:
        negative = [j for j in range(ncols) if z[j] < 0]
        if pivots < len(start):
            enter = start[pivots]
        elif not negative:
            break
        elif degenerate < oracles._DEGENERATE_RUN:
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
        pivots += 1
    value = sum(cost[basis[i]] * rows[i][-1] for i in range(m))
    return value, z, pivots


def _expand(cols, basis, entries, last):
    """A condensed row (one entry per nonbasic column, then ``last``) as
    a full row over every variable id: 0 on the basic variables."""
    full = [0] * (len(cols) + len(basis)) + [last]
    for c, v in zip(cols, entries):
        full[c] = v
    return full


def _unpacked(row, nv):
    """The nv + 1 entries of a packed starting row (or cost row)."""
    w = oracles._LANE
    return list(oracles._lanes(row, w, oracles._bias(w, nv + 1)))


def _check_simplex_against_reference(g):
    """Solve the LP that tau_star_lp_exact builds both ways: the integer
    simplex on the condensed packed tableau, its starting rows decoded
    and expanded to every variable, must reach the same value, reduced
    costs, final basis and pivot count as the reference on the full
    tableau; each starting mask is its row's support."""
    seen = []
    solve = oracles._simplex_min

    def both(rows, masks, z, basis, cols, start):
        nv = len(cols)
        unpacked = [_unpacked(row, nv) for row in rows]
        assert masks == [sum(1 << j for j, v in enumerate(row[:-1]) if v) for row in unpacked]
        full = [_expand(cols, basis, row, row[-1]) for row in unpacked]
        for i, b in enumerate(basis):
            full[i][b] = 1
        ref_basis = basis[:]
        ref = _reference_simplex_min(
            [[F(v) for v in row] for row in full],
            [F(c) for c in _expand(cols, basis, _unpacked(z, nv), 0)[:-1]],
            ref_basis,
            [cols[j] for j in start],
        )
        d, z, x, pivots = solve(rows, masks, z, basis, cols, start)
        value = -sum(F(xi, d) for b, xi in zip(basis, x) if b < nv)
        full_z = [F(v, d) for v in _expand(cols, basis, z, z[-1])]
        assert (value, full_z, basis) == (ref[0], ref[1], ref_basis)
        assert pivots == ref[2]
        assert pivots >= sum(1 for b in basis if b < nv)
        seen.append(pivots)
        return d, z, x, pivots

    with mock.patch.object(oracles, "_simplex_min", both):
        res = tau_star_lp_exact(g)
    assert seen == ([res.nodes_explored] if enumerate_triangles(g) else [])


def test_lp_drops_the_rows_of_triangle_free_edges():
    # K4 on 0-3 and a triangle 4-5-6 sharing no edge with it, plus a
    # pendant edge, and an edge and a 4-edge path between the two (6 of
    # 15 edges in no triangle, their ids among the others): the witness
    # puts nothing on those edges, and the value and pivots are those of
    # the reference simplex on the full LP, a row and a slack per edge
    edges = [(0, 10), (0, 1), (0, 2), (3, 4), (0, 3), (1, 2), (6, 7), (1, 3)]
    edges += [(2, 3), (7, 8), (4, 5), (8, 9), (4, 6), (2, 9), (5, 6)]
    g = build_graph(11, edges)
    tris = enumerate_triangles(g)
    in_triangle = {e for t in tris for e in t.edge_ids}
    assert len(in_triangle) == 9 and g.m == 15
    res = tau_star_lp_exact(g)
    assert set(res.witness.numerators) <= in_triangle
    nv, m = len(tris), g.m
    rows = [[F(0)] * (nv + m) + [F(1)] for _ in range(m)]
    for j, t in enumerate(tris):
        for e in t.edge_ids:
            rows[e][j] = F(1)
    for e in range(m):
        rows[e][nv + e] = F(1)
    value, z, pivots = _reference_simplex_min(
        rows, [F(-1)] * nv + [F(0)] * m, list(range(nv, nv + m))
    )
    assert (res.value, res.nodes_explored) == (-value, pivots)
    assert res.value == 3
    assert _weights(res.witness) == [(e, v) for e, v in enumerate(z[nv:-1]) if v]
    _check_simplex_against_reference(g)


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
    # K6, after the crash pivots of its greedy packing: Bland's rule alone
    # takes 26 pivots, switching after every degenerate pivot 25, and
    # Dantzig's rule 18 (28, 23 and 20 from the all-slack basis)
    counts = []
    for run in (0, 1, oracles._DEGENERATE_RUN):
        monkeypatch.setattr(oracles, "_DEGENERATE_RUN", run)
        counts.append(tau_star_lp_exact(complete_graph(6)).nodes_explored)
    assert counts == [26, 25, 18]


@pytest.mark.parametrize(
    "g", [complete_graph(6), glued_k4(3), gnp(9, 0.7, 1110), gnp(20, 0.5, 1)]
)
def test_crash_enters_the_greedy_packing_first(g):
    # the simplex enters the triangles of greedy_packing(g) first; they
    # are edge-disjoint, so each finds its column and rows as the start
    # left them and pivots on p = 1 in a row with b = 1, keeping d = 1
    tris = enumerate_triangles(g)
    calls = []
    solve = oracles._simplex_min

    def recording(rows, masks, z, basis, cols, start):
        calls.append((rows[:], masks[:], basis[:], cols[:], start))
        return solve(rows, masks, z, basis, cols, start)

    with mock.patch.object(oracles, "_simplex_min", recording):
        tau_star_lp_exact(g)
    [(rows, masks, basis, cols, start)] = calls
    assert [tris[j] for j in start] == list(greedy_packing(g).triangles)
    # the crash pivots alone: with cost -1 on the first i crash triangles
    # and 0 elsewhere, the simplex stops once it has entered them, each
    # basic at b = 1, at scale d = 1
    for i in range(len(start) + 1):
        cost = [-(j in start[:i]) for j in cols] + [0]
        out_basis = basis[:]
        d, _, x, pivots = solve(
            rows[:], masks[:], oracles._pack(cost, oracles._LANE), out_basis, cols[:], start[:i]
        )
        assert (d, pivots) == (1, i)
        assert sorted(b for b, xi in zip(out_basis, x) if b < len(cols)) == sorted(start[:i])
        assert all(xi == 1 for b, xi in zip(out_basis, x) if b < len(cols))


def _disjoint_union(blocks):
    edges, offset = [], 0
    for b in blocks:
        edges += [(u + offset, v + offset) for u, v in b.edges]
        offset += b.n
    return build_graph(offset, edges)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(4, 11),
    density=st.sampled_from([0.3, 0.5, 0.7]),
    seed=st.integers(0, 10**6),
    blocks=st.one_of(
        st.just([]),
        st.lists(
            st.tuples(st.integers(3, 7), st.sampled_from([0.5, 0.7, None]), st.integers(0, 10**6)),
            min_size=2,
            max_size=5,
        ),
    ),
)
def test_simplex_matches_reference(n, density, seed, blocks):
    # either gnp(n, density, seed) or a disjoint union of 2 to 5 small
    # blocks, gnp or (None) complete: a block-structured LP, whose scales
    # multiply across blocks
    g = gnp(n, density, seed)
    if blocks:
        g = _disjoint_union(
            [complete_graph(min(k, 5)) if p is None else gnp(k, p, s) for k, p, s in blocks]
        )
    _check_simplex_against_reference(g)


@pytest.mark.parametrize("lane", [8, 16])
@pytest.mark.parametrize(
    "g",
    [complete_graph(n) for n in range(5, 9)]
    + [glued_k4(4), gnp(9, 0.7, 1026)]
    + [_disjoint_union([complete_graph(5)] * 3), _disjoint_union([complete_graph(4)] * 4)],
)
def test_simplex_matches_reference_with_narrow_lanes(g, lane, monkeypatch):
    # with lanes of 8 or 16 bits, the entries of these LPs outgrow what
    # Hadamard's bound covers and then their lanes: at 8 bits each one
    # bounds its rows, measures them and widens (K8 and the three K5s
    # twice, to 32 bits); at 16 bits all but K5 bound their rows, and K8
    # and the three K5s widen
    monkeypatch.setattr(oracles, "_LANE", lane)
    _check_simplex_against_reference(g)


@pytest.mark.parametrize("w", [8, 16, 64, 128])
def test_lanes_read_back_what_was_packed(w, monkeypatch):
    rng = random.Random(w)
    top = 2 ** (w - 1)
    entries = [-top, top - 1, 0, -1, 1] + [rng.randrange(-top, top) for _ in range(40)]
    row, bias = oracles._pack(entries, w), oracles._bias(w, 45)
    assert list(oracles._lanes(row, w, bias)) == entries
    # a big-endian machine reads 64-bit lanes the way it reads the others
    monkeypatch.setattr(oracles, "sys", SimpleNamespace(byteorder="big"))
    assert list(oracles._lanes(row, w, bias)) == entries


@pytest.mark.parametrize(
    "make, value, pivots, digest",
    [
        (
            lambda: _disjoint_union([complete_graph(6)] * 10),
            F(50),
            180,
            "07097352ba38d5381003b94f1261c656c2165e05e983cfa7afc2246270c2fa93",
        ),
        (
            lambda: _disjoint_union([complete_graph(5)] * 20),
            F(200, 3),
            200,
            "c5b70c323bd64d8cb8c1a04db611cf1b6e249c98ffbe9700989f62984a27e12c",
        ),
        (
            lambda: _disjoint_union([complete_graph(3)] * 200),
            F(200),
            200,
            "c265057f2b3c84bdf477fa5454116a02c3d34f31e8c56f5d186abc0c71668d13",
        ),
        (
            lambda: glued_k4(40),
            F(80),
            160,
            "397f2e7e64c5fbe82fea15895aede7fff2c77be99902d57e47191231da98654b",
        ),
    ],
    ids=["10 K6", "20 K5", "200 K3", "glued_k4(40)"],
)
def test_lp_pins_block_structured_shapes(make, value, pivots, digest):
    # value, sha256 of repr(sorted(witness.items())) and pivots, recorded
    # on the unpacked tableau (the greedy packing's crash basis kept each
    # witness and cut the pivots of the K6s from 200 and of the K5s from
    # 220): the K6s and the K5s outgrow 64-bit lanes (their entries reach
    # 72 and 118 bits), the triangles and glued_k4(40) keep sparse rows
    res = tau_star_lp_exact(make())
    witness = hashlib.sha256(repr(_weights(res.witness)).encode()).hexdigest()
    assert (res.value, res.nodes_explored, witness) == (value, pivots, digest)


def test_lp_sandwich_digest():
    # sha256 of repr([(value, sorted(witness.items()))]) of tau_star_lp_exact
    # over the criterion-5 graphs, recorded when the simplex began at the
    # greedy packing's basis: the values are those of the value digest
    # below, and 24 witnesses are other optimal covers than the all-slack
    # start reached
    results = [tau_star_lp_exact(g) for g in random_instances(200)]
    digest = hashlib.sha256(
        repr([(r.value, _weights(r.witness)) for r in results]).encode()
    ).hexdigest()
    assert digest == "8e58207399e66bb28fc4ab05f9c5faea69b4c5df6be3fc4ad66922557c77871a"


def test_lp_value_digest():
    # sha256 of repr([value]) of tau_star_lp_exact over the criterion-5
    # graphs, computed under Bland's rule: the LP optimum is unique, so it
    # holds for any pivot rule
    values = [tau_star_lp_exact(g).value for g in random_instances(200)]
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == "d30c95b3c34bea56a9fffb1b2511d1f9b814f49cf5385f254399a3f3f4b3ce56"


def test_lp_pivot_digest():
    # sha256 of repr([nodes_explored]) of tau_star_lp_exact over the
    # criterion-5 graphs (1339 pivots in all), recorded when the simplex
    # began at the greedy packing's basis; 1576 from the all-slack basis
    pivots = [tau_star_lp_exact(g).nodes_explored for g in random_instances(200)]
    assert sum(pivots) == 1339
    digest = hashlib.sha256(repr(pivots).encode()).hexdigest()
    assert digest == "a736d6353d902b1f31207874ddc760c5adc70e7759836ba811bd08d26d1477fc"


@pytest.mark.parametrize(
    "graphs",
    [
        lambda: random_instances(200),
        lambda: [complete_graph(n) for n in range(4, 9)],
        lambda: [build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])],
    ],
    ids=["criterion 5", "K4-K8", "C5"],
)
def test_lp_packing_is_an_optimal_fractional_packing(graphs):
    # the LP dual bound of tau_star_k_exact is sound only if y* is a
    # fractional triangle packing of total tau*; y* and the cover are
    # integer numerators over one denominator D, in lowest terms
    for g in graphs():
        res = tau_star_lp_exact(g)
        cover, packing = res.witness.numerators, res.packing
        denom = res.witness.order
        assert math.gcd(denom, *cover.values(), *packing.values()) == 1
        load = [0] * g.m
        for t, v in packing.items():
            assert t in enumerate_triangles(g) and v > 0
            for e in t.edge_ids:
                load[e] += v
        assert max(load, default=0) <= denom
        assert sum(packing.values()) == sum(cover.values()) == res.value * denom
        assert verify_cover(g, res.witness, int(nu_exact(g).value)).covered
        if not packing:  # no triangle: an empty cover, and tau*_k settled at the root
            assert res.witness == ChargeAssignment(1, {})
            for k in (1, 2, 3, 6):
                r = tau_star_k_exact(g, k)
                assert (r.value, r.witness, r.nodes_explored) == (0, ChargeAssignment(k, {}), 1)


def test_lp_pivots_scale_on_gnp_20():
    # 156 triangles: after the greedy packing's crash pivots Dantzig's
    # rule takes 252 pivots in all, Bland's 826, so a silent fall back to
    # Bland shows here (216 and 1561 from the all-slack basis)
    res = tau_star_lp_exact(gnp(20, 0.5, 1))
    assert (res.value, res.nodes_explored) == (F(91, 3), 252)


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


def test_tau_star_k_searches_order_one_once_per_graph(monkeypatch):
    # every k > 1 starts from the k = 1 optimum, kept in the graph's memo
    searches = []
    solve = oracles.tau_exact

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        searches.append(res)
        return res

    monkeypatch.setattr(oracles, "tau_exact", counted)
    g = gnp(9, 0.7, 1110)  # the heaviest criterion-5 search, at k = 2
    results = [tau_star_k_exact(g, k) for k in (2, 3, 6)]
    # 3676 nodes before the LP dual bound, 2479 before the node dual
    # bound and 1357 before the LP's crash basis changed y*; the value and
    # witness are those of the search without the bounds (see
    # test_tau_star_k_dual_bound_changes_no_result)
    assert len(searches) == 1 and results[0].nodes_explored == 715
    fresh = build_graph(g.n, g.edges)
    tau_star_k_exact(fresh, 1)
    again = [tau_star_k_exact(fresh, k) for k in (2, 3, 6)]
    assert len(searches) == 1
    assert [(r.value, r.nodes_explored) for r in again] == [
        (r.value, r.nodes_explored) for r in results
    ]
    # the public tau oracle is not memoized: a fresh search on every call
    a, b = oracles.tau_exact(g), oracles.tau_exact(g)
    assert a is not b and a.witness is not b.witness
    assert a.witness == b.witness and a.nodes_explored == b.nodes_explored > 1
    assert len(searches) == 3


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
    # k = 2, 3, 6 over the criterion-5 graphs, recorded when the LP began
    # at the greedy packing's basis: their nodes fell from 5331 to 3495
    # with the LP dual bound, to 2121 with the node dual bound and to
    # 1491 with the y* of the crash basis, while the values stayed
    results = [
        (r.value, r.nodes_explored)
        for g in random_instances(200)
        for k in (2, 3, 6)
        for r in [tau_star_k_exact(g, k)]
    ]
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "db51b42cd84710af5f29f8902fc11ab82210f1748e67a1b9a1ee50709261ccd6"


def test_tau_star_k_witness_digest():
    # sha256 of repr([(k, value, nodes_explored, sorted witness numerators)])
    # of tau_star_k_exact at k = 1, 2, 3, 6 over the criterion-5 graphs,
    # and of the same rows without the node counts, recorded when the LP
    # began at the greedy packing's basis (1857 nodes, 2507 before): the
    # 28 witnesses that moved are its other optimal covers, taken at the
    # LP root, and the other searches kept theirs
    rows = [
        (k, r.value, r.nodes_explored, sorted(r.witness.numerators.items()))
        for g in random_instances(200)
        for k in (1, 2, 3, 6)
        for r in [tau_star_k_exact(g, k)]
    ]
    node_free = [(k, value, witness) for k, value, _, witness in rows]
    digest = hashlib.sha256(repr(node_free).encode()).hexdigest()
    assert digest == "128d3b78c14f7e9690bafd469fec366652b316cc5bbf2a273b775d94c1d986fe"
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "c4189f65246118f82242441cd48292b904e9dc41dfbb4eea535695dee54d2b0d"


def test_tau_star_k_complete_graph_7():
    # one search deep enough to pin on its own, recorded with the digests
    # above (4996 nodes before the LP dual bound, 4870 before the node
    # dual bound and 4504 before the crash basis changed y*, at the same
    # value: see test_tau_star_k_dual_bound_changes_no_result)
    res = tau_star_k_exact(complete_graph(7), 2)
    assert (res.value, res.nodes_explored) == (9, 4522)


def test_tau_star_k_node_dual_bound_cuts_a_deep_search():
    # criterion-5 graph 11 at k = 5: 30,873 nodes with the LP dual bound
    # alone, under a quarter of that once each node lifts y* on its free
    # edges (36,106 and 8,404 with the y* of the all-slack start); the
    # k = 1 search and the LP it starts from come first
    g = gnp(8, 0.7, 1011)
    res = tau_star_k_exact(g, 5)
    assert (res.value, res.nodes_explored) == (F(38, 5), 5409)


def searches_with_and_without_the_dual_bound(graphs, ks):
    """(k, value, sorted witness numerators, nodes) of tau_star_k_exact
    on a fresh copy of each graph at each k, first as it is, then with
    the LP packing withheld: an empty packing bounds nothing."""
    solve = oracles.tau_star_lp_exact

    def run():
        return [
            (k, r.value, sorted(r.witness.numerators.items()), r.nodes_explored)
            for g in graphs
            for h in [build_graph(g.n, g.edges)]
            for k in ks
            for r in [tau_star_k_exact(h, k)]
        ]

    bounded = run()
    with mock.patch.object(
        oracles,
        "tau_star_lp_exact",
        lambda h, cap: dataclasses.replace(solve(h, cap), packing={}),
    ):
        return bounded, run()


def test_tau_star_k_dual_bound_changes_no_result():
    # the bounds only cut subtrees with no cover strictly below the
    # incumbent, so the first best cover found is the same; about 1 s a side
    graphs = list(small_graphs()) + [complete_graph(n) for n in range(4, 9)]
    bounded, unbounded = searches_with_and_without_the_dual_bound(graphs, (1, 2, 3, 6))
    assert [r[:3] for r in bounded] == [r[:3] for r in unbounded]
    assert all(a[3] <= b[3] for a, b in zip(bounded, unbounded))
    # 48,750 nodes against 105,463 (68,898 with the LP dual bound alone;
    # 44,915 against 105,419 with the y* and the covers of the all-slack
    # start): the bounds do cut; with the packing withheld the search has no
    # dual bound at all, not even the LP floor ceil(k * tau*) it kept
    # before the floor was folded into the LP dual bound (104,153 nodes
    # then)
    assert sum(a[3] for a in bounded) < sum(b[3] for b in unbounded)


def test_tau_star_k_rejects_k_below_one():
    with pytest.raises(ValueError, match="k must be >= 1"):
        tau_star_k_exact(complete_graph(4), 0)


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
    # LP results whose witness is not (1/k)-integral, so the LP does not
    # settle the root and the branch-and-bound itself is checked too: one
    # with no packing, so no dual bound, and one with the real packing y*
    # over a denominator k + 1 times the LP's, so both dual bounds cut
    lp = tau_star_lp_exact(g)
    weak = oracles.OracleResult(F(0), ChargeAssignment(5, {0: 1}), 0)
    lifted = dataclasses.replace(
        lp,
        witness=ChargeAssignment(lp.witness.order * (k + 1), {0: 1}),
        packing={t: v * (k + 1) for t, v in lp.packing.items()},
    )
    searched = []
    for lp_res in (weak, lifted):
        with mock.patch.object(oracles, "tau_star_lp_exact", lambda h, cap: lp_res):
            searched.append(tau_star_k_exact(build_graph(g.n, g.edges), k))
    for res in (real, *searched):
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
