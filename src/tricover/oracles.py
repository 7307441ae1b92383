"""Exact brute-force baselines for small instances, plus the rounding of
third-integral covers.

The integral solvers are two branch-and-bound searches, nu and tau*_k,
designed for desk-scale graphs (a few hundred triangles at most); tau is
tau*_1.  The LP optimum tau* comes from a fraction-free integer simplex:
the tableau is kept in Python ints over one common denominator, each
pivot divides exactly (Bareiss), and Dantzig's rule picks the entering
column, with Bland's rule as the guard against cycling; the final
tableau's packing certifies the value.  Values and witnesses are
exact; no floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .charges import ChargeAssignment, uncovered_triangles
from .errors import InstanceTooLargeError, NotACoverError, NotThirdIntegralError
from .graph import Graph, Triangle, edge_masks, enumerate_triangles, memo
from .packing import _nu_bound

DEFAULT_TRIANGLE_CAP = 200
# consecutive degenerate pivots after which the simplex enters by Bland's rule
_DEGENERATE_RUN = 50


@dataclass
class OracleResult:
    value: Fraction
    witness: object
    nodes_explored: int


def _triangles_capped(g: Graph, cap: int) -> tuple[Triangle, ...]:
    tris = enumerate_triangles(g)
    if len(tris) > cap:
        raise InstanceTooLargeError(f"{len(tris)} triangles exceeds cap {cap}")
    return tris


def nu_exact(g: Graph, cap: int = DEFAULT_TRIANGLE_CAP) -> OracleResult:
    """Maximum number of pairwise edge-disjoint triangles, exactly.

    No branch can beat the degree bound on ν (``packing._nu_bound``), so
    the search ends once the best packing found meets it.
    """
    tris = _triangles_capped(g, cap)
    masks = edge_masks(g)
    bound = _nu_bound(g)
    nodes = 0

    best: list[int] = []
    chosen: list[int] = []

    def dfs(candidates: list[int], used: int) -> None:
        nonlocal nodes, best
        nodes += 1
        if min(bound, len(chosen) + len(candidates)) <= len(best):
            return
        # the candidates avoid ``used``, and each further triangle takes
        # three of their edges; a branch that cannot beat ``best``
        # strictly is cut, so the first maximum found stays the same
        free = 0
        for j in candidates:
            free |= masks[j]
        if len(chosen) + free.bit_count() // 3 <= len(best):
            return
        if not candidates:
            if len(chosen) > len(best):
                best = chosen[:]
            return
        head, rest = candidates[0], candidates[1:]
        # include head
        chosen.append(head)
        dfs([j for j in rest if masks[j] & (used | masks[head]) == 0], used | masks[head])
        chosen.pop()
        # exclude head
        dfs(rest, used)

    dfs(list(range(len(tris))), 0)
    return OracleResult(Fraction(len(best)), [tris[j] for j in best], nodes)


def tau_exact(g: Graph, cap: int = DEFAULT_TRIANGLE_CAP) -> OracleResult:
    """Minimum edge set meeting every triangle, exactly: tau*_1, with the
    cover as sorted edge ids."""
    res = tau_star_k_exact(g, 1, cap)
    return OracleResult(res.value, sorted(res.witness.numerators), res.nodes_explored)


def _simplex_min(
    rows: list[list[int]], cost: list[int], basis: list[int]
) -> tuple[Fraction, list[Fraction], int]:
    """Simplex for min c.x, rows = [A | b], x >= 0, on a fraction-free
    integer tableau.

    The caller supplies integer rows whose ``basis`` columns form the
    identity (the slack columns) with b >= 0, so the starting basis is
    feasible, and zero cost on those columns, so the starting reduced
    costs are the costs themselves.  The tableau keeps one common
    denominator d > 0: every stored entry, in the rows and in the
    reduced-cost row, is d times its true value.  A pivot on p = T[r][c]
    replaces every other entry by (p*T[i][j] - T[i][c]*T[r][j]) // d and
    then sets d = p.  The division is exact, because d is the determinant
    of the current basis and each stored entry is a minor of the starting
    matrix (Bareiss).

    As d > 0, signs and ratios are read off the integers, so the pivots
    are those of the same tableau kept in fractions.  The entering column
    has the most negative reduced cost, ties going to the lowest column
    (Dantzig).  A pivot is degenerate when its leaving row has b = 0;
    after ``_DEGENERATE_RUN`` degenerate pivots in a row the entering
    column is the first with a negative reduced cost (Bland), until the
    next non-degenerate pivot.  The leaving row has the least ratio
    b_i/a_i, ties going to the smallest basis index.

    The method terminates.  A non-degenerate pivot strictly lowers the
    objective, so no basis repeats across such pivots, and there are
    finitely many bases.  A run of degenerate pivots keeps the objective;
    past its first ``_DEGENERATE_RUN`` pivots both rules are Bland's,
    which cannot cycle, so the run ends.

    Returns the optimal objective value, the final reduced-cost row (its
    last entry is minus the value) and the number of pivots.  ``rows``
    and ``basis`` are left holding the final tableau and basis: row i
    holds d times the value of its basic variable, and d sits in its
    basic column, ``rows[i][basis[i]]``.
    """
    m = len(rows)
    ncols = len(rows[0]) - 1
    d = 1
    z = cost + [0]
    pivots = 0
    degenerate = 0
    while True:
        if degenerate < _DEGENERATE_RUN:
            low = min(z[:ncols])
            if low >= 0:
                break
            enter = z.index(low)
        else:
            enter = next((j for j in range(ncols) if z[j] < 0), None)
            if enter is None:
                break
        leave, lead_b, lead_a = None, 0, 1
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                # b_i / a < lead_b / lead_a, cross-multiplied (a, lead_a > 0)
                lhs, rhs = rows[i][-1] * lead_a, lead_b * a
                if leave is None or lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, lead_b, lead_a = i, rows[i][-1], a
        if leave is None:
            raise ArithmeticError("unbounded LP")
        degenerate = degenerate + 1 if lead_b == 0 else 0
        prow = rows[leave]
        p = prow[enter]
        for i in range(m):
            if i == leave:
                continue
            f = rows[i][enter]
            if f:
                rows[i] = [(p * a - f * b) // d for a, b in zip(rows[i], prow)]
            elif p != d:
                rows[i] = [p * a // d for a in rows[i]]
        f = z[enter]
        z = [(p * a - f * b) // d for a, b in zip(z, prow)]
        d = p
        basis[leave] = enter
        pivots += 1
    value = Fraction(sum(cost[basis[i]] * rows[i][-1] for i in range(m)), d)
    return value, [Fraction(v, d) for v in z], pivots


def tau_star_lp_exact(g: Graph, cap: int = DEFAULT_TRIANGLE_CAP) -> OracleResult:
    """The LP optimum over all fractional covers, exactly.

    Solved through the dual (maximum fractional triangle packing), whose
    all-slack basis is feasible, so no phase-1 is needed.  The value
    carries its own certificate, checked by weak duality whatever the
    pivot rule: the final tableau holds a fractional triangle packing of
    that total, and the witness, an optimal primal cover read off the
    final reduced costs, is a cover of that total.
    ``nodes_explored`` counts the simplex pivots.
    """
    tris = _triangles_capped(g, cap)
    if not tris:
        return OracleResult(Fraction(0), {}, 0)
    m = g.m
    nv = len(tris)
    rows = [[0] * (nv + m + 1) for _ in range(m)]
    for j, t in enumerate(tris):
        for e in t.edge_ids:
            rows[e][j] = 1
    for i in range(m):
        rows[i][nv + i] = 1
        rows[i][-1] = 1
    cost = [-1] * nv + [0] * m
    basis = list(range(nv, nv + m))
    neg_value, z, pivots = _simplex_min(rows, cost, basis)
    value = -neg_value
    # the optimal fractional packing: each basic triangle at its basic
    # value, over the common denominator d
    d = rows[0][basis[0]]
    load = [0] * m
    packed = 0
    for row, b in zip(rows, basis):
        if b < nv:
            packed += row[-1]
            for e in tris[b].edge_ids:
                load[e] += row[-1]
    if d <= 0 or min(row[-1] for row in rows) < 0 or max(load) > d or packed != value * d:
        raise ArithmeticError(f"LP tableau holds no fractional packing of total {value}")
    cover = {e: z[nv + e] for e in range(m) if z[nv + e]}
    total = sum(cover.values(), Fraction(0))
    if total != value:
        raise ArithmeticError(f"LP cover witness sums to {total}, not the LP value {value}")
    # the cover test of verify_cover, over the witness's common denominator
    den = math.lcm(*(v.denominator for v in cover.values()))
    scaled = ChargeAssignment(
        den, {e: v.numerator * (den // v.denominator) for e, v in cover.items()}
    )
    missed = uncovered_triangles(g, scaled)
    if missed:
        raise NotACoverError(f"LP cover witness misses triangle {missed[0].vertices}")
    return OracleResult(value, cover, pivots)


def tau_star_k_exact(
    g: Graph,
    k: int,
    cap: int = DEFAULT_TRIANGLE_CAP,
) -> OracleResult:
    """Minimum total of a (1/k)-integral assignment hitting every triangle.

    Works in numerator units: y_e in {0..k}, every triangle needs
    sum >= k units.  Branches by fixing the final value of one edge of a
    deficient triangle; the lower bound adds the deficiencies of a greedy
    edge-disjoint family of deficient triangles.

    Propagation is local.  A triangle whose only free (not yet frozen)
    edge is f forces y[f] >= k - sum(frozen y) over its edges; that
    depends only on frozen values, and propagation never freezes an edge,
    so a node's raised values are the unique least fixpoint of these
    rules.  Freezing edge e changes the rule of the triangles through e
    only, and a forced raise of f cannot start another: the other
    triangles whose only free edge is f already held at the parent's
    fixpoint, and y[f] only grows.  So each child visits the triangles
    through the edge its parent just froze, once; the root has nothing
    frozen and propagates nothing.  Values, witnesses and node counts are
    those of a full rescan to the fixpoint.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    tris = _triangles_capped(g, cap)
    nodes = 0
    nt = len(tris)
    m = g.m
    tri_edges = [t.edge_ids for t in tris]

    # the LP optimum bounds every node from below globally; when its
    # primal witness is already (1/k)-integral it solves the instance.
    # It does not depend on k, so it is solved once per graph (the cap
    # was checked above).
    lp_res = memo(g, "tau_star_lp", lambda: tau_star_lp_exact(g, cap))
    lp = lp_res.value * k
    lp_floor = -((-lp.numerator) // lp.denominator)  # ceil in units
    scaled = {e: v * k for e, v in lp_res.witness.items()}
    if all(v.denominator == 1 for v in scaled.values()):
        witness = ChargeAssignment(k, {e: int(v) for e, v in scaled.items() if v})
        return OracleResult(lp_res.value, witness, 1)

    # incumbent: an integral cover at value k; for k = 1 the greedy one
    # (repeatedly take the edge in most uncovered triangles), for k > 1
    # the optimum of k = 1, which prunes far more than a greedy start
    if k == 1:
        cover: set[int] = set()
        uncovered = tri_edges
        while uncovered:
            counts: dict[int, int] = {}
            for es in uncovered:
                for e in es:
                    counts[e] = counts.get(e, 0) + 1
            e_best = max(sorted(counts), key=lambda e: counts[e])
            cover.add(e_best)
            uncovered = [es for es in uncovered if e_best not in es]
    else:
        cover = set(tau_exact(g, cap).witness)
    best_y = [k if e in cover else 0 for e in range(m)]
    best_units = k * len(cover)

    y = [0] * m
    frozen = bytearray(m)
    deficit = [k] * nt  # k - current sum over the triangle's edges
    edge_used = [0] * m  # generation stamps for the disjoint-triangle bound
    gen = 0

    def raise_edge(e: int, delta: int) -> None:
        y[e] += delta
        for ti in eligible_tris[e]:
            deficit[ti] -= delta

    eligible_tris: list[list[int]] = [[] for _ in range(m)]
    for ti, es in enumerate(tri_edges):
        for e in es:
            eligible_tris[e].append(ti)

    def propagate(fixed: int, trail: list[tuple[int, int]]) -> int:
        """Forced raises after edge ``fixed`` was frozen; returns the added
        units.

        Afterwards no deficient triangle has fewer than two free edges:
        one that had two before the freeze has its last free edge raised
        here, so a deficient triangle never runs out of free edges.
        """
        # Only the one-free-edge rule can fire.  With two or more free
        # edges, room - deficit = (free - 1) * k + sum(frozen y) >= k > 0,
        # so no triangle needs all its free edges at k; with one free edge
        # f, y[f] + deficit = k - sum(frozen y) <= k, so no raise passes k.
        added = 0
        for ti in eligible_tris[fixed]:
            d = deficit[ti]
            if d <= 0:
                continue
            free = [e for e in tri_edges[ti] if not frozen[e]]
            if len(free) == 1:
                e = free[0]
                raise_edge(e, d)
                trail.append((e, d))
                added += d
        return added

    def analyze():
        """(lower bound in units, per-edge deficient counts, target).

        Every deficient triangle has room for its deficit (see
        ``propagate``), so the bound never proves a node infeasible.
        """
        nonlocal gen
        gen += 1
        units = 0
        total_deficiency = 0
        hot = [0] * m
        target, target_key = None, None
        for ti in range(nt):
            d = deficit[ti]
            if d <= 0:
                continue
            total_deficiency += d
            free = 0
            for e in tri_edges[ti]:
                if not frozen[e]:
                    hot[e] += 1
                    free += 1
            key = (free, -d, ti)
            if target_key is None or key < target_key:
                target, target_key = ti, key
            es = tri_edges[ti]
            if edge_used[es[0]] != gen and edge_used[es[1]] != gen and edge_used[es[2]] != gen:
                edge_used[es[0]] = edge_used[es[1]] = edge_used[es[2]] = gen
                units += d
        if not total_deficiency:
            return 0, hot, None
        # fractional bound: one unit on an edge settles at most its count
        # of deficient triangles, so spend capacity on the busiest first;
        # sum(hot * capacity) is the deficient triangles' total room, at
        # least their total deficiency, so the loop always breaks
        rem = total_deficiency
        frac = 0
        for e in sorted((e for e in range(m) if hot[e]), key=lambda e: -hot[e]):
            capacity = k - y[e]
            if capacity * hot[e] < rem:
                frac += capacity
                rem -= capacity * hot[e]
            else:
                frac += -(-rem // hot[e])
                break
        return max(units, frac), hot, target

    def dfs(units: int, fixed: int | None) -> None:
        nonlocal nodes, best_units, best_y
        nodes += 1
        if best_units <= lp_floor:
            return  # incumbent already matches the LP bound
        trail: list[tuple[int, int]] = []
        try:
            if fixed is not None:
                units += propagate(fixed, trail)
            if units >= best_units:
                return
            lb, hot, ti = analyze()
            if max(units + lb, lp_floor) >= best_units:
                return
            if ti is None:
                best_units = units
                best_y = y[:]
                return
            open_edges = [e for e in tri_edges[ti] if not frozen[e]]
            e = max(open_edges, key=lambda e: (hot[e], -e))
            frozen[e] = 1
            # final value of e stays as-is
            dfs(units, e)
            # or is raised to v
            base = y[e]
            for v in range(base + 1, k + 1):
                raise_edge(e, v - y[e])
                dfs(units + v - base, e)
            if y[e] != base:
                raise_edge(e, base - y[e])
            frozen[e] = 0
        finally:
            for ed, delta in reversed(trail):
                raise_edge(ed, -delta)

    dfs(0, None)
    witness = ChargeAssignment(k, {e: v for e, v in enumerate(best_y) if v})
    return OracleResult(Fraction(best_units, k), witness, nodes)


def _greedy_max_cut(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Two-sides cut with at least half the edges crossing.

    Sequential placement guarantees the half bound; a single improvement
    pass can only raise the cut.
    """
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    side = [0] * n

    def gain_of_flip(v: int) -> int:
        same = sum(1 for w in adj.get(v, ()) if side[w] == side[v])
        return same - (len(adj.get(v, ()))) + same  # same - cross

    placed: set[int] = set()
    for v in range(n):
        cross0 = sum(1 for w in adj.get(v, ()) if w in placed and side[w] != 0)
        cross1 = sum(1 for w in adj.get(v, ()) if w in placed and side[w] != 1)
        side[v] = 1 if cross1 > cross0 else 0
        placed.add(v)
    for v in range(n):
        if gain_of_flip(v) > 0:
            side[v] = 1 - side[v]
    return side


def round_third_integral(g: Graph, f: ChargeAssignment) -> list[int]:
    """Turn a (1/3)-integral cover into an integral cover of size <= 1.5 total.

    Keeps every edge at weight >= 2/3, then removes a bipartizing half of
    the remaining 1/3-edges; what stays uncut hits every leftover
    triangle.
    """
    if f.order != 3 or any(not (0 <= v <= 3) for v in f.numerators.values()):
        raise NotThirdIntegralError("assignment is not a valid 1/3-integral vector")
    missed = uncovered_triangles(g, f)
    if missed:
        raise NotACoverError(f"triangle {missed[0].vertices} not covered")

    heavy = {e for e, v in f.numerators.items() if v >= 2}
    thirds = sorted(e for e, v in f.numerators.items() if v == 1)
    side = _greedy_max_cut(g.n, [g.edges[e] for e in thirds])
    uncut = [e for e in thirds if side[g.edges[e][0]] == side[g.edges[e][1]]]
    if 2 * len(uncut) > len(thirds):
        raise AssertionError(f"cut leaves {len(uncut)} of {len(thirds)} third-edges uncut")
    result = sorted(heavy | set(uncut))
    missed = uncovered_triangles(g, ChargeAssignment(1, {e: 1 for e in result}))
    if missed:
        raise AssertionError(f"rounded set misses triangle {missed[0].vertices}")
    return result
