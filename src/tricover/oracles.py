"""Exact brute-force baselines for small instances.

The integral solvers are two branch-and-bound searches, nu and tau*_k,
designed for desk-scale graphs (a few hundred triangles at most); tau is
tau*_1.  The LP optimum tau* comes from a fraction-free integer simplex
over the edges that lie in a triangle, on a condensed tableau whose rows
keep their own integer scales and are each one integer, an entry per
fixed-width lane: a pivot moves a row to the new scale as
(p*R - f*G) // d_i in a few big-integer operations, exact in every lane
(Bareiss), reads the entering column only in rows whose support mask has
it, and widens the lanes only when a bound on the entries says it must.
A crash start (Bixby, 1992) enters the triangles of the greedy packing
first, each a non-degenerate pivot on 1 that no other one disturbs;
then Dantzig's rule picks the entering column, with Bland's as the guard
against cycling; the final tableau's packing certifies the value.
Values and witnesses are exact; no floating point anywhere.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .charges import ChargeAssignment, uncovered_triangles
from .errors import BadParamsError, InstanceTooLargeError, NotACoverError
from .graph import Graph, Triangle, edge_masks, enumerate_triangles, memo
from .packing import _nu_bound

DEFAULT_TRIANGLE_CAP = 200
# consecutive degenerate pivots after which the simplex enters by Bland's rule
_DEGENERATE_RUN = 50
# the node of nu_exact's search at which it reads the upper bound on nu:
# the bound costs about as much as that many nodes, and most searches on
# small graphs end before it
_NU_BOUND_NODE = 8
# bits per lane of a packed tableau row at the start of a solve: 8, 16, 32 or 64
_LANE = 64


@dataclass
class OracleResult:
    value: Fraction
    witness: object
    nodes_explored: int
    # the LP's optimal fractional triangle packing as numerators over its
    # witness's order, nonzero entries only; empty for the integral
    # oracles, and an empty packing bounds nothing
    packing: dict[Triangle, int] = field(default_factory=dict)


def _triangles_capped(g: Graph, cap: int) -> tuple[Triangle, ...]:
    if cap < 0:
        raise BadParamsError(f"triangle cap must be >= 0, got {cap}")
    tris = enumerate_triangles(g)
    if len(tris) > cap:
        raise InstanceTooLargeError(f"{len(tris)} triangles exceeds cap {cap}")
    return tris


def nu_exact(g: Graph, cap: int = DEFAULT_TRIANGLE_CAP) -> OracleResult:
    """Maximum number of pairwise edge-disjoint triangles, exactly.

    No branch can beat the swap search's upper bound on ν, the smaller
    of the degree bound with its parity cut and the K4-block bound
    (``packing._nu_bound``), so the search ends once the best packing
    found meets it; on chains of K4s, K5 and K11 that is ν.  The bound
    is read at node ``_NU_BOUND_NODE``, so a search that ends sooner
    never pays for it; the cut only stops branches that cannot beat the
    best packing strictly, so the packing found is the same either way.
    """
    tris = _triangles_capped(g, cap)
    masks = edge_masks(g)
    bound = len(tris)  # until the bound on ν replaces it
    nodes = 0

    best: list[int] = []
    chosen: list[int] = []

    def dfs(candidates: list[int]) -> None:
        nonlocal nodes, best, bound
        nodes += 1
        if nodes == _NU_BOUND_NODE:
            bound = _nu_bound(g)
        if min(bound, len(chosen) + len(candidates)) <= len(best):
            return
        # the candidates avoid every chosen triangle, and each further
        # triangle takes three of their edges; a branch that cannot beat
        # ``best`` strictly is cut, so the first maximum found stays the same
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
        dfs([j for j in rest if not masks[j] & masks[head]])
        chosen.pop()
        # exclude head
        dfs(rest)

    dfs(list(range(len(tris))))
    return OracleResult(Fraction(len(best)), [tris[j] for j in best], nodes)


def tau_exact(g: Graph, cap: int = DEFAULT_TRIANGLE_CAP) -> OracleResult:
    """Minimum edge set meeting every triangle, exactly: tau*_1, with the
    cover as sorted edge ids."""
    res = tau_star_k_exact(g, 1, cap)
    return OracleResult(res.value, sorted(res.witness.numerators), res.nodes_explored)


@functools.lru_cache(maxsize=256)
def _bias(w: int, count: int) -> int:
    """2**(w-1) in each of ``count`` lanes of ``w`` bits."""
    return int.from_bytes((bytes(w // 8 - 1) + b"\x80") * count, "little")


def _lanes(row: int, w: int, bias: int):
    """The entries of a packed row, ``w`` bits a lane; ``bias`` (``_bias``
    of its lane count) puts every lane in [0, 2**w), so none borrows."""
    raw = ((row + bias) ^ bias).to_bytes(bias.bit_length() // 8, "little")
    if w == 64 and sys.byteorder == "little":  # a memoryview reads the machine's order
        return memoryview(raw).cast("q")
    return [int.from_bytes(c, "little", signed=True) for c in zip(*[iter(raw)] * (w // 8))]


def _pack(entries: list[int], w: int) -> int:
    bias = _bias(w, len(entries))
    raw = b"".join(v.to_bytes(w // 8, "little", signed=True) for v in entries)
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _simplex_min(
    rows: list[int],
    masks: list[int],
    z: int,
    basis: list[int],
    cols: list[int],
    start: list[int],
) -> tuple[int, list[int], list[int], int]:
    """Simplex for min c.x, x >= 0, on a condensed fraction-free integer
    tableau (the dictionary form of Bareiss elimination, as in Avis's
    lrs) whose rows are each packed into one integer.

    Variables are named by ids.  Row i holds the basic variable
    ``basis[i]``: its coefficients on the nonbasic columns, column j
    holding variable ``cols[j]``, then its right-hand side b_i (the basic
    columns, an identity, are not stored), as sum(e_j * 2**(w*j)): entry
    j in lane j, w bits wide, b_i in lane n, w = ``_LANE`` at the start.
    ``masks[i]`` has bit j set where row i may be nonzero in column j.
    ``z`` is packed alike: the nonbasic costs, then minus the objective.
    The tableau is that of ``tau_star_lp_exact``: columns of three 1s,
    b all ones (so the slack basis is feasible), costs -1.  The columns
    of ``start``, edge-disjoint triangles, enter first, in order.

    Row i has its own scale d_i > 0, and ``z`` that of the latest pivot,
    d; all start at 1, and an entry is its scale times the true value.  A
    pivot on p = T[r][s], row r first brought to scale d, moves each
    other row R with an entry f != 0 in column s to scale p as
    (p*R - f*G) // d_i, G being row r with d added in lane s, and ``z``
    likewise with d_i = d.  Packing is linear, so lane s becomes
    -f*d / d_i, the entry of the leaving variable, which takes column s,
    and each other lane (p*a - f*b) / d_i.  That is exact: it is p times
    the row's new true value, and d times any true value of the tableau
    whose basis has determinant d is a minor of the starting matrix
    (Bareiss); so the packed quotient is exact too.  A row with f = 0
    keeps its true values and is not touched.  Row r keeps its lanes,
    lane s set to d, at scale p; each updated row's mask takes in row
    r's; and d becomes p.

    Lanes are read by adding 2**(w-1) to each (``_lanes``), which needs
    every entry below 2**(w-1) in size; a pivot reads all of ``z``, and
    column s only in the rows whose mask has bit s.  An entry a pivot
    writes is, up to sign, a minor of the tableau bordered by the costs
    (Cramer) with t columns of norm at most 2 and one of norm at most
    max(2, sqrt(t + 1)), t <= min(pivots, m, n) the structural columns in
    the basis: below 2**t * max(2, sqrt(t + 1)) (Hadamard), so below
    2**(w-1) while t <= w - 4 at w = ``_LANE`` <= 64.  Past that each row
    keeps a bound on its entries, (p*u_i + |f|*u_r) // d_i after an
    update; when one could reach 2**(w-1), every row is measured, and if
    one still could, every row is repacked at twice the width or more.

    Signs and ratios are read off the integers, every scale being
    positive, so the pivots are those of the same tableau in fractions.
    The leaving row has the least ratio b_i/a_i, ties to the smallest
    basic id.  The first ``len(start)`` pivots enter the columns of
    ``start`` (the crash): a pivot touches only the rows with an entry in
    its column, and the cost lanes of the triangles through its leaving
    edge, so a column that shares no edge with those entered before
    still holds its three 1s, in rows with b = 1 at scale 1, and cost
    -1; it pivots on p = 1, d stays 1, and the objective falls by one.
    Then the entering column has the most negative reduced cost, ties to
    the lowest variable id (Dantzig); after ``_DEGENERATE_RUN``
    degenerate pivots in a row (leaving row with b = 0) it is the
    negative one of lowest id (Bland), until the next non-degenerate
    pivot.  This terminates as it would from the slack basis: the crash
    is ``len(start)`` non-degenerate pivots to a feasible basis, a
    non-degenerate pivot strictly lowers the objective, so no basis
    repeats across them, and past the first ``_DEGENERATE_RUN`` pivots of
    a degenerate run both rules are Bland's, which cannot cycle.

    Returns d, the final ``z`` at scale d as a list, x with x[i] = d
    times the value of ``basis[i]``, and the number of pivots; ``basis``
    and ``cols`` are left holding the final ids.
    """
    n, m = len(cols), len(rows)
    w, bias = _LANE, _bias(_LANE, n + 1)
    half, lane, top = 1 << w - 1, (1 << w) - 1, w * n
    scale, size, zsize = [1] * m, [half] * m, half  # size: a bound on a row's entries
    d, pivots, degenerate, crash = 1, 0, 0, len(start)
    while True:
        zl = _lanes(z, w, bias)
        if pivots < crash:
            enter = start[pivots]
        elif degenerate < _DEGENERATE_RUN:
            low, _, enter = min(zip(zl, cols, range(n)))
            if low >= 0:
                break
        else:
            enter = min((j for j in range(n) if zl[j] < 0), key=cols.__getitem__, default=None)
            if enter is None:
                break
        s, bit = w * enter, 1 << enter
        touched, leave, lead_b, lead_a = [], None, 0, 1
        for i in range(m):
            if masks[i] & bit:
                x = rows[i] + bias
                a = (x >> s & lane) - half
                if a:
                    touched.append((i, a))
                    if a > 0:
                        # b_i / a < lead_b / lead_a, cross-multiplied (a, lead_a > 0)
                        b = (x >> top) - half
                        lhs, rhs = b * lead_a, lead_b * a
                        if leave is None or lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                            leave, lead_b, lead_a, at = i, b, a, len(touched) - 1
        if leave is None:
            raise ArithmeticError("unbounded LP")
        degenerate = degenerate + 1 if lead_b == 0 else 0
        sl, fz, p = scale[leave], zl[enter], lead_a * d // scale[leave]
        del touched[at]  # the rows to update: all but the pivot row
        if pivots >= _LANE - 4 < min(m, n):  # t may pass _LANE - 4: bound the rows
            for measured in (False, True):
                big = max(size[leave] * d // sl, d)
                bounds = [(p * size[i] + abs(f) * big) // scale[i] for i, f in touched]
                zbound = (p * zsize + abs(fz) * big) // d
                need = max(big, zbound, *bounds)
                if not need >> w - 1:
                    break
                if not measured:
                    size = [max(map(abs, _lanes(r, w, bias))) for r in rows]
                    zsize = max(map(abs, zl))
                    continue
                wide = w << (need.bit_length() // w).bit_length()  # need < 2**(wide - 1)
                rows[:] = [_pack(_lanes(r, w, bias), wide) for r in rows]
                z = _pack(_lanes(z, w, bias), wide)
                w, bias = wide, _bias(wide, n + 1)
                half, lane, top, s = 1 << w - 1, (1 << w) - 1, w * n, w * enter
            for (i, _), bound in zip(touched, bounds):
                size[i] = bound
            size[leave], zsize = big, zbound
        prow = rows[leave] if sl == d else rows[leave] * d // sl
        g = prow + (d << s)
        for i, f in touched:
            rows[i] = (p * rows[i] - f * g) // scale[i]
            scale[i] = p
            masks[i] |= masks[leave]
        z = (p * z - fz * g) // d
        rows[leave], scale[leave] = prow + (d - p << s), p
        basis[leave], cols[enter] = cols[enter], basis[leave]
        d, pivots = p, pivots + 1
    x = [((r + bias >> top) - half) * d // di for r, di in zip(rows, scale)]
    return d, list(zl), x, pivots


def tau_star_lp_exact(g: Graph, cap: int = DEFAULT_TRIANGLE_CAP) -> OracleResult:
    """The LP optimum over all fractional covers, exactly.

    Solved through the dual (maximum fractional triangle packing), whose
    all-slack basis is feasible, so no phase-1 is needed.  The simplex
    starts by entering the triangles of ``packing.greedy_packing(g)``,
    taken in the row-building loop over ``edge_masks(g)``: a basis of
    value |P| reached in |P| non-degenerate pivots, from which Dantzig's
    rule needs fewer pivots than from the slack basis.  The value is the
    LP optimum either way; the optimal basis reached, and with it the
    witness and the packing below, may be another.  Its rows are
    the edges that lie in a triangle: an edge in none has a row of zeros
    on every triangle column, so its slack would stay basic through
    every pivot and change no other row, and the pivots are those of the
    LP over all edges.  The value carries its own certificate, checked
    by weak duality whatever the pivot rule: the final tableau holds a
    fractional triangle packing of that total, returned as ``packing``
    (each basic triangle at its value), and the witness, an optimal
    primal cover read off the final reduced costs of the slacks, is a
    cover of that total.  Both are integer numerators over one
    denominator, the witness's order, in lowest terms over the two.
    ``nodes_explored`` counts the simplex pivots.
    """
    tris = _triangles_capped(g, cap)
    if not tris:
        return OracleResult(Fraction(0), ChargeAssignment(1, {}), 0)
    nv = len(tris)
    edges = sorted({e for t in tris for e in t.edge_ids})
    row_of = dict(zip(edges, range(len(edges))))
    rows, masks = [1 << _LANE * nv] * len(edges), [0] * len(edges)
    crash, used = [], 0  # the greedy packing: the triangles entered first
    for j, (t, tm) in enumerate(zip(tris, edge_masks(g))):
        if not tm & used:
            crash.append(j)
            used |= tm
        for e in t.edge_ids:
            rows[row_of[e]] += 1 << _LANE * j
            masks[row_of[e]] |= 1 << j
    basis = list(range(nv, nv + len(edges)))
    cols = list(range(nv))
    z = -(_bias(_LANE, nv) >> _LANE - 1)
    d, z, x, pivots = _simplex_min(rows, masks, z, basis, cols, crash)
    # the simplex minimizes minus the packing's total, so z's last entry
    # is d times the value; the optimal fractional packing is each basic
    # triangle at its value
    total, load, packed, packing = z[-1], [0] * g.m, 0, {}
    for b, xi in zip(basis, x):
        if b < nv and xi:
            packed += xi
            packing[tris[b]] = xi
            for e in tris[b].edge_ids:
                load[e] += xi
    if d <= 0 or min(x) < 0 or max(load) > d or packed != total:
        raise ArithmeticError(
            f"LP tableau holds no fractional packing of total {Fraction(total, d)}"
        )
    # the cover: each nonbasic slack's reduced cost, in edge order
    numerators = dict(sorted((edges[c - nv], v) for c, v in zip(cols, z) if c >= nv and v))
    if sum(numerators.values()) != total:
        raise ArithmeticError(
            f"LP cover witness sums to {Fraction(sum(numerators.values()), d)}, "
            f"not the LP value {Fraction(total, d)}"
        )
    # the cover test of verify_cover, over the common denominator d
    cover = ChargeAssignment(d, numerators)
    missed = uncovered_triangles(g, cover)
    if missed:
        raise NotACoverError(f"LP cover witness misses triangle {missed[0].vertices}")
    r = math.gcd(d, *numerators.values(), *packing.values())
    if r > 1:
        cover = ChargeAssignment(d // r, {e: v // r for e, v in numerators.items()})
        packing = {t: v // r for t, v in packing.items()}
    return OracleResult(Fraction(total, d), cover, pivots, packing)


def tau_star_k_exact(
    g: Graph,
    k: int,
    cap: int = DEFAULT_TRIANGLE_CAP,
) -> OracleResult:
    """Minimum total of a (1/k)-integral assignment hitting every triangle.

    Works in numerator units: y_e in {0..k}, every triangle needs
    sum >= k units.  Branches by fixing the final value of one edge of a
    deficient (open) triangle.  A node is cut when one of four lower
    bounds on the units still to raise reaches the incumbent: the
    deficiencies of a greedy edge-disjoint family of open triangles; a
    fractional count of the free edges' capacity; the LP dual bound; and
    the node dual bound.

    The last two are weak duality at the node.  Let r_e >= 0 be the
    units still to raise on free edge e (a frozen edge gets none).  Any
    z >= 0 on the open triangles with sum(z_t for t through e) <= 1 on
    every free edge bounds the node: each open triangle t needs
    sum(r_e, e in t) >= deficit_t, so sum(r_e) >= sum(r_e * z_t over
    free e in t, all t) >= sum(z_t * deficit_t), and the final total is
    an integer, so the node needs at least ceil(sum(z_t * deficit_t))
    more units.  The LP dual bound takes z = y*, the LP's optimal
    fractional packing, on the open triangles: its load is at most 1 on
    every edge.  At the root every deficit is k and this is the LP floor
    ceil(k * tau*), which no node needs apart: over every triangle,
    negative deficits too, the sum is k * tau* - sum(y_e * load_e), y*'s
    load_e <= 1, so units plus the bound is at least k * tau* at every
    node.  The node dual bound starts from the same z and, in index
    order, lifts each open triangle by the least room 1 - load left on
    its free edges; a frozen edge has no constraint, and every open
    triangle keeps two free edges (see ``propagate``), so each lift is
    finite.  Its z is at least y* on every open triangle and every
    deficit there is positive, so it is never below the LP dual bound:
    every node that bound cuts, it cuts too.  An empty packing bounds
    nothing: neither dual bound is used.

    Each cut drops only subtrees with no cover strictly below the
    incumbent.  So a search with a cut visits the nodes of the search
    without it in the same order, minus whole subtrees in which the
    incumbent never moves; the incumbent is the same at every node both
    visit, a bound at least as high cuts every node the lower one cut,
    and the first best cover found, with its value and witness, is the
    same.  Adding the node dual bound to the other three thus changes no
    value or witness, and no search explores more nodes.

    The open triangles' state is kept incrementally: ``raise_edge``
    visits each triangle whose deficit moves and keeps their count, total
    deficiency and y*-weighted deficiency, and per edge the open
    triangles through it and the room y* leaves; freezing an edge keeps
    each triangle's count of free edges.  So the LP dual bound is one
    comparison, and one index-order scan of the open triangles takes the
    disjoint family, the node dual bound and the branch target.

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

    # the LP's packing y* bounds every node from below; when its primal
    # witness is already (1/k)-integral it solves the instance.  It does
    # not depend on k, so it is solved once per graph (the cap was
    # checked above).
    lp_res = memo(g, "tau_star_lp", lambda: tau_star_lp_exact(g, cap))
    lp_cover, denom = lp_res.witness.numerators, lp_res.witness.order
    if all(v * k % denom == 0 for v in lp_cover.values()):
        witness = ChargeAssignment(k, {e: v * k // denom for e, v in lp_cover.items()})
        return OracleResult(lp_res.value, witness, 1)
    dual = [lp_res.packing.get(t, 0) for t in tris]  # dual[ti] = denom * y*_t
    node_dual = any(dual)  # an empty packing bounds nothing
    nodes, nt, m = 0, len(tris), g.m
    tri_edges = [t.edge_ids for t in tris]
    tri_masks = edge_masks(g)

    # incumbent: an integral cover at value k; for k = 1 the greedy one
    # (repeatedly take the edge in most uncovered triangles), for k > 1
    # the optimum of k = 1, which prunes far more than a greedy start and
    # is kept in the graph's memo, so every k > 1 shares one k = 1 search
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
        cover = set(memo(g, "tau", lambda: tuple(tau_exact(g, cap).witness)))
    best_y = [k if e in cover else 0 for e in range(m)]
    best_units = k * len(cover)

    y = [0] * m
    frozen = bytearray(m)
    deficit = [k] * nt  # k - current sum over the triangle's edges
    n_free = [3] * nt  # the triangle's edges not frozen
    # the open (deficient) triangles, kept by raise_edge: their count,
    # total deficiency and D * sum(y*_t * deficit_t); per edge, the open
    # triangles through it and D minus their y* load, plus ``unbounded``
    # while the edge is frozen: no lift of the node dual bound can use up
    # that much, nt lifts of at most D each
    n_open, deficiency, packed = nt, k * nt, k * sum(dual)
    hot, slack, unbounded = [0] * m, [denom] * m, denom * (nt + 1)
    eligible_tris: list[list[int]] = [[] for _ in range(m)]
    for ti, es in enumerate(tri_edges):
        for e in es:
            eligible_tris[e].append(ti)
            hot[e] += 1
            slack[e] -= dual[ti]

    def raise_edge(e: int, delta: int) -> None:
        nonlocal n_open, deficiency, packed
        y[e] += delta
        for ti in eligible_tris[e]:
            was = deficit[ti]
            now = deficit[ti] = was - delta
            if now > 0:
                if was > 0:
                    deficiency -= delta
                    packed -= dual[ti] * delta
                    continue
                step, change = 1, now  # the triangle opens
            elif was > 0:
                step, change = -1, -was  # the triangle closes
            else:
                continue
            n_open += step
            deficiency += change
            w = dual[ti]
            packed += w * change
            a, b, c = tri_edges[ti]
            hot[a] += step
            hot[b] += step
            hot[c] += step
            if w:
                w *= step
                slack[a] -= w
                slack[b] -= w
                slack[c] -= w

    def freeze(e: int, step: int) -> None:
        frozen[e] = step > 0
        slack[e] += step * unbounded
        for ti in eligible_tris[e]:
            n_free[ti] -= step

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
            if d > 0 and n_free[ti] == 1:
                a, b, c = tri_edges[ti]
                e = c if frozen[a] and frozen[b] else b if frozen[a] else a
                raise_edge(e, d)
                trail.append((e, d))
                added += d
        return added

    def analyze(need: int) -> int | None:
        """The open triangle to branch on, or None once a bound shows the
        node needs at least ``need`` more units: the node is cut.

        Every deficient triangle has room for its deficit (see
        ``propagate``), so no bound proves a node infeasible.
        """
        cut = (need - 1) * denom  # D times a bound above this cuts the node
        if packed > cut:  # the LP dual bound
            return None
        disjoint = 0
        used = 0  # edge mask of the greedy edge-disjoint deficient family
        bound = packed  # D times the node dual bound
        room = slack[:]
        # the target is the first deficient triangle of fewest free edges,
        # then largest deficit: the least free * (k + 1) - d, as d <= k
        target, target_key = None, None
        for ti, d in enumerate(deficit):
            if d <= 0:
                continue
            if not used & tri_masks[ti]:
                used |= tri_masks[ti]
                disjoint += d
                if disjoint >= need:
                    return None
            if node_dual:
                a, b, c = tri_edges[ti]
                lift = room[a]
                if room[b] < lift:
                    lift = room[b]
                if room[c] < lift:
                    lift = room[c]
                if lift:
                    room[a] -= lift
                    room[b] -= lift
                    room[c] -= lift
                    bound += lift * d
                    if bound > cut:
                        return None
            key = n_free[ti] * (k + 1) - d
            if target_key is None or key < target_key:
                target, target_key = ti, key
        # fractional bound: one unit on an edge settles at most its count
        # of deficient triangles, so spend capacity on the busiest first;
        # sum(hot * capacity) is the deficient triangles' total room, at
        # least their total deficiency, so the loop always breaks
        rem = deficiency
        frac = 0
        busy = [e for e in range(m) if hot[e] and not frozen[e]]
        for e in sorted(busy, key=hot.__getitem__, reverse=True):
            capacity = k - y[e]
            if capacity * hot[e] < rem:
                frac += capacity
                rem -= capacity * hot[e]
            else:
                frac += -(-rem // hot[e])
                break
        return None if frac >= need else target

    def dfs(units: int, fixed: int | None) -> None:
        nonlocal nodes, best_units, best_y
        nodes += 1
        trail: list[tuple[int, int]] = []
        try:
            if fixed is not None:
                units += propagate(fixed, trail)
            if units >= best_units:
                return
            if not n_open:
                best_units = units
                best_y = y[:]
                return
            ti = analyze(best_units - units)
            if ti is None:
                return
            open_edges = [e for e in tri_edges[ti] if not frozen[e]]
            e = max(open_edges, key=lambda e: (hot[e], -e))
            freeze(e, 1)
            # final value of e stays as-is
            dfs(units, e)
            # or is raised to v
            base = y[e]
            for v in range(base + 1, k + 1):
                raise_edge(e, v - y[e])
                dfs(units + v - base, e)
            if y[e] != base:
                raise_edge(e, base - y[e])
            freeze(e, -1)
        finally:
            for ed, delta in reversed(trail):
                raise_edge(ed, -delta)

    dfs(0, None)
    witness = ChargeAssignment(k, {e: v for e, v in enumerate(best_y) if v})
    if k == 1:
        # the incumbent of every k > 1 on this graph
        memo(g, "tau", lambda: tuple(witness.numerators))
    return OracleResult(Fraction(best_units, k), witness, nodes)
