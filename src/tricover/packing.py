"""Triangle packings: greedy seeding and bounded improving-swap local search.

A swap certificate replaces r packed triangles by r+1 pairwise
edge-disjoint ones, witnessing that the packing was not maximum.  The
search enumerates removal sets that are connected under vertex sharing;
a minimal improving swap always has that form because any added triangle
bridging two removed ones shares a vertex with both.

The search runs on integers.  The packed triangles get ids 0..|P|-1 in
sorted order, so a removal set is a bitmask, vertex-sharing neighbours
are bitmasks, and taking the lowest set bit first is taking the smallest
triangle first.  Every triangle is an index into ``enumerate_triangles``
order with a 3-bit mask of its edge ids, and pairwise disjointness is a
test on those masks.  Each non-packed triangle has a conflict mask: the
packed triangles that hold one of its edges.  It is listed under its
lowest conflicting one, and the pool for a removal mask ``rm`` is then
the listed triangles of its members whose conflict mask lies inside
``rm``, in enumeration order.  The triangles and their edge masks come
from the graph's memo, so both are built once per graph, not once per
swap.

The added triangles are picked from the pool by an ordered clique search
on bitsets of pool positions (the bit-parallel search of San Segundo et
al., 2011, without reordering): a selection is a clique in the graph
whose edges join edge-disjoint pool triangles.  Each position keeps the
bitmask of the later positions disjoint from it; the candidates that
extend a selection are the AND of those masks, taken lowest position
first, and a branch with fewer candidates than triangles still to pick
is cut.  The candidates at each node are exactly the later positions
that a scan of the pool in order would not skip, visited in the same
order, and a cut only drops branches without a selection, so the first
selection found, and with it every swap, is the one a plain in-order
backtracking scan finds.

The search returns a free triangle first and then tries removal sizes
r = 1, 2, ... in order, stopping at the first swap.  So when it reaches
size r, no connected removal set smaller than r has a selection, and
then every removed triangle ρ of a size-r swap (R, A) shares an edge
with at least two triangles of A.  Suppose ρ shared an edge with at most
one, a.  Drop ρ and a (or any triangle of A if none touches ρ): the r
triangles left use only free edges and edges of R minus ρ.  For r = 1 the
one left is a free triangle.  Otherwise none is free, and each conflicts
only with packed triangles in one vertex-sharing component of R minus ρ,
because two edges of a triangle meet in a vertex; by pigeonhole some
component C holds more than |C| of them: a connected improving swap of
size below r, which the search would have returned.  Two triangles of A
on ρ are edge-disjoint, so they use two distinct edges of ρ.  The
requirement masks of a packed triangle's edge follow: for each listed
triangle through the edge, the other packed triangles it conflicts
with.  A removal set has a selection only if each member has two edges
with a mask inside the set.  From size 2 on, the removal sets are grown
with a cut as soon as a taken member has fewer than two edges with a
mask that the ids still open to the branch can fill within the slots
left, and a packed triangle with fewer than two edges with a mask is
never removed.  The sets that remain come in the same order, so the
first swap found is unchanged.  The masks are built when a search first
reaches size 2, since most searches end before it, and are kept per
edge: their unions over two edges run to hundreds per packed triangle
on dense graphs.

Before any of that, the search compares the packing with an upper bound
on ν kept in the graph's memo, the smaller of two bounds.  The degree
bound: join two edges when they lie in a common triangle; every
triangle then lies inside one of the resulting edge-components C, and
edges in no triangle are left out.  A packed triangle of C uses two
edges of C at each of its three vertices, so at most ⌊deg_C(v)/2⌋
packed triangles meet v and a packing holds at most
⌊Σ_v ⌊deg_C(v)/2⌋ / 3⌋ triangles of C (never more than ⌊|E_C|/3⌋).
When every degree in C is even, that sum h is |E_C|, and if h is not a
multiple of 3 the bound falls by one: the leave argument behind the
Schönheim bound (Schönheim, 1966).  The edges of C that no packed
triangle uses, its leave, have every degree even, since a packed
triangle uses two edges at each of its vertices; their number is
congruent to h mod 3, so not zero, and a nonempty graph with every
degree even holds a cycle, so at least 3 edges and here at least 4.
So C packs at most (h − 4)/3 triangles, which rounds down to
⌊h/3⌋ − 1.  The bound is the sum of these over the components; K5 and
K11 (h = 10 and 55) meet it.  The K4-block bound settles the chains of
K4s that the degree bound leaves loose.
Two triangles of one K4 share an edge: they miss different vertices of
its four, so both contain the other two and the edge between them.  A
packing therefore holds at most one triangle of a K4, and with k K4s
that have no triangle in common, ν ≤ t − 3k for t triangles.  The K4s
are picked greedily: each triangle abc not yet claimed, in enumeration
order, takes the first d > c on its side ab whose triangles abd, acd
and bcd are all unclaimed, and the four are claimed.  When t ≥ 4 times
the degree bound, t − 3k ≥ t/4 cannot go below it, so the scan is
skipped; dense graphs thus pay nothing for it.  A packing that meets
the bound is maximum, so the search returns None at once, as the full
search would have: every packing, swap and result is unchanged.
``oracles.nu_exact`` and ``cli``'s ``bench`` read the same bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import Graph, Triangle, edge_masks, enumerate_triangles, memo

# largest removal set the local search tries; 5, not 3, because the
# acceptance suite packs 632 triangles per order at 5 and 624 at 3
DEFAULT_MAX_SWAP = 5


@dataclass(frozen=True)
class SwapCertificate:
    removed: tuple[Triangle, ...]
    added: tuple[Triangle, ...]


class Packing:
    """A set of pairwise edge-disjoint triangles, each listed once."""

    def __init__(self, g: Graph, triangles: list[Triangle]):
        self.g = g
        self._members: frozenset[Triangle] = frozenset(triangles)
        self.triangles: tuple[Triangle, ...] = tuple(sorted(self._members))
        used: set[int] = set()
        for t in self.triangles:
            for e in t.edge_ids:
                if e in used:
                    raise ValueError(f"edge {e} used twice in packing")
                used.add(e)
        # checked after the edges, so a shared edge is reported first, as in checker
        if len(self.triangles) != len(triangles):
            raise ValueError("a triangle is listed twice")
        self.used_edges: frozenset[int] = frozenset(used)

    def __len__(self) -> int:
        return len(self.triangles)

    def __contains__(self, t: Triangle) -> bool:
        return t in self._members

    def with_swap(self, cert: SwapCertificate) -> "Packing":
        return Packing(self.g, [*self._members.difference(cert.removed), *cert.added])


def verify_packing(g: Graph, p: Packing) -> bool:
    """True iff every triangle is one of g's, with its canonical vertices
    and edge ids, and no edge is used twice."""
    seen: set[int] = set()
    for t in p.triangles:
        try:
            if g.triangle(*t.vertices) != t:
                return False
        except KeyError:
            return False
        for e in t.edge_ids:
            if e in seen:
                return False
            seen.add(e)
    return seen == set(p.used_edges)


def greedy_packing(g: Graph, order_seed: int = 0) -> Packing:
    """Maximal packing from a greedy pass over all triangles.

    Seed 0 keeps the canonical triangle order; any other seed is a
    deterministic shuffle.
    """
    pairs = list(zip(enumerate_triangles(g), edge_masks(g)))
    if order_seed != 0:
        random.Random(order_seed).shuffle(pairs)
    used = 0
    chosen: list[Triangle] = []
    for t, mask in pairs:
        if not mask & used:
            chosen.append(t)
            used |= mask
    return Packing(g, chosen)


def _requirements(
    packed: tuple[Triangle, ...],
    tris: tuple[Triangle, ...],
    owner: list[int],
    listed: list[list[tuple[int, int]]],
) -> list[list[list[int]]]:
    """The requirement masks (module docstring) of each packed triangle's edges.

    A listed triangle through a packed triangle's edge can join a
    selection only once the other packed triangles it conflicts with are
    removed too.  Each packed triangle gets one sorted list of distinct
    masks per edge that has any.
    """
    masks_at: dict[int, set[int]] = {}
    for entries in listed:
        for i, conflict in entries:
            for e in tris[i].edge_ids:
                if bit := owner[e]:
                    masks_at.setdefault(e, set()).add(conflict ^ bit)
    return [[sorted(masks_at[e]) for e in t.edge_ids if e in masks_at] for t in packed]


def _removal_sets(nbrs: list[int], reqs: list[list[list[int]]], size: int):
    """Connected size-`size` removal sets whose members can each lose two edges.

    ``nbrs[i]`` is the bitmask of the ids sharing a vertex with ``i`` and
    ``reqs[i]`` the requirement masks of its edges.  Each set is produced
    once, as its ids in the order taken plus its bitmask: grown from its
    lowest id, the frontier extended only with higher ids, and every
    frontier member either taken now or excluded from the rest of this
    root's search tree.  Frontier members are taken lowest id first.  A
    branch is cut as soon as a taken member has fewer than two edges with
    a mask that the ids still open to it (taken, or above the root and
    not excluded) can fill within the slots left, and an id with fewer
    than two edges with a mask is never taken.  The sets a cut drops have
    no selection, and the others come in the same order.
    """

    def fits(members: tuple[int, ...], taken: int, excluded: int, slots: int) -> bool:
        closed = ~(taken | (allowed & ~excluded))
        for m in members:
            hit = 0
            for masks in reqs[m]:
                for q in masks:
                    if not q & closed and (q & ~taken).bit_count() <= slots:
                        hit += 1
                        break
                if hit == 2:
                    break
            else:
                return False
        return True

    def grow(current: tuple[int, ...], taken: int, frontier: int, excluded: int):
        slots = size - len(current) - 1  # left once the next member is taken
        todo = frontier & ~excluded
        while todo:
            low = todo & -todo
            t = low.bit_length() - 1
            now = current + (t,)
            now_taken = taken | low
            if fits(now, now_taken, excluded, slots):
                if slots:
                    nxt = (frontier | (nbrs[t] & allowed)) & ~now_taken
                    yield from grow(now, now_taken, nxt, excluded)
                else:
                    yield now, now_taken
            excluded |= low
            todo ^= low

    live = sum(1 << i for i, edges in enumerate(reqs) if len(edges) > 1)
    for root in range(len(nbrs)):
        if live >> root & 1:
            allowed = live & (-2 << root)  # every live id above root
            yield from grow((), 0, 1 << root, 0)


def _disjoint_selection(masks: list[int], need: int) -> list[int] | None:
    """Positions of the first `need` pairwise disjoint masks in DFS order, or None.

    An ordered clique search on bitsets of positions: ``later[j]`` holds
    the positions after ``j`` whose masks are disjoint from ``masks[j]``,
    so the candidates that extend a partial selection are one AND away,
    and a branch with fewer candidates than selections still to make is
    cut.  Every mask has three edge bits, so `need` disjoint ones cover
    3*need edges; a pool whose masks jointly hold fewer has no solution.
    """
    union = 0
    for mk in masks:
        union |= mk
    if union.bit_count() < 3 * need:
        return None
    later: list[int] = []
    for j, mj in enumerate(masks):
        disjoint, bit = 0, 2 << j
        for mk in masks[j + 1 :]:
            if not mk & mj:
                disjoint |= bit
            bit <<= 1
        later.append(disjoint)
    chosen: list[int] = []

    def dfs(cand: int, left: int) -> bool:
        if not left:
            return True
        while cand.bit_count() >= left:
            low = cand & -cand
            j = low.bit_length() - 1
            chosen.append(j)
            if dfs(cand & later[j], left - 1):
                return True
            chosen.pop()
            cand ^= low
        return False

    return chosen if dfs((1 << len(masks)) - 1, need) else None


def _nu_bound(g: Graph) -> int:
    """The upper bound on ν of the module docstring, kept in the graph's memo."""
    return memo(g, "nu_bound", lambda: _k4_block_bound(g, _degree_bound(g)))


def _degree_bound(g: Graph) -> int:
    root = list(range(g.m))

    def find(e: int) -> int:
        while root[e] != e:
            root[e] = root[root[e]]
            e = root[e]
        return e

    in_triangle = bytearray(g.m)
    for a, b, c in (t.edge_ids for t in enumerate_triangles(g)):
        in_triangle[a] = in_triangle[b] = in_triangle[c] = 1
        a, b, c = find(a), find(b), find(c)
        root[b] = root[c] = a
    n = g.n
    degree: dict[int, int] = {}  # keyed by component * n + vertex
    for e, (u, v) in enumerate(g.edges):
        if in_triangle[e]:
            key = find(e) * n
            degree[key + u] = degree.get(key + u, 0) + 1
            degree[key + v] = degree.get(key + v, 0) + 1
    halves: dict[int, int] = {}
    odd: set[int] = set()  # the components with a vertex of odd degree
    for key, d in degree.items():
        c = key // n
        halves[c] = halves.get(c, 0) + d // 2
        if d & 1:
            odd.add(c)
    # the parity bound: with every degree even and h % 3 != 0, the leave
    # holds at least 4 edges, so the component packs at most h // 3 - 1
    return sum(h // 3 - (h % 3 != 0 and c not in odd) for c, h in halves.items())


def _k4_block_bound(g: Graph, degree: int) -> int:
    """The K4-block bound, or `degree` when that is smaller."""
    tris = enumerate_triangles(g)
    if len(tris) >= 4 * degree:
        return degree
    above: dict[int, list[int]] = {}  # side ab of a < b: each d > b with abd a triangle
    for (_, _, d), (ab, _, _) in tris:
        above.setdefault(ab, []).append(d)
    claimed: set[tuple[int, int, int]] = set()
    blocks = 0
    for (a, b, c), (ab, _, _) in tris:
        if (a, b, c) in claimed:
            continue
        for d in above[ab]:
            if d > c and g.has_edge(c, d):
                rest = ((a, b, d), (a, c, d), (b, c, d))
                if claimed.isdisjoint(rest):
                    claimed.add((a, b, c))
                    claimed.update(rest)
                    blocks += 1
                    break
    return min(degree, len(tris) - 3 * blocks)


def find_swap(g: Graph, p: Packing, max_swap: int) -> SwapCertificate | None:
    """The first improving swap of ``p`` whose removals are a connected set
    of at most ``max_swap`` packed triangles, or None.  No removal set is
    larger than the packing, so sizes above ``len(p)`` are not tried."""
    if len(p) >= _nu_bound(g):
        return None
    packed = p.triangles
    tris = enumerate_triangles(g)
    emasks = edge_masks(g)
    owner = [0] * g.m  # owner[e]: the bit of the packed triangle on e, 0 when e is free
    at_vertex = [0] * g.n
    for i, t in enumerate(packed):
        for e in t.edge_ids:
            owner[e] = 1 << i
        for v in t.vertices:
            at_vertex[v] |= 1 << i
    nbrs = [
        (at_vertex[a] | at_vertex[b] | at_vertex[c]) & ~(1 << i)
        for i, (a, b, c) in enumerate(t.vertices for t in packed)
    ]

    listed: list[list[tuple[int, int]]] = [[] for _ in packed]
    for i, t in enumerate(tris):
        a, b, c = t.edge_ids
        conflict = owner[a] | owner[b] | owner[c]
        if conflict == 0:
            return SwapCertificate(removed=(), added=(t,))
        if t not in p:
            listed[(conflict & -conflict).bit_length() - 1].append((i, conflict))

    for r in range(1, min(max_swap, len(packed)) + 1):
        if r == 1:
            sets = (((c,), 1 << c) for c in range(len(packed)))
        else:
            if r == 2:  # built only now: most searches end before size 2
                reqs = _requirements(packed, tris, owner, listed)
            sets = _removal_sets(nbrs, reqs, r)
        for removal, rm in sets:
            pool = sorted(
                i for c in removal for i, conflict in listed[c] if not conflict & ~rm
            )
            if len(pool) <= r:
                continue
            found = _disjoint_selection([emasks[i] for i in pool], r + 1)
            if found is not None:
                return SwapCertificate(
                    removed=tuple(packed[c] for c in removal),
                    added=tuple(tris[pool[j]] for j in found),
                )
    return None


def local_search_packing(
    g: Graph, seed: int = 0, max_swap: int = DEFAULT_MAX_SWAP
) -> Packing:
    """Greedy packing improved until no swap of size <= max_swap is found."""
    if max_swap < 1:
        raise ValueError("max_swap must be >= 1")
    p = greedy_packing(g, seed)
    while (cert := find_swap(g, p, max_swap)) is not None:
        p = p.with_swap(cert)
    return p
