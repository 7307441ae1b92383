"""Greedy packing, improving swaps and local search."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    Packing,
    build_graph,
    enumerate_triangles,
    greedy_packing,
    local_search_packing,
    nu_exact,
    verify_packing,
)
from tricover.errors import InputError
from tricover.graph import Triangle
from tricover.generators import bowtie, complete_graph, glued_k4, gnp, lend_chain
from tricover import packing
from tricover.packing import (
    SwapCertificate,
    _degree_bound,
    _disjoint_selection,
    _k4_block_bound,
    _nu_bound,
    find_swap,
)

from test_acceptance import suite_instances
from test_order2 import gadget_union


def test_greedy_k4_single_triangle():
    # any two K4 triangles share an edge
    assert len(greedy_packing(complete_graph(4), 0)) == 1
    assert len(greedy_packing(complete_graph(4), 9)) == 1


def test_greedy_bowtie_two_triangles():
    assert len(greedy_packing(bowtie(), 0)) == 2


def test_greedy_triangle_free_empty():
    g = gnp(8, 0.0, 1)
    assert len(greedy_packing(g, 0)) == 0


def test_greedy_deterministic_given_seed():
    g = gnp(10, 0.5, 2)
    assert greedy_packing(g, 5).triangles == greedy_packing(g, 5).triangles
    assert verify_packing(g, greedy_packing(g, 5))


def verify_swap(g, p, cert):
    """True iff applying cert yields a valid packing larger by exactly one."""
    if len(cert.added) != len(cert.removed) + 1:
        return False
    if any(t not in p for t in cert.removed):
        return False
    try:
        q = p.with_swap(cert)
    except ValueError:
        return False
    return verify_packing(g, q) and len(q) == len(p) + 1


def test_improve_bowtie_zero_swap():
    g = bowtie()
    p = Packing(g, [g.triangle(0, 1, 2)])
    cert = find_swap(g, p, 5)
    assert cert is not None and cert.removed == ()
    assert cert.added == (g.triangle(2, 3, 4),)
    assert verify_swap(g, p, cert)


def _bad_swaps():
    """verify_swap's rejections, each against glued_k4(2) packed with
    (0,1,2): a swap must add one more triangle than it removes, remove
    only packed triangles, and leave an edge-disjoint packing of the
    graph's own triangles, canonical vertices and edge ids included."""
    g = glued_k4(2)
    a, b = g.triangle(0, 1, 2), g.triangle(3, 4, 5)
    ids = b.edge_ids
    return {
        "adds nothing": SwapCertificate((), ()),
        "adds two for none": SwapCertificate((), (b, g.triangle(4, 5, 6))),
        "removes an unpacked triangle": SwapCertificate((b,), (a, g.triangle(4, 5, 6))),
        "adds two sharing an edge": SwapCertificate(
            (a,), (g.triangle(0, 1, 3), g.triangle(0, 2, 3))
        ),
        "adds a packed edge": SwapCertificate((), (Triangle((3, 4, 5), a.edge_ids),)),
        "vertices not a triangle": SwapCertificate((), (Triangle((0, 4, 5), ids),)),
        "vertex out of range": SwapCertificate((), (Triangle((3, 4, 9), ids),)),
        "vertices not sorted": SwapCertificate((), (Triangle((5, 4, 3), ids),)),
        "edge ids not the graph's": SwapCertificate((), (Triangle((3, 4, 5), (97, 98, 99)),)),
        "edge ids permuted": SwapCertificate((), (Triangle((3, 4, 5), ids[::-1]),)),
        "removes a triangle with foreign edge ids": SwapCertificate(
            (Triangle(a.vertices, (97, 98, 99)),), (g.triangle(0, 1, 3), b)
        ),
    }


@pytest.mark.parametrize("name", list(_bad_swaps()))
def test_verify_swap_rejects(name):
    g = glued_k4(2)
    p = Packing(g, [g.triangle(0, 1, 2)])
    assert verify_swap(g, p, SwapCertificate((), (g.triangle(3, 4, 5),)))
    assert not verify_swap(g, p, _bad_swaps()[name])


def test_packing_membership_compares_edge_ids():
    # a Triangle is a value over both fields: the packed triple under
    # other edge ids is not a member
    g = glued_k4(2)
    a = g.triangle(0, 1, 2)
    p = Packing(g, [a])
    assert a in p and Triangle(a.vertices, (97, 98, 99)) not in p


def test_packing_rejects_a_triangle_listed_twice():
    # a repeated triangle is not folded into a smaller packing; a shared
    # edge is still reported first, as the certificate checker does
    g = glued_k4(2)
    a, b = g.triangle(0, 1, 2), g.triangle(0, 1, 3)
    with pytest.raises(InputError, match="a triangle is listed twice"):
        Packing(g, [a, a])
    with pytest.raises(InputError, match="used twice in packing"):
        Packing(g, [a, b, a])


def test_improve_k4_already_optimal():
    g = complete_graph(4)
    p = Packing(g, [g.triangle(0, 1, 2)])
    assert find_swap(g, p, 5) is None


def test_improve_k6_from_size_three():
    g = complete_graph(6)
    tris = enumerate_triangles(g)
    rng = random.Random(11)
    p = None
    while p is None or len(p) != 3:
        order = list(tris)
        rng.shuffle(order)
        chosen, used = [], set()
        for t in order:
            if len(chosen) == 3:
                break
            if not any(e in used for e in t.edge_ids):
                chosen.append(t)
                used.update(t.edge_ids)
        p = Packing(g, chosen)
    cert = find_swap(g, p, 5)
    assert cert is not None and verify_swap(g, p, cert)
    assert len(p.with_swap(cert)) == 4 == nu_exact(g).value


def test_local_search_values():
    assert len(local_search_packing(complete_graph(6), 0, 5)) == 4
    assert len(local_search_packing(complete_graph(4), 0, 5)) == 1
    c5 = gnp(5, 0.0, 0)
    assert len(local_search_packing(c5, 0, 5)) == 0


def test_local_search_bracketed_by_greedy_and_exact():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(4, 10)
        g = gnp(n, rng.choice([0.3, 0.5, 0.7]), rng.randint(0, 10**6))
        seed = rng.randint(0, 100)
        gp = greedy_packing(g, seed)
        lp = local_search_packing(g, seed, 5)
        assert verify_packing(g, lp)
        assert len(gp) <= len(lp) <= nu_exact(g).value


def test_swap_certificates_add_exactly_one():
    rng = random.Random(17)
    for _ in range(20):
        g = gnp(rng.randint(5, 9), 0.6, rng.randint(0, 10**6))
        p = greedy_packing(g, rng.randint(1, 50))
        cert = find_swap(g, p, 3)
        if cert is not None:
            assert verify_swap(g, p, cert)
            assert len(p.with_swap(cert)) == len(p) + 1


def test_find_swap_on_locally_optimal_k6():
    g = complete_graph(6)
    p = local_search_packing(g, 0, 5)
    assert find_swap(g, p, 5) is None


def test_swap_search_tries_no_removal_larger_than_the_packing(monkeypatch):
    # gnp(12, 0.5, 1) packs 9 from seed 0, below its ν bound of 10, so the
    # search runs through every size it tries; a max_swap far above |P|
    # once kept it running for minutes before it returned None
    g = gnp(12, 0.5, 1)
    p = local_search_packing(g, 0, 5)
    assert len(p) == 9 and _nu_bound(g) == 10
    sizes = []
    removal_sets = packing._removal_sets

    def recording(nbrs, reqs, size):
        assert size <= len(p), size
        sizes.append(size)
        return removal_sets(nbrs, reqs, size)

    monkeypatch.setattr(packing, "_removal_sets", recording)
    assert find_swap(g, p, 10**9) == find_swap(g, p, len(p)) is None
    assert max(sizes) == len(p)


def test_local_search_terminates_within_edge_bound():
    g = gnp(12, 0.5, 8)
    p = local_search_packing(g, 1, 5)
    assert len(p) <= g.m // 3


def test_max_swap_must_be_positive():
    with pytest.raises(InputError, match="max_swap must be >= 1"):
        local_search_packing(complete_graph(4), 0, 0)


def test_local_search_suite_digest():
    # sha256 of the seed-0 local-search packings of the acceptance suite:
    # it moves whenever the swap search finds a different first swap
    h = hashlib.sha256()
    for _, g in suite_instances():
        h.update(repr([t.vertices for t in local_search_packing(g, 0, 5).triangles]).encode())
    assert h.hexdigest() == "b777f5ec5c845cae81f06aa0a9c2a74f3fe3e4eb881f64b0ca4e9c9ab1a6e4bb"


def test_local_search_gnp20_five_swaps():
    assert len(local_search_packing(gnp(20, 0.5, 1), 0, 5)) == 28


def _relabeled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(4, 10),
    density=st.sampled_from([0.3, 0.5, 0.7]),
    graph_seed=st.integers(0, 10**6),
)
def test_nu_bound_is_an_upper_bound(n, density, graph_seed):
    g = gnp(n, density, graph_seed)
    assert _nu_bound(g) >= nu_exact(g).value


def apex_k23(apex=5, offset=0):
    """The join of vertex ``apex`` with K_{2,3}: parts 0-2 and 3-4 (each
    moved by ``offset``).  Every triangle passes through the apex, whose
    degree 5 allows two, so ν = 2; its degrees 3, 3, 3, 4, 4, 5 give the
    degree bound 3, and no parity cut applies, as four are odd."""
    parts = [(u + offset, v + offset) for u in range(3) for v in (3, 4)]
    spokes = [(u + offset, apex) for u in range(5)]
    return build_graph(max(apex, offset + 4) + 1, parts + spokes)


@pytest.mark.parametrize(
    "g, degree, nu",
    [
        (complete_graph(4), 1, 1),
        (apex_k23(), 3, 2),
        (complete_graph(6), 4, 4),
        (complete_graph(7), 7, 7),
        (complete_graph(8), 8, 8),
        (bowtie(), 2, 2),
        *[(glued_k4(k), k, k) for k in range(1, 5)],
        (lend_chain(2), 4, 3),
        (lend_chain(3), 5, 4),
        (lend_chain(4), 6, 5),
        (complete_graph(5), 2, 2),  # 10 edges, every degree even: the parity bound
        (complete_graph(11), 17, 17),  # 55 edges, every degree even: 18 without it
    ],
)
def test_nu_bound_pins(g, degree, nu):
    # the degree bound and ν; the bound on ν lies between them, and
    # test_block_bound_pins pins it where the two differ
    assert (_degree_bound(g), nu_exact(g).value) == (degree, nu)
    assert nu <= _nu_bound(g) <= degree


def no_search(*args):
    raise RuntimeError("swap search ran")


def test_swap_search_skipped_when_packing_meets_nu_bound(monkeypatch):
    k7, k5, apex = complete_graph(7), complete_graph(5), apex_k23()
    p7, p5 = local_search_packing(k7, 0, 5), local_search_packing(k5, 0, 5)
    pa = local_search_packing(apex, 0, 5)
    monkeypatch.setattr(packing, "_removal_sets", no_search)
    assert len(p7) == _nu_bound(k7) == 7
    assert find_swap(k7, p7, 5) is None
    # K5 meets its parity bound of 2
    assert len(p5) == _nu_bound(k5) == 2
    assert find_swap(k5, p5, 5) is None
    # apex_k23's bound of 3 is above its ν of 2, so the search still runs there
    assert len(pa) == 2 < _nu_bound(apex) == 3
    with pytest.raises(RuntimeError, match="swap search ran"):
        find_swap(apex, pa, 5)


def test_swap_search_skipped_when_packing_meets_block_bound(monkeypatch):
    # the degree bound of 68 would leave the chain's search running; the
    # block bound of 51 ends it on entry, before any selection is tried
    g = _relabeled(lend_chain(50), 1)
    monkeypatch.setattr(packing, "_removal_sets", no_search)
    monkeypatch.setattr(packing, "_disjoint_selection", no_search)
    p = local_search_packing(g, 0, 5)
    assert (len(p), _nu_bound(g), _degree_bound(g)) == (51, 51, 68)
    assert find_swap(g, p, 5) is None


@pytest.mark.parametrize(
    "g, degree, bound",
    [
        (complete_graph(4), 1, 1),  # t >= 4 * degree bound: no scan
        (apex_k23(), 3, 3),  # a block bound of 6 loses to the degree bound
        (bowtie(), 2, 2),
        (glued_k4(3), 3, 3),  # t = 4 * degree bound: no scan
        (lend_chain(2), 4, 3),
        (lend_chain(3), 5, 4),
        (lend_chain(4), 6, 5),
        (lend_chain(100), 134, 101),  # its greedy packing holds 101: ν = 101
        (complete_graph(5), 2, 2),  # the parity bound; t >= 4 * degree bound: no scan
    ],
)
def test_block_bound_pins(g, degree, bound):
    assert (_degree_bound(g), _nu_bound(g)) == (degree, bound)


@settings(max_examples=150, deadline=None)
@given(
    g=st.one_of(
        st.builds(
            lambda length, seed: _relabeled(lend_chain(length), seed),
            st.integers(1, 8),
            st.integers(0, 10**6),
        ),
        st.builds(
            lambda length, seed: _relabeled(glued_k4(length), seed),
            st.integers(1, 4),
            st.integers(0, 10**6),
        ),
        st.builds(lambda seed: gadget_union(random.Random(seed)), st.integers(0, 10**6)),
    )
)
def test_block_bound_is_an_upper_bound(g):
    # a degree bound of t never skips the block scan, so this is t - 3k
    t = len(enumerate_triangles(g))
    assert _k4_block_bound(g, t) >= nu_exact(g).value


def test_local_search_relabeled_chains_digest():
    # sha256 of the seed-0 local-search packings of long chains under a
    # fixed relabeling: in their own labels greedy already packs them
    # well, relabeled the swap search picks among pools of up to 15
    # triangles and reaches the deep branches of the selection
    h = hashlib.sha256()
    for gen, length in [
        (lend_chain, 50),
        (lend_chain, 75),
        (lend_chain, 100),
        (glued_k4, 100),
        (glued_k4, 150),
        (glued_k4, 200),
    ]:
        g = _relabeled(gen(length), 7 * length + 1)
        h.update(repr([t.vertices for t in local_search_packing(g, 0, 5).triangles]).encode())
    assert h.hexdigest() == "6e0b78882f4ffa4a96602010327e285bbda869e3eb383975af57025965da2187"


def _ref_mask_selection(masks, need):
    """The in-order backtracking scan the clique search must agree with:
    each node scans the later masks, skipping those that meet the union
    of the chosen ones, and cuts when the unused edges left in the
    remaining masks cannot hold 3 per triangle still to pick."""
    suffix = [0] * (len(masks) + 1)
    for i in range(len(masks) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    chosen = []

    def dfs(idx, used):
        if len(chosen) == need:
            return True
        if (suffix[idx] & ~used).bit_count() < 3 * (need - len(chosen)):
            return False
        for j in range(idx, len(masks)):
            if masks[j] & used:
                continue
            chosen.append(j)
            if dfs(j + 1, used | masks[j]):
                return True
            chosen.pop()
        return False

    return chosen if dfs(0, 0) else None


@st.composite
def _mask_pools(draw):
    edges = draw(st.integers(3, 18))
    triple = st.sets(st.integers(0, edges - 1), min_size=3, max_size=3)
    return draw(st.lists(triple.map(lambda es: sum(1 << e for e in es)), max_size=24))


@settings(max_examples=500, deadline=None)
@given(masks=_mask_pools(), need=st.integers(1, 6))
def test_disjoint_selection_matches_scan(masks, need):
    assert _disjoint_selection(masks, need) == _ref_mask_selection(masks, need)


# Reference oracle: the swap search on Triangle objects and sets of edge
# ids.  The integer search in tricover.packing must return the same
# certificate, removed and added in the same order.


def _ref_connected_subsets(nodes, nbrs, size):
    for i, root in enumerate(nodes):
        allowed = set(nodes[i + 1 :])

        def grow(current, frontier, excluded):
            if len(current) == size:
                yield current
                return
            ex = set(excluded)
            for t in sorted(frontier - excluded):
                nxt = (frontier | (nbrs[t] & allowed)) - set(current) - {t}
                yield from grow(current + (t,), frozenset(nxt), frozenset(ex))
                ex.add(t)

        yield from grow((root,), frozenset(nbrs[root] & allowed), frozenset())


def _ref_disjoint_selection(pool, need):
    chosen, used = [], set()

    def dfs(idx):
        if len(chosen) == need:
            return True
        if len(pool) - idx < need - len(chosen):
            return False
        for j in range(idx, len(pool)):
            t = pool[j]
            if any(e in used for e in t.edge_ids):
                continue
            chosen.append(t)
            used.update(t.edge_ids)
            if dfs(j + 1):
                return True
            chosen.pop()
            used.difference_update(t.edge_ids)
        return False

    return chosen if dfs(0) else None


def _ref_find_swap(g, p, max_swap):
    all_tris = enumerate_triangles(g)
    packed = set(p.triangles)
    free = [t for t in all_tris if not any(e in p.used_edges for e in t.edge_ids)]
    if free:
        return SwapCertificate(removed=(), added=(free[0],))
    nbrs = {t: set() for t in p.triangles}
    for i, a in enumerate(p.triangles):
        for b in p.triangles[i + 1 :]:
            if set(a.vertices) & set(b.vertices):
                nbrs[a].add(b)
                nbrs[b].add(a)
    nonpacked = [t for t in all_tris if t not in packed]
    for r in range(1, max_swap + 1):
        for removal in _ref_connected_subsets(p.triangles, nbrs, r):
            freed = {e for t in removal for e in t.edge_ids}
            pool = [
                t
                for t in nonpacked
                if all(e in freed or e not in p.used_edges for e in t.edge_ids)
            ]
            if len(pool) <= r:
                continue
            found = _ref_disjoint_selection(pool, r + 1)
            if found is not None:
                return SwapCertificate(removed=removal, added=tuple(found))
    return None


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(6, 12),
    density=st.sampled_from([0.3, 0.5, 0.7]),
    graph_seed=st.integers(0, 10**6),
    order_seed=st.integers(0, 100),
    drop_one=st.booleans(),
    max_swap=st.integers(1, 4),
    data=st.data(),
)
def test_swap_search_matches_reference(
    n, density, graph_seed, order_seed, drop_one, max_swap, data
):
    g = gnp(n, density, graph_seed)
    tris = list(greedy_packing(g, order_seed).triangles)
    if drop_one and tris:
        tris.pop(data.draw(st.integers(0, len(tris) - 1)))
    p = Packing(g, tris)
    assert find_swap(g, p, max_swap) == _ref_find_swap(g, p, max_swap)


@settings(max_examples=150, deadline=None)
@given(
    chain=st.booleans(),
    size=st.integers(6, 12),
    density=st.sampled_from([0.3, 0.5, 0.7]),
    graph_seed=st.integers(0, 10**6),
    order_seed=st.integers(0, 100),
    max_swap=st.integers(1, 3),
)
def test_repair_search_matches_reference(
    chain, size, density, graph_seed, order_seed, max_swap
):
    # cover's repair search on a local-search packing, two sizes past the
    # search that made it: the removal sets it tries from size 2 on are
    # pruned to those whose every member can lose two edges.  A chain's
    # packing meets its block bound, so apex_k23 lies beside it: it packs
    # 2 of its bounds of 3 and 6, and the chain's search runs in full
    if chain:
        h = lend_chain(size - 5)
        a = apex_k23(h.n + 5, h.n)
        g = _relabeled(build_graph(a.n, h.edges + a.edges), graph_seed)
    else:
        g = gnp(size, density, graph_seed)
    p = local_search_packing(g, order_seed, max_swap)
    assert find_swap(g, p, max_swap + 2) == _ref_find_swap(g, p, max_swap + 2)


def test_candidate_hit_on_one_edge_is_never_removed(monkeypatch):
    # 012 and 234 can lose only the edge each shares with the non-packed
    # 123; next to them apex_k23 on 5..10, packed with two triangles through
    # its apex 10, keeps the ν bound above |P|, so the search runs through
    # size 2 and finds nothing
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (1, 3)]
    edges += apex_k23(10, 5).edges
    g = build_graph(11, edges)
    packed = [g.triangle(*vs) for vs in [(0, 1, 2), (2, 3, 4), (5, 8, 10), (6, 9, 10)]]
    p = Packing(g, packed)
    assert len(p) < _nu_bound(g)
    tried = []
    removal_sets = packing._removal_sets

    def recording(nbrs, reqs, size):
        for removal, rm in removal_sets(nbrs, reqs, size):
            tried.append(removal)
            yield removal, rm

    monkeypatch.setattr(packing, "_removal_sets", recording)
    assert find_swap(g, p, 3) is None
    assert tried == [(2, 3)]  # the two triangles through the apex, ids 2 and 3
    # the unpruned enumeration also removes 012 and 234 together
    nbrs = {
        t: {u for u in packed if u != t and set(u.vertices) & set(t.vertices)}
        for t in packed
    }
    assert (packed[0], packed[1]) in _ref_connected_subsets(packed, nbrs, 2)
