"""Greedy packing, improving swaps and local search."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    Packing,
    SwapCertificate,
    enumerate_triangles,
    greedy_packing,
    improve_packing,
    local_search_packing,
    nu_exact,
    targeted_swap,
    verify_packing,
    verify_swap,
)
from tricover.generators import bowtie, complete_graph, gnp
from tricover.order2 import (
    build_chains,
    build_lend,
    check_demand_lemma,
    compute_demanding,
    initial_half_charge,
)
from tricover.structure import build_structure, check_structure

from test_acceptance import suite_instances


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


def test_improve_bowtie_zero_swap():
    g = bowtie()
    p = Packing(g, [g.triangle(0, 1, 2)])
    cert = improve_packing(g, p, 5)
    assert cert is not None and cert.removed == ()
    assert cert.added == (g.triangle(2, 3, 4),)
    assert verify_swap(g, p, cert)


def test_improve_k4_already_optimal():
    g = complete_graph(4)
    p = Packing(g, [g.triangle(0, 1, 2)])
    assert improve_packing(g, p, 5) is None


def test_improve_k6_from_size_three():
    g = complete_graph(6)
    tris = enumerate_triangles(g)
    rng = random.Random(11)
    p = None
    while p is None or len(p) != 3:
        order = tris[:]
        rng.shuffle(order)
        chosen, used = [], set()
        for t in order:
            if len(chosen) == 3:
                break
            if not any(e in used for e in t.edge_ids):
                chosen.append(t)
                used.update(t.edge_ids)
        p = Packing(g, chosen)
    cert = improve_packing(g, p, 5)
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
        cert = improve_packing(g, p, 3)
        if cert is not None:
            assert verify_swap(g, p, cert)
            assert len(p.with_swap(cert)) == len(p) + 1


def test_targeted_swap_empty_focus():
    g = complete_graph(6)
    p = local_search_packing(g, 0, 5)
    assert targeted_swap(g, p, set(), 5) is None


def test_targeted_swap_on_locally_optimal_k6():
    g = complete_graph(6)
    p = local_search_packing(g, 0, 5)
    assert targeted_swap(g, p, set(range(g.m)), 5) is None


def test_targeted_swap_repairs_demand_violation():
    # fuzz-found: a greedy packing that passes the structural checks but
    # violates the demanding-triangle lemma; the witness edges localize
    # an improving swap
    g = gnp(7, 0.6, 4)
    p = greedy_packing(g, 4)
    s = build_structure(g, p)
    assert check_structure(s) == []
    cs = initial_half_charge(s)
    chains = build_chains(s, build_lend(s), cs)
    ds = compute_demanding(s, chains)
    witness = check_demand_lemma(s, ds)
    assert witness is not None
    cert = targeted_swap(g, p, witness, 5)
    assert cert is not None and verify_swap(g, p, cert)


def test_local_search_terminates_within_edge_bound():
    g = gnp(12, 0.5, 8)
    p = local_search_packing(g, 1, 5)
    assert len(p) <= g.m // 3


def test_max_swap_must_be_positive():
    g = complete_graph(4)
    p = greedy_packing(g, 0)
    with pytest.raises(ValueError):
        improve_packing(g, p, 0)


def test_local_search_suite_digest():
    # sha256 of the seed-0 local-search packings of the acceptance suite:
    # it moves whenever the swap search finds a different first swap
    h = hashlib.sha256()
    for _, g in suite_instances():
        h.update(repr([t.vertices for t in local_search_packing(g, 0, 5).triangles]).encode())
    assert h.hexdigest() == "b777f5ec5c845cae81f06aa0a9c2a74f3fe3e4eb881f64b0ca4e9c9ab1a6e4bb"


def test_local_search_gnp20_five_swaps():
    assert len(local_search_packing(gnp(20, 0.5, 1), 0, 5)) == 28


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


def _ref_find_swap(g, p, max_swap, eligible=None):
    all_tris = enumerate_triangles(g)
    packed = set(p.triangles)
    free = [t for t in all_tris if not any(p.uses(e) for e in t.edge_ids)]
    if free:
        return SwapCertificate(removed=(), added=(free[0],))
    candidates = list(p.triangles) if eligible is None else sorted(eligible)
    nbrs = {t: set() for t in candidates}
    for i, a in enumerate(candidates):
        for b in candidates[i + 1 :]:
            if set(a.vertices) & set(b.vertices):
                nbrs[a].add(b)
                nbrs[b].add(a)
    nonpacked = [t for t in all_tris if t not in packed]
    for r in range(1, max_swap + 1):
        for removal in _ref_connected_subsets(candidates, nbrs, r):
            freed = {e for t in removal for e in t.edge_ids}
            pool = [
                t for t in nonpacked if all(e in freed or not p.uses(e) for e in t.edge_ids)
            ]
            if len(pool) <= r:
                continue
            found = _ref_disjoint_selection(pool, r + 1)
            if found is not None:
                return SwapCertificate(removed=removal, added=tuple(found))
    return None


def _ref_targeted_swap(g, p, focus_edges, max_swap):
    if not focus_edges:
        return None
    verts0 = {v for e in focus_edges for v in g.edges[e]}
    edges1 = {i for i, (u, v) in enumerate(g.edges) if u in verts0 or v in verts0}
    verts1 = {v for e in edges1 for v in g.edges[e]}
    eligible = [
        t
        for t in p.triangles
        if any(g.edges[e][0] in verts1 or g.edges[e][1] in verts1 for e in t.edge_ids)
    ]
    return _ref_find_swap(g, p, max_swap, eligible=eligible)


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
    focus = data.draw(st.sets(st.sampled_from(range(g.m)), max_size=4)) if g.m else set()
    assert improve_packing(g, p, max_swap) == _ref_find_swap(g, p, max_swap)
    assert targeted_swap(g, p, focus, max_swap) == _ref_targeted_swap(g, p, focus, max_swap)
