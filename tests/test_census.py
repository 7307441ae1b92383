"""The census: every structure-clean maximal packing of every graph on at
most 7 vertices charges and verifies at orders 2, 3 and 6.

The graphs, one per isomorphism class, are in ``data/small_graphs.g6``,
written by ``data/small_graphs.py``.
"""

import random
from collections import Counter
from pathlib import Path

from tricover import (
    Packing,
    build_graph,
    build_structure,
    charge_order3,
    charge_order6,
    enumerate_triangles,
    run_order2,
    verify_cover,
)
from tricover.graph import edge_masks

GRAPHS = Path(__file__).parent / "data" / "small_graphs.g6"
A000088 = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def parse_graph6(line: str):
    n = ord(line[0]) - 63
    bits = [(ord(ch) - 63) >> k & 1 for ch in line[1:] for k in range(5, -1, -1)]
    pairs = [(i, j) for j in range(n) for i in range(j)]
    return build_graph(n, [pair for pair, bit in zip(pairs, bits) if bit])


def small_graphs():
    return [parse_graph6(line) for line in GRAPHS.read_text().split()]


def relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return build_graph(g.n, edges)


def maximal_packings(g):
    """Every maximal packing, as triangle index lists: the maximal cliques
    of the edge-disjointness graph on the triangles (Bron-Kerbosch, with
    the lowest candidate or excluded triangle as pivot)."""
    masks = edge_masks(g)
    fits = [
        sum(1 << j for j, mj in enumerate(masks) if not mi & mj) for mi in masks
    ]

    def extend(chosen, cand, done):
        both = cand | done
        if not both:
            yield chosen
            return
        pivot = (both & -both).bit_length() - 1
        todo = cand & ~fits[pivot]
        while todo:
            low = todo & -todo
            v = low.bit_length() - 1
            yield from extend(chosen + [v], cand & fits[v], done & fits[v])
            cand ^= low
            done |= low
            todo ^= low

    if masks:
        yield from extend([], (1 << len(masks)) - 1, 0)


def census(g):
    """The number of structure-clean maximal packings of g, and the
    (order, vertices) of each one that fails to charge or verify."""
    tris = enumerate_triangles(g)
    clean, failures = 0, []
    for chosen in maximal_packings(g):
        packing = Packing(g, [tris[i] for i in chosen])
        s = build_structure(g, packing)
        if s.violations:
            continue
        clean += 1
        for f in (run_order2(s)[0].assignment, charge_order3(s), charge_order6(s)):
            if not verify_cover(g, f, len(packing)).ok:
                failures.append((f.order, [t.vertices for t in packing.triangles]))
    return clean, failures


def test_small_graphs_are_every_graph_up_to_isomorphism():
    assert Counter(g.n for g in small_graphs()) == A000088


def test_every_clean_packing_charges_and_verifies():
    rng = random.Random(0)
    for labeling in ("as written", "relabeled"):
        total = 0
        for g in small_graphs():
            if labeling == "relabeled":
                g = relabeled(g, rng)
            clean, failures = census(g)
            assert not failures, (labeling, g.n, g.edges, failures)
            total += clean
        assert total == 4197, labeling
