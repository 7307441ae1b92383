"""Graph construction, triangle enumeration and edge-list I/O."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    build_graph,
    enumerate_triangles,
    format_edge_list,
    greedy_packing,
    parse_edge_list,
)
from tricover.errors import InputError
from tricover.generators import complete_graph, gnp
from tricover.graph import MAX_VERTICES


def triangles_on_edge(g, eid):
    """Reference: all triangles containing edge ``eid``, canonical order."""
    u, v = g.edges[eid]
    common = [w for w in range(g.n) if g.has_edge(u, w) and g.has_edge(v, w)]
    return [g.triangle(u, v, w) for w in common]


def naive_triangle_count(g):
    return sum(
        1
        for a, b, c in itertools.combinations(range(g.n), 3)
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
    )


def test_smallest_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.m == 3
    assert len(enumerate_triangles(g)) == 1


def test_k4_has_four_triangles():
    g = complete_graph(4)
    assert g.m == 6
    assert len(enumerate_triangles(g)) == 4


def test_k6_has_twenty_triangles():
    # C(6,3): every vertex triple closes
    assert len(enumerate_triangles(complete_graph(6))) == 20


def test_five_cycle_triangle_free():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert enumerate_triangles(g) == ()


def test_duplicate_edge_rejected():
    with pytest.raises(InputError, match=r"duplicate edge \(0,1\)"):
        build_graph(3, [(0, 1), (0, 1)])
    with pytest.raises(InputError, match=r"duplicate edge \(0,1\)"):
        build_graph(3, [(0, 1), (1, 0)])


def test_self_loop_rejected():
    with pytest.raises(InputError, match="self-loop at vertex 1"):
        build_graph(3, [(1, 1)])


def test_vertex_out_of_range_rejected():
    with pytest.raises(InputError, match=r"edge \(0,3\) outside 0\.\.2"):
        build_graph(3, [(0, 3)])


def test_edge_ids_stable_and_symmetric():
    g = build_graph(4, [(2, 1), (0, 3), (1, 0)])
    assert g.edges == [(1, 2), (0, 3), (0, 1)]
    for eid, (u, v) in enumerate(g.edges):
        assert g.edge_id(u, v) == g.edge_id(v, u) == eid


def test_triangles_on_edge_k4_and_k6():
    g4 = complete_graph(4)
    assert all(len(triangles_on_edge(g4, e)) == 2 for e in range(g4.m))
    g6 = complete_graph(6)
    # every edge closes a triangle with each of the n-2 other vertices
    assert all(len(triangles_on_edge(g6, e)) == 4 for e in range(g6.m))


def test_triangles_on_edge_path_empty():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert triangles_on_edge(g, 0) == []


def test_callers_cannot_change_the_memoised_triangles():
    # the tuple is kept in the graph's memo and returned as is; greedy
    # packing shuffles its own list, so it leaves the tuple unchanged
    g = gnp(10, 0.6, 3)
    expected = enumerate_triangles(build_graph(g.n, g.edges))
    tris = enumerate_triangles(g)
    assert isinstance(tris, tuple) and tris == expected
    greedy_packing(g, 7)
    assert enumerate_triangles(g) is tris
    assert tris == expected


def test_enumeration_matches_naive_on_random_graphs():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 12)
        g = gnp(n, rng.choice([0.2, 0.5, 0.8]), rng.randint(0, 10**6))
        tris = enumerate_triangles(g)
        assert len(tris) == naive_triangle_count(g)
        assert list(tris) == sorted(tris)
        for t in tris:
            for e in t.edge_ids:
                assert t in triangles_on_edge(g, e)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.floats(0.0, 1.0), st.integers(0, 10**6))
def test_triangle_count_property(n, p, seed):
    g = gnp(n, p, seed)
    tris = enumerate_triangles(g)
    assert len(tris) == naive_triangle_count(g)
    seen_edges = {e for t in tris for e in t.edge_ids}
    for eid in range(g.m):
        on_edge = triangles_on_edge(g, eid)
        assert all(eid in t.edge_ids for t in on_edge)
        assert (eid in seen_edges) == bool(on_edge)


def test_edge_list_round_trip():
    g = gnp(9, 0.4, 3)
    text = format_edge_list(g)
    h = parse_edge_list(text)
    assert h.n == g.n and h.edges == g.edges


def test_edge_list_comments_and_blanks():
    g = parse_edge_list("# a triangle\n\n3 3\n0 1\n\n1 2\n# done\n0 2\n")
    assert g.n == 3 and g.m == 3


def test_edge_list_bad_header():
    with pytest.raises(InputError, match="bad line '3', expected 'n m'"):
        parse_edge_list("3\n0 1\n")
    with pytest.raises(InputError, match="header claims 2 edges, found 1"):
        parse_edge_list("3 2\n0 1\n")


def test_edge_list_header_above_vertex_cap():
    # rejected from the header, before any graph is built
    with pytest.raises(InputError, match=f"cap of {MAX_VERTICES}"):
        parse_edge_list("1000000000 0\n")
    with pytest.raises(InputError, match=f"cap of {MAX_VERTICES}"):
        parse_edge_list(f"{MAX_VERTICES + 1} 0\n")
    assert parse_edge_list(f"{MAX_VERTICES} 0\n").n == MAX_VERTICES


@pytest.mark.parametrize(
    "text",
    ["2 1\n0\n", "3 1\n0 1 2\n", "-1 0\n", "3 1\n0 x\n", "3 1\n0 1.0\n", "n m\n", "3 1 0\n"],
)
def test_edge_list_rows_are_two_integers(text):
    expected = "negative vertex count" if text.startswith("-") else "bad line"
    with pytest.raises(InputError, match=expected):
        parse_edge_list(text)


# vertex tokens stay small: the header's n sizes the triangle scan's lists
_TOKENS = st.one_of(
    st.integers(-2, 6).map(str), st.sampled_from(["x", "1.5", "#", "0x1", "--1"])
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_TOKENS, max_size=4), max_size=8))
def test_edge_list_fuzz_raises_only_graph_errors(lines):
    text = "\n".join(" ".join(tokens) for tokens in lines)
    try:
        g = parse_edge_list(text)
    except InputError:
        return
    assert format_edge_list(g) == format_edge_list(parse_edge_list(format_edge_list(g)))
