"""Triangle classification and the structural checks."""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    Packing,
    build_graph,
    build_structure,
    check_structure,
    enumerate_triangles,
    greedy_packing,
    local_search_packing,
    structure_debug_json,
    violation_to_focus,
)
from tricover.generators import bowtie, complete_graph, gnp
from tricover.graph import Graph, Triangle
from tricover.structure import (
    Attachment,
    PackedInfo,
    SolutionStructure,
    _apex,
    _detect_pairs,
)


def test_k4_single_triangle_is_type3():
    g = complete_graph(4)
    p = Packing(g, [g.triangle(0, 1, 2)])
    s = build_structure(g, p)
    info = s.info[g.triangle(0, 1, 2)]
    assert info.type == 3
    assert info.anchor == 3
    assert len(info.cl_sin) == 3
    assert check_structure(s) == []


def test_bowtie_both_packed_type0():
    g = bowtie()
    p = Packing(g, [g.triangle(0, 1, 2), g.triangle(2, 3, 4)])
    s = build_structure(g, p)
    for t in p.triangles:
        info = s.info[t]
        assert info.type == 0
        assert info.cl_sin == info.cl_dou == info.cl_hol == ()
    assert check_structure(s) == []


def test_pendant_triangle_is_type1():
    # inner triangle packed, one pendant triangle hanging off edge (0,2)
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)])
    p = Packing(g, [g.triangle(0, 1, 2)])
    s = build_structure(g, p)
    info = s.info[g.triangle(0, 1, 2)]
    assert info.type == 1
    assert info.base_edges == frozenset({g.edge_id(0, 2)})
    assert info.anchor == 3
    assert s.attachments[g.triangle(0, 2, 3)].kind == "singly"


def test_locally_optimal_k6_is_clean():
    g = complete_graph(6)
    p = local_search_packing(g, 0, 5)
    assert check_structure(build_structure(g, p)) == []


def test_type2_violation_detected():
    # two pendants on different edges with different anchors; only the
    # center is packed, so swapping it for the pendants improves
    g = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (1, 4), (2, 4)])
    p = Packing(g, [g.triangle(0, 1, 2)])
    s = build_structure(g, p)
    kinds = {v.kind for v in check_structure(s)}
    assert "Type2" in kinds
    assert "CommonAnchorClaim" in kinds


def test_doubly_attached_33_violation_detected():
    # two K4-completed triangles bridged by a doubly-attached triangle
    edges = [
        (0, 1), (0, 2), (1, 2),        # psi1
        (2, 3), (2, 4), (3, 4),        # psi2
        (1, 3),                        # bridge
        (0, 5), (1, 5), (2, 5),        # psi1's anchor
        (2, 6), (3, 6), (4, 6),        # psi2's anchor
    ]
    g = build_graph(7, edges)
    p = Packing(g, [g.triangle(0, 1, 2), g.triangle(2, 3, 4)])
    s = build_structure(g, p)
    assert s.info[g.triangle(0, 1, 2)].type == 3
    assert s.info[g.triangle(2, 3, 4)].type == 3
    assert s.attachments[g.triangle(1, 2, 3)].signature == (3, 3)
    violations = check_structure(s)
    assert any(v.kind == "DoublyAttached33" for v in violations)
    v33 = next(v for v in violations if v.kind == "DoublyAttached33")
    focus = violation_to_focus(v33)
    assert focus and focus <= set(range(g.m))
    assert len(focus) <= 9


def test_hollow_333_violation_detected():
    # three type-3 triangles around a hollow center: replacing them by
    # the center plus three corner triangles is an improving 3-swap
    edges = [
        (0, 1), (0, 3), (1, 3),          # psi1 owns the (0,1) side
        (0, 2), (2, 4), (0, 4),          # psi2 owns the (0,2) side
        (1, 2), (2, 5), (1, 5),          # psi3 owns the (1,2) side
        (0, 6), (1, 6), (3, 6),          # anchors completing the K4s
        (0, 7), (2, 7), (4, 7),
        (1, 8), (2, 8), (5, 8),
    ]
    g = build_graph(9, edges)
    p = Packing(g, [g.triangle(0, 1, 3), g.triangle(0, 2, 4), g.triangle(1, 2, 5)])
    s = build_structure(g, p)
    assert all(s.info[t].type == 3 for t in p.triangles)
    violations = check_structure(s)
    v = next(v for v in violations if v.kind == "Hollow333")
    focus = violation_to_focus(v)
    assert len(focus) <= 12
    from tricover import targeted_swap, verify_swap

    cert = targeted_swap(g, p, focus, 5)
    assert cert is not None and verify_swap(g, p, cert)


def test_pair_shape_accepted_when_no_disjoint_witness():
    # the K5 pinwheel: every attachment pair collides, so the bridges are
    # benign and nothing is flagged on an optimal packing
    g = complete_graph(5)
    p = Packing(g, [g.triangle(0, 1, 2), g.triangle(0, 3, 4)])
    s = build_structure(g, p)
    assert check_structure(s) == []
    assert {s.info[t].type for t in p.triangles} == {1}


def test_violation_focus_type2_has_nine_edges():
    g = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (1, 4), (2, 4)])
    p = Packing(g, [g.triangle(0, 1, 2)])
    s = build_structure(g, p)
    v = next(v for v in check_structure(s) if v.kind == "Type2")
    # center triangle plus two attachments, with the shared edges collapsing
    assert len(violation_to_focus(v)) <= 9


def test_base_edges_match_singly_attachments():
    rng = random.Random(23)
    for _ in range(25):
        g = gnp(rng.randint(5, 10), rng.choice([0.4, 0.6]), rng.randint(0, 10**6))
        p = local_search_packing(g, rng.randint(0, 20), 5)
        s = build_structure(g, p)
        for psi in p.triangles:
            info = s.info[psi]
            expected = {
                e
                for t in info.cl_sin
                for e in t.edge_ids
                if s.edge_owner.get(e) is psi
            }
            assert info.base_edges == expected
            assert info.type == len(info.base_edges)
        for t, att in s.attachments.items():
            assert att.signature == tuple(sorted(att.signature))
            assert len(att.signature) == len(att.owners)


def test_pair_relation_recorded():
    # two type-1 triangles whose unique attachments share the stem (2,5)
    g = build_graph(
        6,
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (0, 5), (2, 5), (4, 5), (1, 3)],
    )
    p = Packing(g, [g.triangle(0, 1, 2), g.triangle(2, 3, 4)])
    s = build_structure(g, p)
    assert check_structure(s) == []
    assert len(s.pairs) == 1
    pr = s.pairs[0]
    assert pr.stem_edge == g.edge_id(2, 5)
    assert pr.anchor == 5


def test_debug_json_is_valid_and_complete():
    g = complete_graph(5)
    p = local_search_packing(g, 0, 5)
    s = build_structure(g, p)
    rows = json.loads(structure_debug_json(s))
    assert len(rows) == 10  # C(5,3) triangles of K5
    solution_rows = [r for r in rows if r["role"] == "solution"]
    assert len(solution_rows) == len(p)


# Reference oracle: build_structure on Triangle-keyed sets and dicts, as
# it was before the packed triangles became indices.  The library version
# must build an equal structure, dict insertion orders included.


def _reference_build_structure(g: Graph, p: Packing) -> SolutionStructure:
    """Total classification of all triangles of g against packing p."""
    edge_owner: dict[int, Triangle] = {}
    for psi in p.triangles:
        for e in psi.edge_ids:
            edge_owner[e] = psi

    packed = set(p.triangles)
    conflicts: dict[Triangle, list[Triangle]] = {psi: [] for psi in p.triangles}
    attachments: dict[Triangle, Attachment] = {}
    tris = enumerate_triangles(g)
    for t in tris:
        if t in packed:
            continue
        owners = sorted({edge_owner[e] for e in t.edge_ids if e in edge_owner})
        for psi in owners:
            conflicts[psi].append(t)
        attachments[t] = Attachment(t, tuple(owners), ())

    # first pass: base edges and types
    base_edges: dict[Triangle, frozenset[int]] = {}
    for psi in p.triangles:
        sin = [t for t in conflicts[psi] if len(attachments[t].owners) == 1]
        base_edges[psi] = frozenset(
            e for t in sin for e in t.edge_ids if edge_owner.get(e) is psi
        )

    types = {psi: len(base_edges[psi]) for psi in p.triangles}

    # attach signatures now that packed types are known
    for t, att in list(attachments.items()):
        sig = tuple(sorted(types[psi] for psi in att.owners))
        attachments[t] = Attachment(t, att.owners, sig)

    info: dict[Triangle, PackedInfo] = {}
    for psi in p.triangles:
        sin = tuple(t for t in conflicts[psi] if len(attachments[t].owners) == 1)
        dou = tuple(t for t in conflicts[psi] if len(attachments[t].owners) == 2)
        hol = tuple(t for t in conflicts[psi] if len(attachments[t].owners) == 3)
        anchor: int | None = None
        if types[psi] == 3:
            anchors = {_apex(t, psi) for t in sin}
            if len(anchors) == 1:
                anchor = anchors.pop()
        elif types[psi] == 1 and sin:
            anchor = min(_apex(t, psi) for t in sin)
        info[psi] = PackedInfo(
            psi, types[psi], base_edges[psi], anchor, sin, dou, hol
        )

    pairs = _detect_pairs(g, info, attachments)
    return SolutionStructure(
        g=g,
        packing=p,
        info=info,
        attachments=attachments,
        pairs=pairs,
        edge_owner=edge_owner,
        nonsolution=tuple(t for t in tris if t not in packed),
    )


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(6, 14),
    density=st.sampled_from([0.3, 0.5, 0.7]),
    graph_seed=st.integers(0, 10**6),
    order_seed=st.integers(0, 100),
    source=st.sampled_from(["greedy", "swap1", "swap2", "drop_one"]),
    data=st.data(),
)
def test_build_structure_matches_reference(
    n, density, graph_seed, order_seed, source, data
):
    g = gnp(n, density, graph_seed)
    if source == "swap1":
        p = local_search_packing(g, order_seed, 1)
    elif source == "swap2":
        p = local_search_packing(g, order_seed, 2)
    else:
        tris = list(greedy_packing(g, order_seed).triangles)
        if source == "drop_one" and tris:
            tris.pop(data.draw(st.integers(0, len(tris) - 1)))
        p = Packing(g, tris)
    s, ref = build_structure(g, p), _reference_build_structure(g, p)
    assert list(s.info.items()) == list(ref.info.items())
    assert list(s.attachments.items()) == list(ref.attachments.items())
    assert s.pairs == ref.pairs
    assert s.edge_owner == ref.edge_owner
    assert s.nonsolution == ref.nonsolution
    assert check_structure(s) == check_structure(ref)
