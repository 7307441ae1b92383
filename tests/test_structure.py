"""Triangle classification and the structural checks."""

import random
from dataclasses import dataclass
from types import SimpleNamespace

import pytest
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
)
from tricover.errors import InputError
from tricover.generators import bowtie, complete_graph, gnp
from tricover.graph import Graph, Triangle
from tricover.structure import PackedInfo, _apex

from test_packing import verify_swap


def _owner_types(s, t):
    return tuple(sorted(s.info[psi].type for psi in s.attachments[t]))


def _kinds_with_valid_swaps(g, p, s):
    """The kinds of s's violations, each swap checked by verify_swap."""
    assert all(verify_swap(g, p, v.swap) for v in s.violations)
    return [v.kind for v in s.violations]


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
        assert info.cl_sin == ()
    assert check_structure(s) == []


def test_k4_region_needs_an_anchor():
    # a type-0 triangle has no anchor, so no K4 region
    g = bowtie()
    s = build_structure(g, Packing(g, [g.triangle(0, 1, 2), g.triangle(2, 3, 4)]))
    with pytest.raises(InputError, match=r"T\(0, 1, 2\) has no anchor"):
        s.k4_region_edges(g.triangle(0, 1, 2))


def test_pendant_triangle_is_type1():
    # inner triangle packed, one pendant triangle hanging off edge (0,2)
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)])
    p = Packing(g, [g.triangle(0, 1, 2)])
    s = build_structure(g, p)
    info = s.info[g.triangle(0, 1, 2)]
    assert info.type == 1
    assert info.base_edges == frozenset({g.edge_id(0, 2)})
    assert info.anchor == 3
    assert len(s.attachments[g.triangle(0, 2, 3)]) == 1


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
    assert s.info[g.triangle(0, 1, 2)].type == 2
    assert _kinds_with_valid_swaps(g, p, s) == ["TwoAttachments"]
    (v,) = s.violations
    assert v.swap.added == (g.triangle(0, 1, 3), g.triangle(1, 2, 4))


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
    assert _owner_types(s, g.triangle(1, 2, 3)) == (3, 3)
    assert _kinds_with_valid_swaps(g, p, s) == ["OwnerSwap"]
    assert s.violations[0].swap.removed == p.triangles
    assert s.violations[0].swap.added[0] == g.triangle(1, 2, 3)


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
    assert _owner_types(s, g.triangle(0, 1, 2)) == (3, 3, 3)
    kinds = _kinds_with_valid_swaps(g, p, s)
    assert kinds and set(kinds) == {"OwnerSwap"}
    v = next(v for v in s.violations if v.swap.added[0] == g.triangle(0, 1, 2))
    assert v.swap.removed == p.triangles


def test_pair_shape_accepted_when_no_disjoint_witness():
    # the K5 pinwheel: every attachment pair collides, so the bridges are
    # benign and nothing is flagged on an optimal packing
    g = complete_graph(5)
    p = Packing(g, [g.triangle(0, 1, 2), g.triangle(0, 3, 4)])
    s = build_structure(g, p)
    assert check_structure(s) == []
    assert {s.info[t].type for t in p.triangles} == {1}
    # two type-1 triangles whose unique attachments share the stem (2,5):
    # the bridge (1,2,3) has no witness either
    g = build_graph(
        6,
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (0, 5), (2, 5), (4, 5), (1, 3)],
    )
    p = Packing(g, [g.triangle(0, 1, 2), g.triangle(2, 3, 4)])
    s = build_structure(g, p)
    assert _owner_types(s, g.triangle(1, 2, 3)) == (1, 1)
    assert check_structure(s) == []


def test_free_triangle_is_added_by_rule_b():
    # a packing that is not maximal: the free triangle has no owner, and
    # the swap adds it without removing anything
    g = bowtie()
    p = Packing(g, [g.triangle(0, 1, 2)])
    s = build_structure(g, p)
    assert s.attachments[g.triangle(2, 3, 4)] == ()
    assert _kinds_with_valid_swaps(g, p, s) == ["OwnerSwap"]
    assert s.violations[0].swap.removed == ()
    assert s.violations[0].swap.added == (g.triangle(2, 3, 4),)


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
        for t, owners in s.attachments.items():
            held = {s.edge_owner[e] for e in t.edge_ids if e in s.edge_owner}
            assert owners == tuple(sorted(held))


# Reference oracle: build_structure on Triangle-keyed sets and dicts, as
# it was before the packed triangles became indices, with the attachment
# record it had then.  The library version must build an equal structure,
# dict insertion orders included, with each record's owners as its
# attachment.  It returns a namespace, so the library check never runs
# on the old records.


@dataclass(frozen=True)
class Attachment:
    owners: tuple[Triangle, ...]
    signature: tuple[int, ...]


def _reference_build_structure(g: Graph, p: Packing) -> SimpleNamespace:
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
        attachments[t] = Attachment(tuple(owners), ())

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
        attachments[t] = Attachment(att.owners, sig)

    info: dict[Triangle, PackedInfo] = {}
    for psi in p.triangles:
        sin = tuple(t for t in conflicts[psi] if len(attachments[t].owners) == 1)
        anchor: int | None = None
        if types[psi] == 3:
            anchors = {_apex(t, psi) for t in sin}
            if len(anchors) == 1:
                anchor = anchors.pop()
        elif types[psi] == 1 and sin:
            anchor = min(_apex(t, psi) for t in sin)
        info[psi] = PackedInfo(types[psi], base_edges[psi], anchor, sin)

    return SimpleNamespace(
        g=g,
        packing=p,
        info=info,
        attachments=attachments,
        edge_owner=edge_owner,
        nonsolution=tuple(t for t in tris if t not in packed),
    )


# Reference check: check_structure as it was with six kind-specific rules,
# while a pair shape had three accept rules besides its disjoint-witness
# search (a base edge inside t, a unique attachment's apex on t, a
# recorded shared-stem pair) and a hollow type-1 triangle one more (a
# base edge inside t).  The engines were shown to handle every structure
# it accepts, so a packing the library check accepts must pass it too.
# The code below is that version unchanged, except that check_structure
# is renamed, runs on the reference structure, keeps its violation record
# and reads the pair relation from a namespace, since structures no
# longer record it.


@dataclass(frozen=True)
class StructureViolation:
    kind: str
    witnesses: tuple[Triangle, ...]


def _reference_check_structure(ref: SimpleNamespace) -> list[StructureViolation]:
    ref = SimpleNamespace(**vars(ref), pairs=_detect_pairs(ref.g, ref.info, ref.attachments))
    return _reference_violations(ref)


@dataclass(frozen=True)
class PairRelation:
    """Two type-1 triangles whose unique attachments share the stem edge (v, a)."""

    psi1: Triangle
    psi2: Triangle
    stem_edge: int
    anchor: int


def _unique_attachment(info: dict[Triangle, PackedInfo], psi: Triangle) -> Triangle | None:
    i = info[psi]
    if i.type == 1 and len(i.cl_sin) == 1:
        return i.cl_sin[0]
    return None


def _detect_pairs(g, info, attachments) -> tuple[PairRelation, ...]:
    seen: set[tuple[Triangle, Triangle]] = set()
    out: list[PairRelation] = []
    for att in attachments.values():
        if att.signature != (1, 1):
            continue
        psi1, psi2 = att.owners
        key = (psi1, psi2)
        if key in seen:
            continue
        w1 = _unique_attachment(info, psi1)
        w2 = _unique_attachment(info, psi2)
        if w1 is None or w2 is None:
            continue
        a1, a2 = _apex(w1, psi1), _apex(w2, psi2)
        if a1 != a2:
            continue
        common = set(psi1.vertices) & set(psi2.vertices)
        if len(common) != 1:
            continue
        v = common.pop()
        shared = set(w1.edge_ids) & set(w2.edge_ids)
        if not g.has_edge(v, a1) or shared != {g.edge_id(v, a1)}:
            continue
        seen.add(key)
        out.append(PairRelation(psi1, psi2, g.edge_id(v, a1), a1))
    return tuple(out)


def _reference_violations(s) -> list[StructureViolation]:
    out: list[StructureViolation] = []
    g = s.g

    for psi, i in s.info.items():
        if i.type == 2:
            out.append(StructureViolation("Type2", (psi,) + i.cl_sin))
        # two singly-attached with different bases must share their anchor
        for ix, t1 in enumerate(i.cl_sin):
            for t2 in i.cl_sin[ix + 1 :]:
                b1 = next(e for e in t1.edge_ids if s.edge_owner.get(e) is psi)
                b2 = next(e for e in t2.edge_ids if s.edge_owner.get(e) is psi)
                if b1 != b2 and _apex(t1, psi) != _apex(t2, psi):
                    out.append(StructureViolation("CommonAnchorClaim", (psi, t1, t2)))
        if i.type == 3:
            anchors = {_apex(t, psi) for t in i.cl_sin}
            k4_ok = False
            if len(anchors) == 1:
                a = next(iter(anchors))
                k4_ok = all(g.has_edge(x, a) for x in psi.vertices) and len(i.cl_sin) == 3
            if not k4_ok:
                out.append(StructureViolation("Type3NotK4", (psi,) + i.cl_sin))

    for t, att in s.attachments.items():
        if att.signature == (3, 3):
            out.append(StructureViolation("DoublyAttached33", (t,) + att.owners))
        elif att.signature == (3, 3, 3):
            out.append(StructureViolation("Hollow333", (t,) + att.owners))
        elif att.signature == (1, 1):
            if not _pair_shape_ok(s, t, att):
                out.append(StructureViolation("PairStructure", (t,) + att.owners))
        elif len(att.signature) == 3 and att.signature[0] == 1:
            if not _hollow_type1_ok(s, t, att):
                out.append(StructureViolation("HollowType1Structure", (t,) + att.owners))

    return out


def _disjoint(*tris: Triangle) -> bool:
    seen: set[int] = set()
    for t in tris:
        for e in t.edge_ids:
            if e in seen:
                return False
            seen.add(e)
    return True


def _base_edge_in(s, psi: Triangle, t: Triangle) -> bool:
    return bool(s.info[psi].base_edges & set(t.edge_ids))


def _pair_shape_ok(s, t: Triangle, att: Attachment) -> bool:
    """Accept unless replacing the two owners by t plus one attachment of
    each gives a strictly larger packing.

    The statement-level shapes (base edge inside t, anchoring vertex of a
    unique attachment on t, shared stem) miss configurations where every
    candidate attachment pair collides, so the decider is the explicit
    disjoint witness: flagging always certifies an improving 2-swap.
    """
    psi1, psi2 = att.owners
    if _base_edge_in(s, psi1, t) or _base_edge_in(s, psi2, t):
        return True
    for psi in (psi1, psi2):
        w = _unique_attachment(s.info, psi)
        if w is not None and _apex(w, psi) in t.vertices:
            return True
    # shared-stem pair recorded during construction
    for pr in s.pairs:
        if {pr.psi1, pr.psi2} == {psi1, psi2}:
            return True
    for w1 in s.info[psi1].cl_sin:
        for w2 in s.info[psi2].cl_sin:
            if _disjoint(t, w1, w2):
                return False
    return True


def _hollow_type1_ok(s, t: Triangle, att: Attachment) -> bool:
    """Accept unless the three owners can be replaced by t plus one
    attachment each (the witness of an improving 3-swap)."""
    type1 = [psi for psi in att.owners if s.info[psi].type == 1]
    if any(_base_edge_in(s, psi, t) for psi in type1):
        return True
    for ix, p1 in enumerate(type1):
        for p2 in type1[ix + 1 :]:
            an1 = {_apex(w, p1) for w in s.info[p1].cl_sin}
            an2 = {_apex(w, p2) for w in s.info[p2].cl_sin}
            if len(an1) == 1 and an1 == an2:
                return True
    for w1 in s.info[att.owners[0]].cl_sin:
        for w2 in s.info[att.owners[1]].cl_sin:
            for w3 in s.info[att.owners[2]].cl_sin:
                if _disjoint(t, w1, w2, w3):
                    return False
    return True


def _packing(g, source, order_seed, data):
    if source.startswith("swap"):
        return local_search_packing(g, order_seed, int(source[4:]))
    tris = list(greedy_packing(g, order_seed).triangles)
    if source == "drop_one" and tris:
        tris.pop(data.draw(st.integers(0, len(tris) - 1)))
    return Packing(g, tris)


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
    p = _packing(g, source, order_seed, data)
    s, ref = build_structure(g, p), _reference_build_structure(g, p)
    assert list(s.info.items()) == list(ref.info.items())
    assert list(s.attachments.items()) == [
        (t, att.owners) for t, att in ref.attachments.items()
    ]
    assert s.edge_owner == ref.edge_owner
    assert tuple(s.attachments) == ref.nonsolution
    assert check_structure(s) == list(s.violations)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(6, 14),
    density=st.sampled_from([0.3, 0.5, 0.7]),
    graph_seed=st.integers(0, 10**6),
    order_seed=st.integers(0, 100),
    source=st.sampled_from(["greedy", "swap1", "swap2", "drop_one"]),
    data=st.data(),
)
def test_k4_geometry_helpers(n, density, graph_seed, order_seed, source, data):
    # the sides, spokes and legs that the charging engines read
    g = gnp(n, density, graph_seed)
    s = build_structure(g, _packing(g, source, order_seed, data))
    for t in enumerate_triangles(g):
        for x in t.vertices:
            (side,) = [e for e in t.edge_ids if x not in g.edges[e]]
            assert t.opposite(x) == side
        for e in t.edge_ids:
            (v,) = set(t.vertices) - set(g.edges[e])
            assert t.off(e) == v
    for psi, i in s.info.items():
        if i.type != 1 or len(i.cl_sin) != 1:
            continue
        assert i.legs == tuple(e for e in i.cl_sin[0].edge_ids if s.owner(e) is not psi)
        assert set(i.legs) == {s.spoke(psi, x) for x in g.edges[i.base]}


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(6, 40),
    density=st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.7]),
    graph_seed=st.integers(0, 10**6),
    order_seed=st.integers(0, 100),
    source=st.sampled_from(["greedy", "drop_one", "swap1", "swap2", "swap3"]),
    data=st.data(),
)
def test_every_violation_carries_a_valid_swap(
    n, density, graph_seed, order_seed, source, data
):
    # each violation is proved by its swap; a packing the two rules
    # accept must also pass the six-rule reference check, so the engines
    # only see structures they were already shown to handle
    g = gnp(n, density, graph_seed)
    p = _packing(g, source, order_seed, data)
    s = build_structure(g, p)
    for v in s.violations:
        assert verify_swap(g, p, v.swap), v
    if not s.violations:
        assert _reference_check_structure(_reference_build_structure(g, p)) == []


# local-search packings at max_swap=1 that the six-rule check accepted
# and the engines then failed on (order 3 raised, order 6 failed verify):
# each hides a 2-swap on a type-1/type-3 owner pair, which rule B flags.
# cover searches to 3-swap optimality, so it never starts from them
# (their covers are pinned in tests/test_pipeline.py)
HIDDEN_TWO_SWAPS = [((10, 0.3, 637720), 99), ((12, 0.5, 420884), 2), ((11, 0.7, 38), 0)]


@pytest.mark.parametrize("args, seed", HIDDEN_TWO_SWAPS)
def test_hidden_two_swaps_are_owner_swaps(args, seed):
    g = gnp(*args)
    p = local_search_packing(g, seed, 1)
    s = build_structure(g, p)
    assert _reference_check_structure(_reference_build_structure(g, p)) == []
    assert set(_kinds_with_valid_swaps(g, p, s)) == {"OwnerSwap"}
    for v in s.violations:
        assert sorted(s.info[psi].type for psi in v.swap.removed) == [1, 3]
