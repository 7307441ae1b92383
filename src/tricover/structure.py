"""Classification of triangles relative to a packing.

Every packed triangle gets a type (0, 1 or 3 base edges), anchors where
defined, and conflict lists split by attachment class.  Every other
triangle is classified as singly, doubly or hollow with a sorted type
signature.  ``check_structure`` tests the structural facts that hold for
locally optimal packings; a violation certifies a nearby improving swap
and carries witness triangles for the repair search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .graph import Graph, Triangle, enumerate_triangles
from .packing import Packing


@dataclass(frozen=True)
class PackedInfo:
    triangle: Triangle
    type: int
    base_edges: frozenset[int]
    anchor: int | None
    cl_sin: tuple[Triangle, ...]
    cl_dou: tuple[Triangle, ...]
    cl_hol: tuple[Triangle, ...]


@dataclass(frozen=True)
class Attachment:
    triangle: Triangle
    owners: tuple[Triangle, ...]
    signature: tuple[int, ...]

    @property
    def kind(self) -> str:
        return {0: "free", 1: "singly", 2: "doubly", 3: "hollow"}[len(self.owners)]


@dataclass(frozen=True)
class PairRelation:
    """Two type-1 triangles whose unique attachments share the stem edge (v, a)."""

    psi1: Triangle
    psi2: Triangle
    stem_edge: int
    anchor: int


@dataclass(frozen=True)
class StructureViolation:
    kind: str
    witnesses: tuple[Triangle, ...]


@dataclass
class SolutionStructure:
    g: Graph
    packing: Packing
    info: dict[Triangle, PackedInfo]
    attachments: dict[Triangle, Attachment]
    pairs: tuple[PairRelation, ...]
    edge_owner: dict[int, Triangle]
    nonsolution: tuple[Triangle, ...] = field(default=())

    def owner(self, eid: int) -> Triangle | None:
        return self.edge_owner.get(eid)

    def packed_of_type(self, k: int) -> list[Triangle]:
        return [t for t in self.packing.triangles if self.info[t].type == k]

    def k4_region_edges(self, psi: Triangle) -> list[int]:
        """Edge ids of the K4 induced by V(psi) and its anchor: psi's own
        three edges, then the three spokes to the anchor."""
        a = self.info[psi].anchor
        if a is None:
            raise ValueError(f"{psi} has no anchor")
        spokes = [self.g.edge_id(x, a) for x in psi.vertices]
        return list(psi.edge_ids) + spokes


def _apex(t: Triangle, psi: Triangle) -> int:
    return next(v for v in t.vertices if v not in psi.vertices)


def build_structure(g: Graph, p: Packing) -> SolutionStructure:
    """Total classification of all triangles of g against packing p.

    Packed triangles are indices into ``p.triangles``, which is sorted, so
    owners sorted by index are sorted as triangles.  A triangle is packed
    exactly when one packed triangle owns all three of its edges.
    """
    packed = p.triangles
    owner_ix = [-1] * g.m  # index of the packed triangle owning each edge
    edge_owner: dict[int, Triangle] = {}
    for i, psi in enumerate(packed):
        for e in psi.edge_ids:
            owner_ix[e] = i
            edge_owner[e] = psi

    # classes[i][k - 1]: the triangles with k owners that psi i owns an edge of
    classes: list[tuple[list[Triangle], list[Triangle], list[Triangle]]] = [
        ([], [], []) for _ in packed
    ]
    base_edges: list[set[int]] = [set() for _ in packed]
    nonpacked: list[tuple[Triangle, tuple[int, ...]]] = []
    for t in enumerate_triangles(g):
        a, b, c = t.edge_ids
        oa, ob, oc = owner_ix[a], owner_ix[b], owner_ix[c]
        if oa == ob == oc >= 0:
            continue
        ix = tuple(sorted({oa, ob, oc} - {-1}))
        for i in ix:
            classes[i][len(ix) - 1].append(t)
        if len(ix) == 1:
            # a singly attached triangle shares exactly one edge with its owner
            base_edges[ix[0]].add(a if oa >= 0 else b if ob >= 0 else c)
        nonpacked.append((t, ix))

    types = [len(b) for b in base_edges]
    attachments = {
        t: Attachment(
            t, tuple(packed[i] for i in ix), tuple(sorted(types[i] for i in ix))
        )
        for t, ix in nonpacked
    }

    info: dict[Triangle, PackedInfo] = {}
    for i, psi in enumerate(packed):
        sin, dou, hol = classes[i]
        anchor: int | None = None
        if types[i] == 3:
            anchors = {_apex(t, psi) for t in sin}
            if len(anchors) == 1:
                anchor = anchors.pop()
        elif types[i] == 1 and sin:
            anchor = min(_apex(t, psi) for t in sin)
        info[psi] = PackedInfo(
            psi, types[i], frozenset(base_edges[i]), anchor,
            tuple(sin), tuple(dou), tuple(hol),
        )

    pairs = _detect_pairs(g, info, attachments)
    return SolutionStructure(
        g=g,
        packing=p,
        info=info,
        attachments=attachments,
        pairs=pairs,
        edge_owner=edge_owner,
        nonsolution=tuple(t for t, _ in nonpacked),
    )


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


def check_structure(s: SolutionStructure) -> list[StructureViolation]:
    """Empty iff the implemented structural facts hold for this packing."""
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


def _base_edge_in(s: SolutionStructure, psi: Triangle, t: Triangle) -> bool:
    return bool(s.info[psi].base_edges & set(t.edge_ids))


def _disjoint(*tris: Triangle) -> bool:
    seen: set[int] = set()
    for t in tris:
        for e in t.edge_ids:
            if e in seen:
                return False
            seen.add(e)
    return True


def _pair_shape_ok(s: SolutionStructure, t: Triangle, att: Attachment) -> bool:
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


def _hollow_type1_ok(s: SolutionStructure, t: Triangle, att: Attachment) -> bool:
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


def violation_to_focus(v: StructureViolation) -> set[int]:
    """Edges of all witness triangles, the repair search region."""
    return {e for t in v.witnesses for e in t.edge_ids}


def structure_debug_json(s: SolutionStructure) -> str:
    """JSON dump of the per-triangle classification."""
    rows = []
    for psi in s.packing.triangles:
        i = s.info[psi]
        rows.append(
            {
                "vertices": list(psi.vertices),
                "role": "solution",
                "type": i.type,
                "base_edges": sorted(list(s.g.edges[e]) for e in i.base_edges),
                "anchor": i.anchor,
            }
        )
    for t in s.nonsolution:
        att = s.attachments[t]
        rows.append(
            {
                "vertices": list(t.vertices),
                "role": att.kind,
                "signature": list(att.signature),
            }
        )
    return json.dumps(rows, indent=2)
