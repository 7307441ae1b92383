"""Classification of triangles relative to a packing.

Every packed triangle gets a type (0, 1 or 3 base edges), an anchor where
defined, and the list of its singly attached triangles.  Every other
triangle is classified as singly, doubly or hollow with a sorted type
signature.  ``check_structure`` tests the structural facts that hold for
locally optimal packings; a violation certifies a nearby improving swap
and carries witness triangles for the repair search.  Each structure
runs that check once, when it is made, and keeps the result as its
``violations``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .graph import Graph, Triangle, enumerate_triangles
from .packing import Packing


@dataclass(frozen=True)
class PackedInfo:
    type: int
    base_edges: frozenset[int]
    anchor: int | None
    cl_sin: tuple[Triangle, ...]

    @property
    def base(self) -> int:
        """The base edge of a type-1 triangle."""
        (b,) = self.base_edges
        return b


@dataclass(frozen=True)
class Attachment:
    owners: tuple[Triangle, ...]
    signature: tuple[int, ...]

    @property
    def kind(self) -> str:
        return {0: "free", 1: "singly", 2: "doubly", 3: "hollow"}[len(self.owners)]


@dataclass(frozen=True)
class StructureViolation:
    kind: str
    witnesses: tuple[Triangle, ...]


@dataclass
class SolutionStructure:
    """A packing's classification; ``violations`` is ``check_structure``
    of it, computed once when the structure is made."""

    g: Graph
    packing: Packing
    info: dict[Triangle, PackedInfo]
    attachments: dict[Triangle, Attachment]
    edge_owner: dict[int, Triangle]
    nonsolution: tuple[Triangle, ...] = field(default=())
    violations: tuple[StructureViolation, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.violations = tuple(check_structure(self))

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

    singly: list[list[Triangle]] = [[] for _ in packed]  # attached to psi i alone
    base_edges: list[set[int]] = [set() for _ in packed]
    nonpacked: list[tuple[Triangle, tuple[int, ...]]] = []
    for t in enumerate_triangles(g):
        a, b, c = t.edge_ids
        oa, ob, oc = owner_ix[a], owner_ix[b], owner_ix[c]
        if oa == ob == oc >= 0:
            continue
        ix = tuple(sorted({oa, ob, oc} - {-1}))
        if len(ix) == 1:
            # a singly attached triangle shares exactly one edge with its owner
            singly[ix[0]].append(t)
            base_edges[ix[0]].add(a if oa >= 0 else b if ob >= 0 else c)
        nonpacked.append((t, ix))

    types = [len(b) for b in base_edges]
    attachments = {
        t: Attachment(tuple(packed[i] for i in ix), tuple(sorted(types[i] for i in ix)))
        for t, ix in nonpacked
    }

    info: dict[Triangle, PackedInfo] = {}
    for i, psi in enumerate(packed):
        sin = singly[i]
        anchor: int | None = None
        if types[i] == 3:
            anchors = {_apex(t, psi) for t in sin}
            if len(anchors) == 1:
                anchor = anchors.pop()
        elif types[i] == 1 and sin:
            anchor = min(_apex(t, psi) for t in sin)
        info[psi] = PackedInfo(types[i], frozenset(base_edges[i]), anchor, tuple(sin))

    return SolutionStructure(
        g=g,
        packing=p,
        info=info,
        attachments=attachments,
        edge_owner=edge_owner,
        nonsolution=tuple(t for t, _ in nonpacked),
    )


def check_structure(s: SolutionStructure) -> list[StructureViolation]:
    """Empty iff the implemented structural facts hold for this packing.

    Every ``SolutionStructure`` runs this once, when it is made, and keeps
    the result as ``violations``; read that instead of calling again.
    """
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
            if _has_swap_witness(s, t, att.owners):
                out.append(StructureViolation("PairStructure", (t,) + att.owners))
        elif len(att.signature) == 3 and att.signature[0] == 1:
            if not _common_anchor(s, att.owners) and _has_swap_witness(s, t, att.owners):
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


def _has_swap_witness(
    s: SolutionStructure, t: Triangle, owners: tuple[Triangle, ...]
) -> bool:
    """Whether t and one singly attached triangle of each owner are
    edge-disjoint: replacing the owners by them is an improving swap.

    No separate rule is needed for the statement-level shapes.  A type-1
    owner's base edge inside t, the apex of a unique attachment on t, and
    two unique attachments sharing their stem each make every candidate
    collide, so the search finds no witness for them.
    """
    return any(
        _disjoint(t, *ws) for ws in product(*(s.info[psi].cl_sin for psi in owners))
    )


def _common_anchor(s: SolutionStructure, owners: tuple[Triangle, ...]) -> bool:
    """Two type-1 owners whose singly attached triangles all share one apex."""
    type1 = [psi for psi in owners if s.info[psi].type == 1]
    for ix, p1 in enumerate(type1):
        for p2 in type1[ix + 1 :]:
            an1 = {_apex(w, p1) for w in s.info[p1].cl_sin}
            an2 = {_apex(w, p2) for w in s.info[p2].cl_sin}
            if len(an1) == 1 and an1 == an2:
                return True
    return False


def violation_to_focus(v: StructureViolation) -> set[int]:
    """Edges of all witness triangles, the repair search region."""
    return {e for t in v.witnesses for e in t.edge_ids}
