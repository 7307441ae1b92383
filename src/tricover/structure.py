"""Classification of triangles relative to a packing.

Every packed triangle gets a type (0, 1 or 3 base edges), an anchor where
defined, and the list of its singly attached triangles.  Every other
triangle is mapped to its owners, the packed triangles that hold one of
its edges: one owner makes it singly attached, two doubly, three hollow.

``check_structure`` tests the structural facts of a locally optimal
packing.  Each fact is proved by the improving swap that its violation
allows, so a violation carries that swap as a ``SwapCertificate``, the
first one found in product order.  There are two rules:

* A, on a packed triangle psi: two edge-disjoint singly attached
  triangles w1 and w2 of psi.  The swap is the 1-swap psi -> {w1, w2}.
  Two singly attached triangles on one base share it, and two on
  different bases are disjoint iff their apices differ.  So A flags
  exactly a type-2 triangle (one shared apex would make it type 3), two
  attachments on different bases without a common anchor, and a type-3
  triangle that is not a K4 (with one anchor it always is one).
* B, on a non-packed triangle t with no owner or two or three owners:
  t and one singly attached triangle of each owner, pairwise
  edge-disjoint.  The swap replaces the owners by them; any two owners
  share a vertex of t.  B reads no owner types, so one rule covers the
  doubly attached (3, 3) and (1, 1) shapes and the hollow (3, 3, 3) and
  type-1 shapes.  The shapes the paper accepts make every choice
  collide: a type-1 owner's base edge inside t, the apex of a unique
  attachment on t, and two unique attachments sharing their stem.  With
  no owner, t is free and the swap adds it: a structure swap frees the
  edges it removes, and the engines need a maximal packing.  With one
  owner, B would be A.

Each swap has at most three removals, so a maximal packing that no swap
of size three improves has no violation.  Each structure runs the check once,
when it is made, and keeps the result as its ``violations``; a structure
made from the parts of one already checked takes its ``violations`` along.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

from .errors import InputError
from .graph import Graph, Triangle, enumerate_triangles
from .packing import Packing, SwapCertificate


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

    @cached_property
    def legs(self) -> tuple[int, int]:
        """The two sides of the unique attachment of a type-1 triangle off
        its base: the spokes of the base's ends to the anchor.  Kept from
        the first read on, and shared with every structure that shares
        this info."""
        (w,) = self.cl_sin
        return tuple(e for e in w.edge_ids if e != self.base)  # type: ignore[return-value]


@dataclass(frozen=True)
class StructureViolation:
    kind: str
    swap: SwapCertificate


@dataclass
class SolutionStructure:
    """A packing's classification; ``violations`` is ``check_structure``
    of it, computed once when the structure is made unless it is passed
    in with the other parts of a structure already checked.
    ``attachments`` maps each non-packed triangle, in enumeration order,
    to its owners, in sorted order."""

    g: Graph
    packing: Packing
    info: Mapping[Triangle, PackedInfo]
    attachments: Mapping[Triangle, tuple[Triangle, ...]]
    edge_owner: Mapping[int, Triangle]
    violations: tuple[StructureViolation, ...] | None = None

    def __post_init__(self) -> None:
        if self.violations is None:
            self.violations = tuple(check_structure(self))

    def owner(self, eid: int) -> Triangle | None:
        return self.edge_owner.get(eid)

    def packed_of_type(self, k: int) -> list[Triangle]:
        return [t for t in self.packing.triangles if self.info[t].type == k]

    def spoke(self, psi: Triangle, x: int) -> int:
        """The edge from vertex ``x`` to the anchor of ``psi``."""
        return self.g.edge_id(x, self.info[psi].anchor)  # type: ignore[arg-type]

    def k4_region_edges(self, psi: Triangle) -> list[int]:
        """Edge ids of the K4 induced by V(psi) and its anchor: psi's own
        three edges, then the three spokes to the anchor."""
        if self.info[psi].anchor is None:
            raise InputError(f"{psi} has no anchor")
        return list(psi.edge_ids) + [self.spoke(psi, x) for x in psi.vertices]


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
    attachments: dict[Triangle, tuple[Triangle, ...]] = {}
    for t in enumerate_triangles(g):
        a, b, c = t.edge_ids
        oa, ob, oc = owner_ix[a], owner_ix[b], owner_ix[c]
        if oa == ob == oc >= 0:
            continue
        ix = sorted({oa, ob, oc} - {-1})
        if len(ix) == 1:
            # a singly attached triangle shares exactly one edge with its owner
            singly[ix[0]].append(t)
            base_edges[ix[0]].add(a if oa >= 0 else b if ob >= 0 else c)
        attachments[t] = tuple(packed[i] for i in ix)

    types = [len(b) for b in base_edges]
    info: dict[Triangle, PackedInfo] = {}
    for i, psi in enumerate(packed):
        sin = singly[i]
        anchor: int | None = None
        if types[i] == 3:
            anchors = {_apex(t, psi) for t in sin}
            if len(anchors) == 1:
                anchor = anchors.pop()
        elif types[i] == 1:  # its base came with a singly attached triangle
            anchor = min(_apex(t, psi) for t in sin)
        info[psi] = PackedInfo(types[i], frozenset(base_edges[i]), anchor, tuple(sin))

    return SolutionStructure(
        g=g,
        packing=p,
        info=info,
        attachments=attachments,
        edge_owner=edge_owner,
    )


def check_structure(s: SolutionStructure) -> list[StructureViolation]:
    """Every violation of rules A and B, each with its improving swap:
    rule A over the packed triangles, then rule B over the non-packed
    ones, in the structure's order.  Empty iff neither rule fires.

    Every ``SolutionStructure`` runs this once, when it is made, and keeps
    the result as ``violations``; read that instead of calling again.
    """
    out: list[StructureViolation] = []
    for psi, i in s.info.items():
        pair = _disjoint_choice(set(), [i.cl_sin, i.cl_sin])
        if pair is not None:
            out.append(StructureViolation("TwoAttachments", SwapCertificate((psi,), pair)))
    for t, owners in s.attachments.items():
        if len(owners) != 1:
            ws = _disjoint_choice(set(t.edge_ids), [s.info[psi].cl_sin for psi in owners])
            if ws is not None:
                swap = SwapCertificate(owners, (t, *ws))
                out.append(StructureViolation("OwnerSwap", swap))
    return out


def _disjoint_choice(
    used: set[int], groups: list[tuple[Triangle, ...]]
) -> tuple[Triangle, ...] | None:
    """The first choice of one triangle per group, in product order,
    whose triangles are pairwise edge-disjoint and avoid ``used``.

    A depth-first search that skips a triangle as soon as it collides,
    so it finds the choice that filtering ``itertools.product`` would
    find first.  Two groups that are one list choose a pair, each
    triangle colliding with itself.
    """
    if not groups:
        return ()
    for w in groups[0]:
        if used.isdisjoint(w.edge_ids):
            rest = _disjoint_choice(used.union(w.edge_ids), groups[1:])
            if rest is not None:
                return (w, *rest)
    return None
