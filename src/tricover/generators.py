"""Instance families for tests, the benchmark runner and the CLI."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InputError
from .graph import MAX_VERTICES, Graph, build_graph

MAX_PAIRS = 10**6  # most candidate vertex pairs complete and gnp will scan (n <= 1414)


@dataclass(frozen=True)
class InstanceSpec:
    family: str
    n: int | None = None
    p: float | None = None
    seed: int | None = None
    length: int | None = None

    def label(self) -> str:
        parts = [self.family]
        for k in ("n", "p", "seed", "length"):
            v = getattr(self, k)
            if v is not None:
                parts.append(f"{k}={v}")
        return ",".join(parts)


def _check_size(family: str, n: int, pairs: bool = False) -> None:
    """Reject a vertex count above the parser's cap, and, for families
    that scan every vertex pair, more than ``MAX_PAIRS`` pairs, before
    any edge list is built."""
    if n > MAX_VERTICES:
        raise InputError(
            f"{family} needs {n} vertices, above the cap of {MAX_VERTICES}"
        )
    if pairs and n * (n - 1) // 2 > MAX_PAIRS:
        raise InputError(
            f"{family} with n={n} scans more than {MAX_PAIRS} vertex pairs"
        )


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise InputError("complete graph needs n >= 1")
    _check_size("complete", n, pairs=True)
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def bowtie() -> Graph:
    """Two triangles sharing one vertex."""
    return build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def gnp(n: int, p: float, seed: int) -> Graph:
    if n < 0 or not (0.0 <= p <= 1.0):
        raise InputError(f"bad gnp parameters n={n}, p={p}")
    _check_size("gnp", n, pairs=True)
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def glued_k4(length: int) -> Graph:
    """A path of K4 blocks, consecutive blocks sharing a single vertex.

    Block i lives on vertices 3i..3i+3.  Blocks are edge-disjoint, so the
    canonical packing takes one triangle per block, each one a type-3
    triangle anchored at the block's top vertex.
    """
    if length < 1:
        raise InputError("glued_k4 needs length >= 1")
    _check_size("glued_k4", 3 * length + 1)
    edges = []
    for i in range(length):
        vs = [3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3]
        edges.extend(
            (vs[a], vs[b]) for a in range(4) for b in range(a + 1, 4)
        )
    return build_graph(3 * length + 1, edges)


def lend_chain(length: int) -> Graph:
    """The chain gadget: a path of lend-related type-1 triangles ending in
    a type-3 head.

    Vertex ids descend the chain so that the intended packing is exactly
    what the canonical greedy pass picks: triangle (0,1,2) is the tail,
    (2,3,4) the next link, ..., and the head with its pendant anchor sits
    at the highest ids.  For length L the graph has 2L+4 vertices.
    """
    if length < 1:
        raise InputError("lend_chain needs length >= 1")
    _check_size("lend_chain", 2 * length + 4)
    L = length
    a1, c0, a0 = 2 * L + 1, 2 * L + 2, 2 * L + 3
    edges: list[tuple[int, int]] = []
    # links psi_L .. psi_1: triangle (2j, 2j+1, 2j+2) for j = 0..L-1
    for j in range(L):
        base = 2 * j
        edges += [(base, base + 1), (base + 1, base + 2), (base, base + 2)]
    c1 = 2 * L
    # head triangle and its anchor spokes
    edges += [(c1, a1), (a1, c0), (c1, c0)]
    edges += [(c1, a0), (a1, a0), (c0, a0)]
    # attachment legs: anchor of link i is the far vertex of the next link
    # (for the last link it is the head's middle vertex a1)
    for j in range(L):
        u, v, c = 2 * j, 2 * j + 1, 2 * j + 2
        anchor = a1 if c == c1 else c + 2
        edges += [(u, anchor), (v, anchor)]
    return build_graph(2 * L + 4, edges)


# each family's builder and the spec fields it takes, in argument order
FAMILIES = {
    "complete": (complete_graph, ("n",)),
    "gnp": (gnp, ("n", "p", "seed")),
    "glued_k4": (glued_k4, ("length",)),
    "lend_chain": (lend_chain, ("length",)),
    "bowtie": (bowtie, ()),
}


def generate(spec: InstanceSpec) -> Graph:
    """Deterministic graph for an instance spec."""
    if spec.family not in FAMILIES:
        raise InputError(f"unknown family {spec.family!r}")
    build, fields = FAMILIES[spec.family]
    args = [getattr(spec, f) for f in fields]
    if None in args:
        raise InputError(f"{spec.family} needs {', '.join(fields)}")
    return build(*args)
