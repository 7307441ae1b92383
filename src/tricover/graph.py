"""Immutable simple graphs, triangle enumeration and edge-list text I/O.

Vertices are ``0..n-1``.  Edges get dense ids ``0..m-1`` in input order
after canonicalizing each pair to ``(min, max)``, so a graph built twice
from the same edge list is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, TypeVar

from .errors import DuplicateEdgeError, SelfLoopError, VertexOutOfRangeError

MAX_VERTICES = 100_000  # largest header n that parse_edge_list accepts

_T = TypeVar("_T")


@dataclass(frozen=True, order=True)
class Triangle:
    """Canonical triangle: strictly increasing vertex triple plus its edge ids."""

    vertices: tuple[int, int, int]
    edge_ids: tuple[int, int, int] = field(compare=False)

    def __repr__(self) -> str:
        return "T{}".format(self.vertices)


class Graph:
    """Undirected simple graph with stable vertex and edge identifiers.

    A graph is not mutated after construction.  Derived results that are
    deterministic in the graph are therefore computed once per graph and
    kept in ``_memo`` through ``memo``; they live exactly as long as the
    graph.  The entries are the triangle list (``"triangles"``, filled by
    ``enumerate_triangles``), the edge-id bitmask of each of those
    triangles (``"edge_masks"``, filled by ``edge_masks`` and read by
    ``packing.greedy_packing``, the swap search and ``oracles.nu_exact``),
    the degree bound on ν (``"nu_bound"``, filled by the swap search in
    ``packing``), each local-search packing
    (``("local_search", seed, max_swap)``, filled by ``pipeline.cover``)
    and the tau* LP optimum (``"tau_star_lp"``, filled by
    ``oracles.tau_star_k_exact`` and so also by ``oracles.tau_exact``).
    A memo value holds no reference to its graph, so no reference cycle
    keeps a dead graph alive.
    """

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        self.n = n
        self.edges: list[tuple[int, int]] = []
        self.edge_index: dict[tuple[int, int], int] = {}
        adj_sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise VertexOutOfRangeError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in self.edge_index:
                raise DuplicateEdgeError(f"duplicate edge ({a},{b})")
            self.edge_index[(a, b)] = len(self.edges)
            self.edges.append((a, b))
            adj_sets[a].add(b)
            adj_sets[b].add(a)
        self.m = len(self.edges)
        self.adjacency: list[list[int]] = [sorted(s) for s in adj_sets]
        self._adj_sets = adj_sets
        self._memo: dict[Hashable, object] = {}

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj_sets[u] if 0 <= u < self.n else False

    def edge_id(self, u: int, v: int) -> int:
        """Edge id of {u,v}; KeyError if the edge does not exist."""
        return self.edge_index[(u, v) if u < v else (v, u)]

    def triangle(self, a: int, b: int, c: int) -> Triangle:
        """The canonical Triangle on {a,b,c}; all three edges must exist."""
        x, y, z = sorted((a, b, c))
        return Triangle(
            (x, y, z),
            (self.edge_id(x, y), self.edge_id(x, z), self.edge_id(y, z)),
        )

    def is_triangle(self, a: int, b: int, c: int) -> bool:
        return (
            len({a, b, c}) == 3
            and self.has_edge(a, b)
            and self.has_edge(b, c)
            and self.has_edge(a, c)
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edge_list: list[tuple[int, int]]) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    Raises SelfLoopError, DuplicateEdgeError or VertexOutOfRangeError on
    malformed input; duplicates are an error, never silently merged.
    """
    return Graph(n, list(edge_list))


def memo(g: Graph, key: Hashable, compute: Callable[[], _T]) -> _T:
    """``g``'s value for ``key``, from ``compute()`` on the first call only.

    The value must not refer to ``g`` (store triangles, not a Packing),
    and every caller shares it, so it must be immutable (a tuple, not a
    list).  The keys in use are listed on ``Graph``.
    """
    if key not in g._memo:
        g._memo[key] = compute()
    return g._memo[key]  # type: ignore[return-value]


def enumerate_triangles(g: Graph) -> list[Triangle]:
    """All triangles of ``g`` exactly once, in lexicographic triple order.

    The triangles are found once per graph and kept in its memo as a
    tuple; every call returns a new list, which the caller may reorder.
    """
    return list(memo(g, "triangles", lambda: _find_triangles(g)))


def edge_masks(g: Graph) -> tuple[int, ...]:
    """The edge-id bitmask of every triangle, in ``enumerate_triangles``
    order, kept in the graph's memo."""
    return memo(
        g,
        "edge_masks",
        lambda: tuple(
            (1 << a) | (1 << b) | (1 << c)
            for a, b, c in (t.edge_ids for t in enumerate_triangles(g))
        ),
    )


def _find_triangles(g: Graph) -> tuple[Triangle, ...]:
    """Neighbor intersection on sorted adjacency with u < v < w, so each
    triangle is produced from its smallest vertex only."""
    out: list[Triangle] = []
    for u in range(g.n):
        nbrs = g.adjacency[u]
        for i, v in enumerate(nbrs):
            if v < u:
                continue
            for w in nbrs[i + 1 :]:
                if g.has_edge(v, w):
                    out.append(g.triangle(u, v, w))
    return tuple(out)


def _int_pair(row: list[str], expected: str) -> tuple[int, int]:
    if len(row) == 2:
        try:
            return int(row[0]), int(row[1])
        except ValueError:
            pass
    raise VertexOutOfRangeError(f"bad line {' '.join(row)!r}, expected {expected!r}")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    First meaningful line is ``n m`` with ``0 <= n <= MAX_VERTICES``,
    followed by m lines ``u v`` (0-based).  Blank lines and lines
    starting with '#' are ignored.  Malformed text raises
    VertexOutOfRangeError; a valid text with a bad edge raises it,
    SelfLoopError or DuplicateEdgeError.  The cap on n is checked before
    any graph is built, since a graph allocates per-vertex state from the
    header alone.
    """
    rows: list[list[str]] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append(stripped.split())
    if not rows:
        raise VertexOutOfRangeError("empty edge-list input")
    n, m = _int_pair(rows[0], "n m")
    if n < 0:
        raise VertexOutOfRangeError(f"negative vertex count {n}")
    if n > MAX_VERTICES:
        raise VertexOutOfRangeError(f"vertex count {n} exceeds the cap of {MAX_VERTICES}")
    if len(rows) - 1 != m:
        raise VertexOutOfRangeError(f"header claims {m} edges, found {len(rows) - 1}")
    return build_graph(n, [_int_pair(r, "u v") for r in rows[1:]])


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def read_edge_list(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def write_edge_list(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
