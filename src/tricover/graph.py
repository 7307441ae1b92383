"""Immutable simple graphs, triangle enumeration and edge-list text I/O.

Vertices are ``0..n-1``.  Edges get dense ids ``0..m-1`` in input order
after canonicalizing each pair to ``(min, max)``, so a graph built twice
from the same edge list is bit-identical.
"""

from __future__ import annotations

from typing import Callable, Hashable, NamedTuple, TypeVar

from .errors import InputError

MAX_VERTICES = 100_000  # largest header n that parse_edge_list accepts

_T = TypeVar("_T")


class Triangle(NamedTuple):
    """Canonical triangle: strictly increasing vertex triple plus its edge ids.

    A plain value: equality, hashing and ordering cover both fields, so a
    triple with edge ids that are not the graph's is a different triangle.
    """

    vertices: tuple[int, int, int]
    edge_ids: tuple[int, int, int]

    # edge_ids[i] is the side that misses vertices[2 - i]
    def opposite(self, x: int) -> int:
        """The side that misses vertex ``x``."""
        return self.edge_ids[2 - self.vertices.index(x)]

    def off(self, e: int) -> int:
        """The vertex off side ``e``."""
        return self.vertices[2 - self.edge_ids.index(e)]

    def __repr__(self) -> str:
        return "T{}".format(self.vertices)


class Graph:
    """Undirected simple graph with stable vertex and edge identifiers.

    A graph holds its canonical edge list ``edges`` (``edges[i]`` is the
    pair ``(a, b)`` with ``a < b`` of edge id ``i``) and ``edge_index``,
    the inverse map from pair to id; it keeps no per-vertex state.

    A graph is not mutated after construction.  Derived results that are
    deterministic in the graph are therefore computed once per graph and
    kept in ``_memo`` through ``memo``; they live exactly as long as the
    graph.  The entries are the triangle tuple (``"triangles"``, filled by
    ``enumerate_triangles``), the edge-id bitmask of each of those
    triangles (``"edge_masks"``, filled by ``edge_masks`` and read by
    ``packing.greedy_packing``, the swap search, ``oracles.nu_exact`` and
    ``oracles.tau_star_k_exact``),
    the smaller of the degree and K4-block bounds on ν (``"nu_bound"``,
    filled by the swap search in ``packing``, by ``oracles.nu_exact``,
    by ``oracles.tau_star_k_exact``, whose sandwich reads it when ν is
    not memoised, and by ``cli.cmd_bench``),
    each start packing of ``pipeline.cover`` with its classification
    (``("start", seed, max(max_swap, 3))``, so ``max_swap`` 1, 2 and 3
    share one: the local-search packing's triangles, its structure's
    ``info``, ``attachments`` and ``edge_owner`` as read-only mappings,
    and its ``violations``; filled by ``cover``),
    the triangles of a maximum edge-disjoint packing (``"nu"``, filled
    by ``oracles.nu_exact`` and by ``oracles.tau_star_k_exact``, which
    compares its incumbent cover with ν),
    the tau* LP optimum with its optimal cover and fractional triangle
    packing, integer numerators over one denominator (``"tau_star_lp"``,
    filled by ``oracles.tau_star_k_exact`` and so also by
    ``oracles.tau_exact``, which bounds every search node by the packing,
    only when the incumbent cover is larger than ν),
    and the sorted edge ids of a minimum triangle-hitting edge set
    (``"tau"``, filled by ``oracles.tau_star_k_exact`` at k = 1, and
    read there as the incumbent of every k > 1).
    A memo value holds no reference to its graph, so no reference cycle
    keeps a dead graph alive.
    """

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        self.n = n
        self.edges: list[tuple[int, int]] = []
        self.edge_index: dict[tuple[int, int], int] = {}
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise InputError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in self.edge_index:
                raise InputError(f"duplicate edge ({a},{b})")
            self.edge_index[(a, b)] = len(self.edges)
            self.edges.append((a, b))
        self.m = len(self.edges)
        self._memo: dict[Hashable, object] = {}

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edge_index

    def edge_id(self, u: int, v: int) -> int:
        """Edge id of {u,v}; KeyError if the edge does not exist."""
        return self.edge_index[(u, v) if u < v else (v, u)]

    def triangle(self, a: int, b: int, c: int) -> Triangle:
        """The canonical Triangle on {a,b,c}; KeyError unless all three
        edges exist."""
        x, y, z = sorted((a, b, c))
        return Triangle(
            (x, y, z),
            (self.edge_id(x, y), self.edge_id(x, z), self.edge_id(y, z)),
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edge_list: list[tuple[int, int]]) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    Raises InputError on malformed input; duplicates are an error, never
    silently merged.
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


def enumerate_triangles(g: Graph) -> tuple[Triangle, ...]:
    """All triangles of ``g`` exactly once, in lexicographic triple order.

    The triangles are found once per graph and kept in its memo; every
    call returns that same tuple, shared by all callers.
    """
    return memo(g, "triangles", lambda: _find_triangles(g))


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
    """Neighbour intersection with u < v < w, so each triangle is produced
    from its smallest vertex only: ``higher[u]`` lists the neighbours of u
    above u in increasing order, and the edge ids come from ``edge_index``."""
    higher: list[list[int]] = [[] for _ in range(g.n)]
    for a, b in g.edges:
        higher[a].append(b)
    index = g.edge_index
    out: list[Triangle] = []
    for u, nbrs in enumerate(higher):
        nbrs.sort()
        for i, v in enumerate(nbrs):
            uv = index[u, v]
            for w in nbrs[i + 1 :]:
                vw = index.get((v, w))
                if vw is not None:
                    out.append(Triangle((u, v, w), (uv, index[u, w], vw)))
    return tuple(out)


def _int_pair(row: list[str], expected: str) -> tuple[int, int]:
    if len(row) == 2:
        try:
            return int(row[0]), int(row[1])
        except ValueError:
            pass
    raise InputError(f"bad line {' '.join(row)!r}, expected {expected!r}")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    First meaningful line is ``n m`` with ``0 <= n <= MAX_VERTICES``,
    followed by m lines ``u v`` (0-based).  Blank lines and lines
    starting with '#' are ignored.  Malformed text, or a valid text with
    a bad edge, raises InputError.  The cap on n is checked before any
    graph is built: the triangle scan allocates one list per vertex, so
    n bounds its memory whatever the number of edges.
    """
    rows: list[list[str]] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append(stripped.split())
    if not rows:
        raise InputError("empty edge-list input")
    n, m = _int_pair(rows[0], "n m")
    if n < 0:
        raise InputError(f"negative vertex count {n}")
    if n > MAX_VERTICES:
        raise InputError(f"vertex count {n} exceeds the cap of {MAX_VERTICES}")
    if len(rows) - 1 != m:
        raise InputError(f"header claims {m} edges, found {len(rows) - 1}")
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
