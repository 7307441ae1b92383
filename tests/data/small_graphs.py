"""Write every graph on 1 to 7 vertices, one per isomorphism class, as graph6.

Standard library only.  From the repository root:

    python tests/data/small_graphs.py > tests/data/small_graphs.g6

The graphs on n vertices are the graphs on n - 1 vertices with one more
vertex, joined to each subset of the others in turn.  Each is reduced to
a canonical form and kept once.  The canonical form is the least
adjacency code over the vertex orders that list the colour classes of
colour refinement in order of their colours.  Those colours do not
depend on the labels, so isomorphic graphs get the same form.  The
output is sorted by vertex count and then by code.
"""

from __future__ import annotations

import itertools
import sys

MAX_N = 7


def refine(adj: list[int]) -> list[int]:
    """Stable colour refinement: each vertex's colour, from 0 up."""
    n = len(adj)
    colour = [0] * n
    while True:
        sig = [
            (colour[v], tuple(sorted(colour[u] for u in range(n) if adj[v] >> u & 1)))
            for v in range(n)
        ]
        keys = sorted(set(sig))
        new = [keys.index(s) for s in sig]
        if len(keys) == len(set(colour)):
            return new
        colour = new


def code(adj: list[int], order: tuple[int, ...]) -> int:
    """The upper triangle of the adjacency matrix under ``order``, column
    by column, read as a binary number."""
    c = 0
    for j in range(1, len(order)):
        for i in range(j):
            c = c << 1 | (adj[order[i]] >> order[j] & 1)
    return c


def canonical(adj: list[int]) -> int:
    colour = refine(adj)
    cells = [[v for v in range(len(adj)) if colour[v] == k] for k in sorted(set(colour))]
    return min(
        code(adj, sum(perms, ()))
        for perms in itertools.product(*(itertools.permutations(c) for c in cells))
    )


def decode(n: int, c: int) -> list[int]:
    """The adjacency bitmasks of a code."""
    adj = [0] * n
    bit = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            bit -= 1
            if c >> bit & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def graph6(n: int, c: int) -> str:
    bits = n * (n - 1) // 2
    pad = -bits % 6
    c <<= pad
    return chr(63 + n) + "".join(
        chr(63 + (c >> shift & 63)) for shift in range(bits + pad - 6, -1, -6)
    )


def main() -> None:
    level = {0}  # the one graph on one vertex
    for n in range(1, MAX_N + 1):
        if n > 1:
            grown = set()
            for c in level:
                adj = decode(n - 1, c)
                for s in range(1 << (n - 1)):
                    new = [a | (s >> v & 1) << (n - 1) for v, a in enumerate(adj)]
                    grown.add(canonical(new + [s]))
            level = grown
        for c in sorted(level):
            sys.stdout.write(graph6(n, c) + "\n")


if __name__ == "__main__":
    main()
