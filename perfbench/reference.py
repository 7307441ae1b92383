"""A fixed computation that tells how fast the host runs Python right now.

On a shared host the same job can take a quarter more or less time from
one second to the next, and every time a run measures moves with it.
The timed run calls this computation before every job, and also reports
each job's time at reference speed: the raw time scaled by
``REFERENCE_S`` over the median reference time sampled from ``WINDOW_S``
before the job to ``WINDOW_S`` after it.  The
computation is pure Python of the kind tricover runs (sets, dicts keyed
by tuples, sorting, Fractions) and does not use tricover, so a change to
the library cannot move it.
"""

from __future__ import annotations

import bisect
import random
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.003  # about its median on the 2-vCPU shared host the bounds were set on
WINDOW_S = 0.25

_rng = random.Random(12345)
_N = 60
_EDGES = [(u, v) for u in range(_N) for v in range(u + 1, _N) if _rng.random() < 0.25]
_TRIANGLES = 580


def reference() -> int:
    """Triangles of a fixed random graph, each weighted 1/3; returns their count."""
    adj = [set() for _ in range(_N)]
    for u, v in _EDGES:
        adj[u].add(v)
        adj[v].add(u)
    tris: dict[tuple[int, int, int], Fraction] = {}
    for u, v in _EDGES:
        for w in sorted(adj[u] & adj[v]):
            if w > v:
                tris[(u, v, w)] = Fraction(1, 3)
    if sum(tris.values(), Fraction(0)) * 3 != len(tris):
        raise ArithmeticError("reference computation went wrong")
    return len(tris)


def reference_s() -> float:
    """Seconds one checked run of ``reference`` takes now."""
    start = perf_counter()
    count = reference()
    elapsed = perf_counter() - start
    if count != _TRIANGLES:
        raise ArithmeticError(f"reference found {count} triangles, not {_TRIANGLES}")
    return elapsed


class Speed:
    """Reference times sampled throughout a run."""

    def __init__(self):
        self.samples: list[float] = []
        self.stamps: list[float] = []  # when each sample ended, ascending

    def sample(self) -> None:
        self.samples.append(reference_s())
        self.stamps.append(perf_counter())

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a raw time taken from start to end into reference-speed time.

        The host's speed changes within a second, so a job is scaled by the
        samples around it, not by the run's; with none there, by the nearest.
        """
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        if lo == hi:
            lo = min(lo, len(self.samples) - 1)
            hi = lo + 1
        return REFERENCE_S / statistics.median(self.samples[lo:hi])
