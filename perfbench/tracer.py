"""In-memory spans around the benchmark's calls into each layer."""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Spans as [name, start, end, parent, job], kept until ``dump``.

    ``parent`` is the index of the span that caused this one, or None.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.job: int | None = None
        self.t0 = perf_counter()

    def call(self, name, fn, *args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append([name, start, perf_counter(), None, self.job])

    def adopt(self, parent: int, children) -> None:
        for i in children:
            self.spans[i][3] = parent

    def total_ms(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += (end - start) * 1e3
        return out

    def self_ms(self) -> dict[str, float]:
        """Per span name: total duration minus the durations of its children."""
        out = self.total_ms()
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[self.spans[parent][0]] -= (end - start) * 1e3
        return out

    def dump(self, path: str) -> None:
        rows = [
            {
                "name": name,
                "start_s": start - self.t0,
                "end_s": end - self.t0,
                "parent": parent,
                "job": job,
            }
            for name, start, end, parent, job in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def span_cost_s(samples: int = 20000) -> float:
    """What recording one span costs, measured on empty calls."""
    probe = Tracer()
    start = perf_counter()
    for _ in range(samples):
        probe.call("probe", int)
    return (perf_counter() - start) / samples
