"""tricover benchmark: one closed-loop caller timing the library from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single process and thread imports ``tricover`` from ``src/`` and runs
the workload's jobs one after another, each only after the previous one
returned.  Every job's output is checked exactly; a job that raises,
hits the per-job cap or fails a check is a failure, recorded with its
reason, and the run goes on; any failure makes the run not ``correct``.

``--trace 0`` times whole jobs.  It runs whole passes over the instance
matrix, the first one always and each further one, over a fresh
relabeling, only while another pass of average length would end nearer
to ``--seconds``, at reference speed, than stopping now; then it prints
the end-to-end metrics.  Only whole passes
are measured, so every run samples the matrix evenly.  Its times are
reported at reference speed (see ``reference.py``); the raw ones too.
``--trace 1`` replays every job of the first pass stage by stage through
the public functions, with a span around each call, and prints the
per-layer metrics; it ignores ``--seconds``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from reference import REFERENCE_S, Speed, reference_s
from tracer import Tracer, span_cost_s

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

JOB_CAP_S = 60.0
SETUP_REPEATS = 9
SETUP_SAMPLE_S = 0.15
WORKLOAD_NAMES = ("suite_cover", "oracle_sandwich", "gadget_certify")

# cover's own stages, replayed before it; their spans become its children
COVER_STAGES = {
    "packing.local_search",
    "structure.build",
    "structure.check",
    "charges.order6",
    "charges.order3",
    "order2.run",
    "charges.verify_cover",
}


class JobCapped(BaseException):
    """Raised by the interval timer inside a job that ran past the cap."""


def _on_alarm(signum, frame):
    raise JobCapped()


def capped(fn, *args):
    signal.setitimer(signal.ITIMER_REAL, JOB_CAP_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Tally:
    """Samples, quality sums and failures of one run."""

    def __init__(self):
        self.job_s: list[float] = []
        self.verify_s: list[float] = []
        self.job_span: list[tuple[float, float]] = []  # (start, end) of each job_s
        self.verify_span: list[tuple[float, float]] = []  # of each verify_s's job
        self.packing_size_sum = 0
        self.cover_total_sum = 0
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.capped: list[str] = []

    def attempt(self, job, fn, *args):
        """Run one job under the cap; returns its Outcome or None."""
        self.attempted += 1
        start = perf_counter()
        try:
            outcome = capped(fn, job, *args)
        except JobCapped:
            self.job_s.append(JOB_CAP_S)
            self.job_span.append((start, perf_counter()))
            self.capped.append(job.label)
            self.failures.append((job.label, f"hit the {JOB_CAP_S:g} s cap"))
            return None
        except Exception as exc:  # a raising job is a failure, not the end of the run
            self.job_s.append(perf_counter() - start)
            self.job_span.append((start, perf_counter()))
            self.failures.append((job.label, f"raised {type(exc).__name__}: {exc}"))
            return None
        self.job_s.append(outcome.job_s)
        self.verify_s.append(outcome.verify_s)
        self.job_span.append((start, perf_counter()))
        self.verify_span.append(self.job_span[-1])
        if outcome.problems:
            self.failures.append((job.label, "; ".join(outcome.problems)))
        return outcome

    def add_quality(self, outcome) -> None:
        self.packing_size_sum += outcome.packing_size
        self.cover_total_sum += outcome.cover_total


def band_quantile(xs: list[float], q: float, half: float = 0.05) -> float:
    """The q-quantile as the mean of the samples ranked from q - half to q + half.

    Job times have gaps (a few heavy instances set the tail), so a plain
    order statistic jumps across a gap when two jobs trade places; the
    mean over a band of ranks moves only by their share of it.
    """
    xs = sorted(xs)
    lo = min(int((q - half) * len(xs)), len(xs) - 1)
    hi = max(int((q + half) * len(xs)), lo + 1)
    return statistics.fmean(xs[lo:hi])


@contextmanager
def counted(module, name: str, counters: Counter, key: str):
    """Count and time the library's own calls to ``module.name`` while inside.

    The library calls its helpers through module globals, so swapping the
    attribute sees every call it makes; the benchmark's own references to
    the function, imported before, stay as they were.  Adds to
    ``counters[key + ".calls"]`` and ``counters[key + ".s"]``.
    """
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            counters[key + ".calls"] += 1
            counters[key + ".s"] += perf_counter() - start

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, fn)


def seed0_problems(wl, w, seed: int, base) -> list[str]:
    expected = wl.SEED0_DIGESTS.get(w.name)
    if seed != 0 or expected is None or wl.matrix_digest(base) == expected:
        return []
    return ["seed 0 does not reproduce the acceptance instances"]


def timed_setup(wl, w, seed: int):
    """Set-up time per matrix, at reference speed and raw, and the first pass.

    One matrix is built in milliseconds, so each of SETUP_REPEATS samples
    builds it (``generate`` for every instance, then the first pass's
    jobs) until SETUP_SAMPLE_S of building has passed, with one reference
    computation before every build.  A sample is its build time over its
    reference time, times REFERENCE_S: a host that slows for a moment
    slows both alike.  Returns the medians of both, and the last build.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # garbage from the previous sample is not this one's cost
        build_s = ref_s = 0.0
        builds = 0
        while build_s < SETUP_SAMPLE_S:
            ref_s += reference_s()
            start = perf_counter()
            base = wl.generate_matrix(w)
            jobs = wl.pass_jobs(w, base, seed, 0)
            build_s += perf_counter() - start
            builds += 1
        scaled.append(build_s / ref_s * REFERENCE_S)
        raw.append(build_s / builds)
    return statistics.median(scaled), statistics.median(raw), base, jobs


def time_metrics(setup_s: float, job_s: list[float], verify_s: list[float], successes: int):
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (successes / sum(job_s), "1/s"),
        "job_ms_p50": (band_quantile(job_s, 0.5) * 1e3, "ms"),
        "job_ms_p90": (band_quantile(job_s, 0.9) * 1e3, "ms"),
        # no verified job at all reads as the cap, like a failed request
        "verify_ms_p50": (band_quantile(verify_s or [JOB_CAP_S], 0.5) * 1e3, "ms"),
    }


def timed_run(wl, w, seed: int, seconds: float) -> dict:
    setup_s, raw_setup_s, base, jobs = timed_setup(wl, w, seed)
    speed = Speed()
    run_job = wl.run_oracle_job if w.kind == "oracle" else wl.run_cover_job
    tally = Tally()
    passes = 0
    # the time budget is counted at reference speed too, so that a slow
    # spell of the host does not change how many passes a run makes
    elapsed = 0.0
    while True:
        jobs = jobs if passes == 0 else wl.pass_jobs(w, base, seed, passes)
        start = perf_counter()
        for job in jobs:
            speed.sample()
            outcome = tally.attempt(job, run_job)
            if outcome is not None and passes == 0:
                tally.add_quality(outcome)
        end = perf_counter()
        elapsed += (end - start) * speed.scale(start, end)
        passes += 1
        if elapsed + elapsed / passes / 2 >= seconds:
            break
    speed.sample()  # so that the last job has a sample after it too

    successes = tally.attempted - len(tally.failures)
    raw = time_metrics(raw_setup_s, tally.job_s, tally.verify_s, successes)
    metrics = time_metrics(
        setup_s,
        [t * speed.scale(*when) for t, when in zip(tally.job_s, tally.job_span)],
        [t * speed.scale(*when) for t, when in zip(tally.verify_s, tally.verify_span)],
        successes,
    )
    metrics.update({
        "packing_size_sum": (tally.packing_size_sum, "count"),
        "cover_total_sum": (float(tally.cover_total_sum), "count"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    })
    extra = {f"raw.{name}": value for name, value in raw.items()}
    extra.update({
        "reference_ms": (statistics.median(speed.samples) * 1e3, "ms"),
        "reference_samples": (len(speed.samples), "count"),
        "failed_ratio": (len(tally.failures) / tally.attempted, "ratio"),
        "job_samples": (len(tally.job_s), "count"),
        "verify_samples": (len(tally.verify_s), "count"),
        "passes": (passes, "count"),
        "job_cap_s": (JOB_CAP_S, "s"),
    })
    return finish(tally, metrics, extra, seed0_problems(wl, w, seed, base))


def traced_run(wl, w, seed: int, spans_path: Path) -> dict:
    import tricover.oracles
    import tricover.pipeline

    tr = Tracer()
    base = wl.generate_matrix(w, tr.call)
    jobs = wl.pass_jobs(w, base, seed, 0)
    counters: Counter = Counter()
    tally = Tally()
    local_searches: Counter = Counter()  # local_search_packing runs inside cover, by instance

    def oracle_job(job):
        wl.replay_oracles(job, tr.call, counters)
        outcome = wl.run_oracle_job(job, tr.call)
        nu, tau, stars = outcome.result
        counters["oracles.nu_nodes"] += nu.nodes_explored
        counters["oracles.tau_nodes"] += tau.nodes_explored
        counters["oracles.tau_star_k_nodes"] += sum(s.nodes_explored for s in stars.values())
        return outcome

    def cover_job(job):
        first = len(tr.spans)
        replayed = wl.replay_cover(job, tr.call, counters)
        cover_span = len(tr.spans)  # run_cover_job's first call is cover itself
        before = counters["local_search.calls"]
        outcome = wl.run_cover_job(job, tr.call)
        local_searches[job.instance] += counters["local_search.calls"] - before
        tr.adopt(
            cover_span,
            [i for i in range(first, cover_span) if tr.spans[i][0] in COVER_STAGES],
        )
        r = outcome.result
        outcome.problems += wl.replay_problems(replayed, r)
        counters["pipeline.repairs"] += r.repairs
        return outcome

    start = perf_counter()
    with counted(tricover.oracles, "tau_star_lp_exact", counters, "lp"), \
            counted(tricover.pipeline, "local_search_packing", counters, "local_search"):
        for index, job in enumerate(jobs):
            tr.job = index
            outcome = tally.attempt(job, oracle_job if w.kind == "oracle" else cover_job)
            if outcome is not None:
                tally.add_quality(outcome)
    wall_ms = (perf_counter() - start) * 1e3
    tr.job = None
    # every local search after an instance's first redoes work an earlier cover did
    counters["packing.recomputed"] = sum(max(n - 1, 0) for n in local_searches.values())

    total, own = tr.total_ms(), tr.self_ms()
    cover_ms = total["pipeline.cover"]
    tau_star_ms = total["oracles.tau_star_k"]
    lp_ms = counters["lp.s"] * 1e3
    overhead_ms = len(tr.spans) * span_cost_s() * 1e3

    def ms(name):
        return (own[name], "ms")

    def count(name):
        return (counters[name], "count")

    metrics = {
        "packing.greedy_ms": ms("packing.greedy"),
        "packing.local_search_ms": ms("packing.local_search"),
        "packing.swaps": count("packing.swaps"),
        "packing.recomputed": count("packing.recomputed"),
        "packing.local_search_share": (
            counters["local_search.s"] * 1e3 / cover_ms if cover_ms else 0.0, "ratio"
        ),
        "structure.build_ms": ms("structure.build"),
        "structure.check_ms": ms("structure.check"),
        "structure.violations": count("structure.violations"),
        "charges.order6_ms": ms("charges.order6"),
        "charges.order3_ms": ms("charges.order3"),
        "order2.run_ms": ms("order2.run"),
        "order2.demand_witnesses": count("order2.demand_witnesses"),
        "charges.verify_cover_ms": ms("charges.verify_cover"),
        "graph.parse_edge_list_ms": ms("graph.parse_edge_list"),
        "graph.enumerate_triangles_ms": ms("graph.enumerate_triangles"),
        "graph.triangles": count("graph.triangles"),
        "oracles.nu_ms": ms("oracles.nu"),
        "oracles.nu_nodes": count("oracles.nu_nodes"),
        "oracles.tau_ms": ms("oracles.tau"),
        "oracles.tau_nodes": count("oracles.tau_nodes"),
        "oracles.lp_ms": (lp_ms, "ms"),
        "oracles.lp_solves": (counters["lp.calls"], "count"),
        "oracles.tau_star_k_ms": ms("oracles.tau_star_k"),
        "oracles.tau_star_k_nodes": count("oracles.tau_star_k_nodes"),
        "oracles.lp_share": (lp_ms / tau_star_ms if tau_star_ms else 0.0, "ratio"),
        "pipeline.cover_ms": (cover_ms, "ms"),
        "pipeline.repairs": count("pipeline.repairs"),
        "pipeline.repair_residual_ms": ms("pipeline.cover"),
        "pipeline.certificate_dumps_ms": ms("pipeline.certificate_dumps"),
        "pipeline.verify_certificate_ms": ms("pipeline.verify_certificate"),
        "generators.generate_ms": ms("generators.generate"),
        "trace.spans": (len(tr.spans), "count"),
        "trace.overhead_ms": (overhead_ms, "ms"),
    }
    extra = {
        "failed_ratio": (len(tally.failures) / tally.attempted, "ratio"),
        "trace.overhead_share": (overhead_ms / wall_ms, "ratio"),
        "traced_pass_ms": (wall_ms, "ms"),
        "job_cap_s": (JOB_CAP_S, "s"),
    }
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tr.dump(str(spans_path))
    result = finish(tally, metrics, extra, seed0_problems(wl, w, seed, base))
    result["self_ms"] = dict(sorted(own.items(), key=lambda kv: -kv[1]))
    result["spans_file"] = os.path.relpath(spans_path, ROOT)
    return result


def finish(tally: Tally, metrics: dict, extra: dict, problems: list[str]) -> dict:
    return {
        # a job that raised, hit the cap or failed a check makes the run wrong
        "correct": not tally.failures and not problems,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "failures": [{"job": label, "reason": why} for label, why in tally.failures],
        "capped": tally.capped,
        "problems": problems,
    }


def report(args, result: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for section in ("metrics", "extra"):
        for name, m in result[section].items():
            print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    if "self_ms" in result:
        print("  self time by layer, largest first:")
        for name, v in list(result["self_ms"].items())[:8]:
            print(f"    {name:30s} {v:12.1f} ms")
    print(f"  capped jobs ({len(result['capped'])}): {', '.join(result['capped']) or '-'}")
    for f in result["failures"][:20]:
        print(f"  FAILED {f['job']}: {f['reason']}")
    for p in result["problems"]:
        print(f"  PROBLEM {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result object to this file")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "tricover" / "__init__.py").is_file():
        print(f"error: tricover sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    signal.signal(signal.SIGALRM, _on_alarm)
    w = wl.WORKLOADS[args.workload]
    if args.trace:
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        result = traced_run(wl, w, args.seed, spans)
    else:
        result = timed_run(wl, w, args.seed, args.seconds)
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    report(args, result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    line = {k: result[k] for k in ("correct", "attempted", "failed")}
    line["metrics"] = result["metrics"]
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
