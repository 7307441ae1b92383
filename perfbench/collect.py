"""Run the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/collect.py --workloads suite_cover,gadget_certify \
        --seeds 1-10 --seconds 30 --out perfbench/results/spread.json

Runs ``perfbench/run.py`` timed, once per (workload, seed), one run at a time,
keeps each run's last output line and the raw times from its full
result, and prints per metric the median and
the spread: the distance between the first and third quartile of the
values, as a share of their median, next to the bound from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 0,7")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    bounds = {}
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        spec = json.loads(bench.read_text())
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
                full = Path(tmp) / "result.json"
                cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0", "--out", str(full)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return proc.returncode
                extra = json.loads(full.read_text())["extra"]
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, **line, "extra": extra})
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"attempted={line['attempted']} failed={line['failed']}", flush=True)

    summary = {}
    for workload in args.workloads.split(","):
        mine = [r for r in runs if r["workload"] == workload]
        names = list(mine[0]["metrics"]) + [n for n in mine[0]["extra"] if n.startswith("raw.")]
        for name in names:
            values = [{**r["metrics"], **r["extra"]}[name]["value"] for r in mine]
            med, share = spread(values) if len(values) >= 2 else (values[0], 0.0)
            summary.setdefault(workload, {})[name] = {
                "median": med, "spread": share, "bound": bounds.get(name),
                "unit": {**mine[0]["metrics"], **mine[0]["extra"]}[name]["unit"],
            }
            bound = bounds.get(name)
            flag = "" if bound is None else (
                "ok" if share <= bound / 3 else "WIDE" if share <= bound else "OVER")
            print(f"  {workload:16s} {name:30s} median {med:14.6g}  spread {share:7.4f}  {flag}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"seconds": args.seconds, "summary": summary,
                   "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
