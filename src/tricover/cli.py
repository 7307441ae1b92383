"""Command line interface.

Exit codes: 0 ok, 2 verification failed, 3 repair exhausted, 4 input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .checker import verify_certificate
from .errors import InstanceTooLargeError, RepairExhaustedError, TricoverError
from .generators import InstanceSpec, generate
from .graph import read_edge_list, write_edge_list
from .oracles import nu_exact, tau_star_k_exact
from .packing import _nu_bound, local_search_packing
from .pipeline import certificate_dumps, cover

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_REPAIR = 3
EXIT_INPUT = 4


def _spec_from_args(args) -> InstanceSpec:
    return InstanceSpec(
        family=args.family,
        n=args.n,
        p=args.p,
        seed=args.seed,
        length=args.length,
    )


def cmd_pack(args) -> int:
    g = read_edge_list(args.graph)
    p = local_search_packing(g, args.seed, args.max_swap)
    print(f"packing size {len(p)} on n={g.n} m={g.m}")
    for t in p.triangles:
        print(" ".join(map(str, t.vertices)))
    return EXIT_OK


def cmd_cover(args) -> int:
    g = read_edge_list(args.graph)
    result = cover(g, args.order, seed=args.seed, max_swap=args.max_swap)
    total = result.assignment.total()
    bound = 2 * len(result.packing)
    print(
        f"order {args.order}: sum_f = {total} <= {bound} = 2*packing,"
        f" repairs {result.repairs}"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(certificate_dumps(g, result))
        print(f"certificate written to {args.out}")
    if not result.report.ok:
        print("verification FAILED", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args) -> int:
    g = read_edge_list(args.graph)
    with open(args.certificate, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError(f"{args.certificate}: JSON nested too deeply") from None
    outcome = verify_certificate(g, obj)
    if outcome.ok:
        print("OK")
        return EXIT_OK
    for msg in outcome.messages:
        print(f"FAIL: {msg}", file=sys.stderr)
    return EXIT_VERIFY


def cmd_oracle(args) -> int:
    g = read_edge_list(args.graph)
    if args.what == "nu":
        res = nu_exact(g, cap=args.cap)
    else:
        k = {"tau": 1, "taustar2": 2, "taustar3": 3}[args.what]
        res = tau_star_k_exact(g, k, cap=args.cap)
    print(res.value if res.value.denominator > 1 else res.value.numerator)
    return EXIT_OK


def cmd_gen(args) -> int:
    g = generate(_spec_from_args(args))
    write_edge_list(g, args.out)
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    rows = []
    for trial in range(args.trials):
        seed = args.seed + trial
        spec = InstanceSpec(
            family=args.family, n=args.n, p=args.p, seed=seed, length=args.length
        )
        g = generate(spec)
        t0 = time.perf_counter()
        result = cover(g, args.order, seed=seed, max_swap=args.max_swap)
        ms = int(1000 * (time.perf_counter() - t0))
        try:
            nu = str(nu_exact(g).value)
        except InstanceTooLargeError:
            nu = ""
        rows.append(
            {
                "family": args.family,
                "n": g.n,
                "seed": seed,
                "nu": nu,
                "nu_bound": _nu_bound(g),
                "packing": len(result.packing),
                "sum_f": str(result.assignment.total()),
                "order": args.order,
                "repairs": result.repairs,
                "ms": ms,
            }
        )
    fieldnames = [
        "family", "n", "seed", "nu", "nu_bound", "packing", "sum_f", "order", "repairs", "ms"
    ]
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tricover",
        description="Triangle packings and exact fractional triangle covers.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pack", help="local-search triangle packing")
    p.add_argument("graph")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-swap", type=int, default=5)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("cover", help="verified k-multi-transversal")
    p.add_argument("graph")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-swap", type=int, default=5)
    p.add_argument("--out", help="write certificate JSON here")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("verify", help="re-check a certificate")
    p.add_argument("graph")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exact brute-force baselines")
    p.add_argument("graph")
    p.add_argument("--what", required=True, choices=["nu", "tau", "taustar2", "taustar3"])
    p.add_argument("--cap", type=int, default=200)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="write a generated instance")
    p.add_argument("--family", required=True,
                   choices=["complete", "gnp", "glued_k4", "lend_chain", "bowtie"])
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--length", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="run the cover pipeline over a family")
    p.add_argument("--family", required=True,
                   choices=["complete", "gnp", "glued_k4", "lend_chain", "bowtie"])
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--length", type=int)
    p.add_argument("--max-swap", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except RepairExhaustedError as exc:
        print(f"repair exhausted: {exc}", file=sys.stderr)
        return EXIT_REPAIR
    except (TricoverError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
