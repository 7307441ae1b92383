"""Command line interface.

Exit codes, one meaning each: 0 ok; 2 ``verify`` rejected a
certificate, and no other command exits 2; 3 a result failed the
library's own exact check (``SelfCheckError``), at any order, a
violation in ``cover``'s own start packing too; 4 input error: an
``InputError`` (an oracle search deeper than the recursion limit
among them), a file that cannot be read or decoded, or a usage error,
which argparse alone would exit with 2.  Each failure prints one line
on stderr: ``self-check failed: ...`` for 3, ``error: ...`` for 4.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .checker import verify_certificate
from .errors import InputError, SelfCheckError
from .generators import FAMILIES, InstanceSpec, generate
from .graph import read_edge_list, write_edge_list
from .oracles import DEFAULT_TRIANGLE_CAP, nu_exact, tau_star_k_exact
from .packing import DEFAULT_MAX_SWAP, _nu_bound, local_search_packing
from .pipeline import certificate_dumps, cover

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_SELF_CHECK = 3
EXIT_INPUT = 4

# ``oracle --what``: the order k of tau*_k, or None for nu
_ORACLE_ORDERS = {"nu": None, "tau": 1, "taustar2": 2, "taustar3": 3}


def _spec_from_args(args, seed: int | None) -> InstanceSpec:
    return InstanceSpec(args.family, n=args.n, p=args.p, seed=seed, length=args.length)


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
    print(f"order {args.order}: sum_f = {total} <= {bound} = 2*packing")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(certificate_dumps(g, result))
        print(f"certificate written to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    g = read_edge_list(args.graph)
    with open(args.certificate, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise InputError(f"{args.certificate}: JSON nested too deeply") from None
    outcome = verify_certificate(g, obj)
    if outcome.ok:
        print("OK")
        return EXIT_OK
    for msg in outcome.messages:
        print(f"FAIL: {msg}", file=sys.stderr)
    return EXIT_VERIFY


def cmd_oracle(args) -> int:
    g = read_edge_list(args.graph)
    k = _ORACLE_ORDERS[args.what]
    if k is None:
        res = nu_exact(g, cap=args.cap)
    else:
        res = tau_star_k_exact(g, k, cap=args.cap)
    print(res.value if res.value.denominator > 1 else res.value.numerator)
    return EXIT_OK


def cmd_gen(args) -> int:
    g = generate(_spec_from_args(args, args.seed))
    write_edge_list(g, args.out)
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    rows = []
    for trial in range(args.trials):
        seed = args.seed + trial
        g = generate(_spec_from_args(args, seed))
        t0 = time.perf_counter()
        result = cover(g, args.order, seed=seed, max_swap=args.max_swap)
        ms = int(1000 * (time.perf_counter() - t0))
        try:
            nu = str(nu_exact(g).value)
        except InputError:  # more triangles than the default cap
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
                "ms": ms,
            }
        )
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=rows[0])
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
    # flags shared by the commands that run the local search
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument(
        "--max-swap", type=int, default=DEFAULT_MAX_SWAP,
        help="largest removal set of the local search; pack takes it as given,"
        " cover and bench search at least 3",
    )
    # flags shared by the commands that generate an instance
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", required=True, choices=FAMILIES)
    family.add_argument("--n", type=int)
    family.add_argument("--p", type=float)
    family.add_argument("--length", type=int)

    p = sub.add_parser("pack", parents=[search], help="local-search triangle packing")
    p.add_argument("graph")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("cover", parents=[search], help="verified k-multi-transversal")
    p.add_argument("graph")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", help="write certificate JSON here")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("verify", help="re-check a certificate")
    p.add_argument("graph")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exact brute-force baselines")
    p.add_argument("graph")
    p.add_argument("--what", required=True, choices=_ORACLE_ORDERS)
    p.add_argument("--cap", type=int, default=DEFAULT_TRIANGLE_CAP)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", parents=[family], help="write a generated instance")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "bench", parents=[family, search], help="run the cover pipeline over a family"
    )
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed a usage error (2) or the help (0)
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except SelfCheckError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return EXIT_SELF_CHECK
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
