"""Instance matrices, jobs and exact output checks for the three workloads.

Each workload is a fixed instance matrix, run in passes.  The first pass
is the matrix itself; every later pass relabels the vertices of every
instance afresh.  The seed orders the jobs of each pass and picks the
relabelings; seed 0 keeps the first pass in the matrix's order, which is
the acceptance suite graph for graph.

The first pass keeps the matrix's own labels at every seed because the
cost of the swap search and of the exact solvers' branch-and-bound moves
by a quarter or more on the heaviest instances under a relabeling, those
instances set p90 and jobs_per_s, and a run has room for one or two
passes of suite_cover or oracle_sandwich only.

A layer call goes through ``call(name, fn, *args)``.  The timed run
passes ``direct``, which only calls; the traced run passes a
``Tracer.call``, which also records a span named after the layer.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from tricover import (
    ChargeAssignment,
    Graph,
    InstanceSpec,
    Packing,
    build_graph,
    build_structure,
    charge_order3,
    charge_order6,
    check_structure,
    cover,
    enumerate_triangles,
    format_edge_list,
    generate,
    greedy_packing,
    local_search_packing,
    nu_exact,
    parse_edge_list,
    run_order2,
    tau_exact,
    tau_star_k_exact,
    verify_certificate,
    verify_cover,
    verify_packing,
)
from tricover.errors import InternalChargeError
from tricover.pipeline import certificate_dumps, graph_digest

ORDERS = (2, 3, 6)
PS = (0.3, 0.5, 0.7)

# sha256 over the newline-joined graph_digest of each graph, in order, of
# the acceptance suite (suite_instances) and of random_instances(200).
SEED0_DIGESTS = {
    "suite_cover": "85898996a8d4992faa147f26276deba7f7d734f510548cad092629415037a2fd",
    "oracle_sandwich": "89f116921ece1ec2318dc3658b81e2acea18e89b1ed208cd13509cc9b7d9a07b",
}


def direct(name, fn, *args):
    return fn(*args)


def suite_specs() -> list[InstanceSpec]:
    """The 114-instance acceptance suite, in its order."""
    specs = [InstanceSpec("complete", n=n) for n in (4, 5, 6, 7, 8)]
    specs.append(InstanceSpec("bowtie"))
    specs += [InstanceSpec("lend_chain", length=L) for L in (1, 2, 3, 4)]
    specs += [InstanceSpec("glued_k4", length=L) for L in (1, 2, 3, 4)]
    specs += [
        InstanceSpec("gnp", n=8 + i % 5, p=PS[i % 3], seed=i) for i in range(100)
    ]
    return specs


def sandwich_specs() -> list[InstanceSpec]:
    """The 200 random graphs of the oracle-sandwich acceptance criterion."""
    return [
        InstanceSpec("gnp", n=4 + i % 7, p=PS[i % 3], seed=1000 + i) for i in range(200)
    ]


def gadget_specs() -> list[InstanceSpec]:
    """Long structured chains (m from 250 to 1200) and sparse gnp(100, 0.05).

    The fourteen random graphs are alike in cost and make up the median
    job; the six chains are the slowest tenth and more.  Each quantile
    thus falls inside a group of similar jobs, not between two groups.
    """
    specs = [InstanceSpec("glued_k4", length=L) for L in (100, 150, 200)]
    specs += [InstanceSpec("lend_chain", length=L) for L in (50, 75, 100)]
    specs += [InstanceSpec("gnp", n=100, p=0.05, seed=s) for s in range(1, 15)]
    return specs


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cover", "oracle" or "certify"
    specs: tuple[InstanceSpec, ...]


WORKLOADS = {
    "suite_cover": Workload("suite_cover", "cover", tuple(suite_specs())),
    "oracle_sandwich": Workload("oracle_sandwich", "oracle", tuple(sandwich_specs())),
    "gadget_certify": Workload("gadget_certify", "certify", tuple(gadget_specs())),
}


@dataclass(frozen=True)
class Job:
    label: str
    instance: int  # index into the workload's instance matrix
    g: Graph
    order: int | None  # None for oracle jobs
    text: str | None  # edge-list text, read back by certify jobs


def generate_matrix(w: Workload, call=direct) -> list[Graph]:
    return [call("generators.generate", generate, spec) for spec in w.specs]


def matrix_digest(graphs: list[Graph]) -> str:
    return hashlib.sha256("\n".join(graph_digest(g) for g in graphs).encode()).hexdigest()


def relabel(g: Graph, key: str) -> Graph:
    perm = list(range(g.n))
    random.Random(key).shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def pass_jobs(w: Workload, base: list[Graph], seed: int, pass_no: int) -> list[Job]:
    """The jobs of one pass over the matrix: every instance once."""
    jobs: list[Job] = []
    for i, (spec, g) in enumerate(zip(w.specs, base)):
        label = spec.label()
        if pass_no:
            key = f"{seed}/{pass_no}/{i}"
            g = relabel(g, key)
            label += f" relabel={key}"
        if w.kind == "cover":
            jobs += [Job(f"{label} order={k}", i, g, k, None) for k in ORDERS]
        elif w.kind == "oracle":
            jobs.append(Job(label, i, g, None, None))
        else:
            k = ORDERS[(i + pass_no) % len(ORDERS)]
            jobs.append(Job(f"{label} order={k}", i, g, k, format_edge_list(g)))
    if seed or pass_no:
        random.Random(f"{seed}/{pass_no}").shuffle(jobs)
    return jobs


@dataclass
class Outcome:
    """What one job returned, how long it took, and what its checks found."""

    job_s: float
    verify_s: float
    packing_size: int
    cover_total: Fraction
    problems: list[str]
    result: object = None  # the CoverResult, or (nu, tau, {k: tau*_k}) of an oracle job


def run_cover_job(job: Job, call=direct) -> Outcome:
    """cover, then the certificate written and read back.

    For a certify job the whole write-then-read path is the job; for a
    cover job only ``cover`` is, and the round-trip is a check.
    """
    g = job.g
    text = job.text if job.text is not None else format_edge_list(g)
    t0 = perf_counter()
    r = call("pipeline.cover", cover, g, job.order)
    t1 = perf_counter()
    cert = call("pipeline.certificate_dumps", certificate_dumps, g, r)
    t2 = perf_counter()
    obj = json.loads(cert)
    g2 = call("graph.parse_edge_list", parse_edge_list, text)
    verdict = call("pipeline.verify_certificate", verify_certificate, g2, obj)
    t3 = perf_counter()
    job_s = (t3 - t0) if job.text is not None else (t1 - t0)
    problems = cover_problems(job, r, g2, obj, verdict)
    return Outcome(job_s, t3 - t2, len(r.packing), r.assignment.total(), problems, r)


def cover_problems(job: Job, r, g2: Graph, obj: dict, verdict) -> list[str]:
    g = job.g
    out: list[str] = []
    if not verify_packing(g, r.packing):
        out.append("packing is not an edge-disjoint triangle packing")
    if not r.report.ok:
        out.append("cover returned an unverified assignment")
    if r.assignment.order != job.order:
        out.append(f"assignment order {r.assignment.order} != {job.order}")
    if r.assignment.total() > 2 * len(r.packing):
        out.append("sum_f exceeds 2|P|")
    if graph_digest(g2) != graph_digest(g):
        out.append("graph text does not parse back to the same graph")
    if not verdict.ok:
        out.append("certificate rejected: " + "; ".join(verdict.messages))
    if obj["packing"] != [list(t.vertices) for t in r.packing.triangles]:
        out.append("certificate packing differs from the result")
    return out


def run_oracle_job(job: Job, call=direct) -> Outcome:
    g = job.g
    t0 = perf_counter()
    nu = call("oracles.nu", nu_exact, g)
    tau = call("oracles.tau", tau_exact, g)
    stars = {k: call("oracles.tau_star_k", tau_star_k_exact, g, k) for k in ORDERS}
    t1 = perf_counter()
    problems = oracle_problems(g, nu, tau, stars, call)
    t2 = perf_counter()
    total = tau.value + sum((s.value for s in stars.values()), Fraction(0))
    return Outcome(t1 - t0, t2 - t1, int(nu.value), total, problems, (nu, tau, stars))


def oracle_problems(g: Graph, nu, tau, stars, call=direct) -> list[str]:
    """Every witness re-checked, then the sandwich between the values."""
    out: list[str] = []
    tris = enumerate_triangles(g)
    try:
        family = Packing(g, list(nu.witness))
    except ValueError as exc:
        family = None
        out.append(f"nu witness is not edge-disjoint: {exc}")
    if family is not None and (
        not verify_packing(g, family) or len(family) != nu.value
    ):
        out.append("nu witness is not a packing of size nu")
    hit = set(tau.witness)
    if len(hit) != tau.value or any(not hit.intersection(t.edge_ids) for t in tris):
        out.append("tau witness is not a triangle-hitting edge set of size tau")
    nu_size = len(nu.witness)
    for k, res in stars.items():
        f = res.witness
        if not isinstance(f, ChargeAssignment) or f.order != k:
            out.append(f"tau*_{k} witness is not an order-{k} assignment")
            continue
        if any(not isinstance(v, int) or not 0 <= v <= k for v in f.numerators.values()):
            out.append(f"tau*_{k} witness is not (1/{k})-integral in [0, 1]")
        report = call("charges.verify_cover", verify_cover, g, f, nu_size)
        if not report.covered:
            out.append(f"tau*_{k} witness misses {len(report.failing)} triangles")
        if f.total() != res.value:
            out.append(f"tau*_{k} witness sums to {f.total()}, not {res.value}")
        if not report.budget_ok:
            out.append(f"tau*_{k} = {res.value} exceeds 2 nu = {2 * nu.value}")
    v_nu, v_tau = nu.value, tau.value
    s2, s3, s6 = (stars[k].value for k in ORDERS)
    if not (v_nu <= s6 <= s3 <= v_tau <= 3 * v_nu and s6 <= s2 <= v_tau):
        out.append(
            f"sandwich broken: nu={v_nu} tau*6={s6} tau*3={s3} tau*2={s2} tau={v_tau}"
        )
    return out


def replay_cover(job: Job, call, counters: dict) -> tuple | None:
    """Run the stages of ``cover``'s first pass one by one.

    Returns (packing, assignment) when that pass verifies without repair,
    otherwise None; in that case ``cover`` must report a repair.
    """
    g = job.g
    tris = call("graph.enumerate_triangles", enumerate_triangles, g)
    counters["graph.triangles"] += len(tris)
    greedy = call("packing.greedy", greedy_packing, g)
    p = call("packing.local_search", local_search_packing, g)
    counters["packing.swaps"] += len(p) - len(greedy)
    s = call("structure.build", build_structure, g, p)
    violations = call("structure.check", check_structure, s)
    counters["structure.violations"] += len(violations)
    if violations:
        return None
    try:
        if job.order == 6:
            f = call("charges.order6", charge_order6, s)
        elif job.order == 3:
            f = call("charges.order3", charge_order3, s)
        else:
            run, witness = call("order2.run", run_order2, s)
            if witness is not None:
                counters["order2.demand_witnesses"] += 1
                return None
            f = run.assignment
    except InternalChargeError:
        return None
    report = call("charges.verify_cover", verify_cover, g, f, len(p))
    return (p, f) if report.ok else None


def replay_problems(replayed, r) -> list[str]:
    """The replay must agree with ``cover`` bit for bit when nothing was repaired."""
    if replayed is None:
        return [] if r.repairs else ["replay needed a repair that cover did not make"]
    if r.repairs:
        return ["cover repaired a packing the replay verified"]
    p, f = replayed
    if p.triangles != r.packing.triangles:
        return ["replayed packing differs from cover's"]
    if f.order != r.assignment.order or f.numerators != r.assignment.numerators:
        return ["replayed assignment differs from cover's"]
    return []


def replay_oracles(job: Job, call, counters: dict) -> None:
    """Layer calls a traced oracle job adds before the job itself."""
    tris = call("graph.enumerate_triangles", enumerate_triangles, job.g)
    counters["graph.triangles"] += len(tris)
