"""Cover drivers, repair loop and certificates."""

import ast
import functools
import gc
import hashlib
import json
import random
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tricover.charges as charges
import tricover.checker as checker
import tricover.graph as graph
import tricover.order2 as order2
import tricover.pipeline as pl
import tricover.structure as structure
from tricover import (
    ChargeAssignment,
    Packing,
    build_graph,
    build_structure,
    cover,
    format_edge_list,
    nu_exact,
    parse_edge_list,
    tau_star_k_exact,
    verify_certificate,
    verify_cover,
)
from tricover.generators import bowtie, complete_graph, glued_k4, gnp, lend_chain
from tricover.pipeline import certificate_dumps, certificate_obj, graph_digest

from test_acceptance import suite_instances


def test_cover_all_orders_on_small_suite():
    graphs = [complete_graph(n) for n in (4, 5, 6)] + [bowtie(), lend_chain(2), glued_k4(2)]
    for g in graphs:
        for order in (2, 3, 6):
            r = cover(g, order)
            assert r.report.ok
            assert r.assignment.total() <= 2 * len(r.packing)


def test_cover_composed_orders():
    g = complete_graph(6)
    for k in (4, 5, 7, 12):
        r = cover(g, k)
        assert r.report.ok
        assert r.assignment.order == k
        # integer numerators only
        assert all(isinstance(v, int) for v in r.assignment.numerators.values())


def test_cover_with_weak_search_repairs_until_verified():
    repaired = 0
    for seed in range(8):
        g = gnp(10, 0.6, seed)
        for order in (2, 3, 6):
            r = cover(g, order, seed=3, max_swap=1)
            assert r.report.ok
            repaired += r.repairs
    assert repaired > 0  # weak local optima force the repair path


def test_cover_never_beats_oracle():
    rng = random.Random(13)
    for _ in range(10):
        g = gnp(rng.randint(5, 9), 0.5, rng.randint(0, 10**6))
        nu = nu_exact(g).value
        for order in (2, 3):
            r = cover(g, order)
            assert r.assignment.total() <= 2 * nu


def test_certificate_round_trip():
    g = complete_graph(6)
    r = cover(g, 2)
    obj = json.loads(certificate_dumps(g, r))
    assert obj["graph_sha256"] == graph_digest(g)
    outcome = verify_certificate(g, obj)
    assert outcome.ok, outcome.messages
    # integers only in persisted numbers
    def only_ints(x):
        if isinstance(x, bool):
            return True
        if isinstance(x, float):
            return False
        if isinstance(x, list):
            return all(only_ints(v) for v in x)
        if isinstance(x, dict):
            return all(only_ints(v) for v in x.values())
        return True
    assert only_ints(obj)


def test_certificate_dumps_is_the_certificate_object():
    # one field per line changes whitespace only
    for g in (complete_graph(6), lend_chain(3), build_graph(3, [])):
        r = cover(g, 3)
        text = certificate_dumps(g, r)
        assert json.loads(text) == json.loads(json.dumps(certificate_obj(g, r)))
        assert len(text.splitlines()) == len(certificate_obj(g, r)) + 2


def test_certificate_rejects_zeroed_weight():
    g = complete_graph(6)
    r = cover(g, 2)
    obj = certificate_obj(g, r)
    obj["weights"] = obj["weights"][1:]
    outcome = verify_certificate(g, obj)
    assert not outcome.ok
    assert any("uncovered" in m for m in outcome.messages)


def test_certificate_rejects_forged_budget():
    g = complete_graph(6)
    r = cover(g, 2)
    obj = certificate_obj(g, r)
    obj["weights"] = [[u, v, 2] for u, v in g.edges]
    outcome = verify_certificate(g, obj)
    assert not outcome.ok
    assert any("budget" in m for m in outcome.messages)


def test_certificate_rejects_wrong_graph():
    g = complete_graph(6)
    r = cover(g, 2)
    obj = certificate_obj(g, r)
    h = complete_graph(7)
    outcome = verify_certificate(h, obj)
    assert not outcome.ok


def test_repair_exhausted_surfaces_with_focus(monkeypatch):
    # force the order-6 engine to emit a useless assignment on an optimal
    # packing: no improving swap can exist, so escalation must give up
    import tricover.pipeline as pl
    from tricover.charges import ChargeAssignment
    from tricover.errors import RepairExhaustedError

    monkeypatch.setattr(pl, "charge_order6", lambda s: ChargeAssignment(6, {}))
    g = complete_graph(4)
    try:
        pl.cover(g, 6)
    except RepairExhaustedError as exc:
        assert exc.focus_edges
    else:
        raise AssertionError("expected RepairExhaustedError")


def test_structure_swap_that_fails_verify_raises(monkeypatch):
    # a violation's swap is applied, not searched for; one that does not
    # verify is a bug and must surface as exit 3, not an assert
    from tricover.errors import RepairExhaustedError

    monkeypatch.setattr(pl, "verify_swap", lambda g, p, cert: False)
    g = gnp(10, 0.6, 0)
    with pytest.raises(RepairExhaustedError) as info:
        cover(g, 2, seed=0, max_swap=1)
    assert info.value.detail == "structure-swap" and info.value.focus_edges


def test_repair_log_records_swaps():
    found = None
    for seed in range(30):
        g = gnp(10, 0.6, seed)
        r = cover(g, 2, seed=3, max_swap=1)
        if r.repairs:
            found = r
            break
    assert found is not None
    entry = found.repair_log[0]
    assert {"reason", "focus", "removed", "added", "size_after"} <= set(entry)
    assert len(entry["added"]) == len(entry["removed"]) + 1


# one weak-search cover (seed 0, max_swap 1) per repair reason: both
# structure kinds (a two-attachment swap only ever follows an owner swap,
# since local search removes every 1-swap), an order-2 demand shape, and
# an order-2 charge that fails verify on a structure-clean packing; no
# internal engine error was reached in a sweep of 59400 such covers
WEAK_SEARCH_REPAIRS = [
    ((10, 0.6, 0), 2, ["structure:OwnerSwap"]),
    ((9, 0.5, 242), 2, ["structure:OwnerSwap", "structure:TwoAttachments"]),
    ((10, 0.6, 15), 2, ["demand-shape"]),
    ((12, 0.5, 150), 2, ["verify", "structure:OwnerSwap"]),
]


def test_weak_search_repair_logs_pinned():
    # sha256 over each cover's full repair log, packing and numerators,
    # computed when structure violations first carried their swaps
    rows = []
    for args, order, reasons in WEAK_SEARCH_REPAIRS:
        r = cover(gnp(*args), order, seed=0, max_swap=1)
        assert r.report.ok, args
        assert [e["reason"] for e in r.repair_log] == reasons, args
        rows.append(
            (
                r.repair_log,
                [t.vertices for t in r.packing.triangles],
                sorted(r.assignment.numerators.items()),
            )
        )
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "d549534571c35130cd1bac9ea781a25a5d6817b5375f0b76a03c2d146f532a83"


def _count_calls(monkeypatch, module, name):
    """Count calls made through ``module.name`` while the test runs."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _outputs(r):
    return r.packing.triangles, r.assignment, r.report, r.repair_log


# the last two repair the shared packing: structure swaps at every
# order, and an engine repair (a demand shape) at order 2 only.  No
# weak-search cover repairs at order 6 alone any more: every repair in a
# sweep of 59400 max_swap=1 covers at orders 2, 3 and 6 was a structure
# swap, made at all three orders, or an order-2 engine repair
@pytest.mark.parametrize(
    "g, seed, max_swap, repairs",
    [
        (gnp(11, 0.5, 2), 0, 5, [0, 0, 0]),
        (lend_chain(3), 0, 5, [0, 0, 0]),
        (gnp(10, 0.6, 2), 3, 1, [2, 2, 2]),
        (gnp(8, 0.5, 147), 3, 1, [1, 0, 0]),
    ],
)
def test_orders_share_one_local_search(monkeypatch, g, seed, max_swap, repairs):
    calls = _count_calls(monkeypatch, pl, "local_search_packing")
    results = {k: cover(g, k, seed=seed, max_swap=max_swap) for k in (2, 3, 6)}
    assert len(calls) == 1
    assert [r.repairs for r in results.values()] == repairs
    for k, r in results.items():
        fresh = build_graph(g.n, g.edges)
        assert _outputs(r) == _outputs(cover(fresh, k, seed=seed, max_swap=max_swap))
    assert len(calls) == 4  # one per fresh graph


def test_composed_order_runs_one_local_search(monkeypatch):
    calls = _count_calls(monkeypatch, pl, "local_search_packing")
    g = gnp(11, 0.5, 2)
    r = cover(g, 5)
    assert len(calls) == 1
    assert r.report.ok and r.assignment.order == 5


def test_cover_checks_each_structure_once(monkeypatch):
    # count check_structure through every module that holds the name, so
    # a second check made by a charging engine would be seen
    built = _count_calls(monkeypatch, pl, "build_structure")
    checks = [
        _count_calls(monkeypatch, module, "check_structure")
        for module in (structure, pl, charges, order2)
        if hasattr(module, "check_structure")
    ]
    covers = 0
    for args, _, _ in WEAK_SEARCH_REPAIRS:
        for k in (2, 3, 6):
            assert cover(gnp(*args), k, seed=0, max_swap=1).report.ok
            covers += 1
    assert len(built) > covers  # repairs build more than one structure
    assert sum(map(len, checks)) == len(built)


def test_memo_keeps_no_reference_to_its_graph():
    g = gnp(10, 0.6, 2)
    ref = weakref.ref(g)
    r = cover(g, 2, seed=3, max_swap=1)
    assert r.repairs
    tau_star_k_exact(g, 3)
    s = build_structure(g, r.packing)
    assert verify_cover(g, r.assignment, len(r.packing)).ok
    assert {"triangles", "tau_star_lp"} <= set(g._memo)  # all kept on the graph
    gc.collect()
    gc.disable()
    try:
        del g, r, s
        assert ref() is None  # freed by reference counting, no cycle
    finally:
        gc.enable()


def test_cover_enumerates_triangles_once_per_graph(monkeypatch):
    calls = _count_calls(monkeypatch, graph, "_find_triangles")
    instances = suite_instances()
    for _, g in instances:
        for k in (2, 3, 6):
            assert cover(g, k).report.ok
    assert len(calls) == len(instances) == 114


def test_cover_suite_digest():
    # sha256 over the acceptance suite x orders 2, 3, 6 of each cover's
    # numerators, packing, repair log and per-triangle spending, computed
    # on the commit before the memoised triangle list
    rows = []
    for _, g in suite_instances():
        for k in (2, 3, 6):
            r = cover(g, k)
            rows.append(
                (
                    sorted(r.assignment.numerators.items()),
                    [t.vertices for t in r.packing.triangles],
                    r.repair_log,
                    sorted((t.vertices, v) for t, v in r.assignment.per_triangle.items()),
                )
            )
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "c3e808bf944a876feff0f91d6e84e19f62af556545bc512b363a4b2c338a7245"


def test_cover_is_invariant_under_edge_order():
    # reading the edges in reverse flips every edge-id tie-break of the
    # engines; the packing and the cover's total must not move
    for name, g in suite_instances():
        flipped = build_graph(g.n, list(reversed(g.edges)))
        for order in (2, 3, 6):
            r = cover(g, order)
            rf = cover(flipped, order)
            assert verify_cover(flipped, rf.assignment, len(rf.packing)).ok, name
            assert sorted(t.vertices for t in rf.packing.triangles) == sorted(
                t.vertices for t in r.packing.triangles
            ), (name, order)
            assert rf.assignment.total() == r.assignment.total(), (name, order)


def _reference_verify_certificate(g, obj):
    """The certificate check as the library made it before the checker
    module: on the producer's Packing, ChargeAssignment and verify_cover.
    Only the schema check is shared; it moved unchanged."""
    problem = checker._schema_problem(obj)
    if problem is not None:
        return False, (f"bad certificate: {problem}",)
    messages = []
    if obj["graph_sha256"] != hashlib.sha256(format_edge_list(g).encode()).hexdigest():
        messages.append("graph digest mismatch")
    try:
        packing = Packing(g, [g.triangle(*vs) for vs in obj["packing"]])
    except (KeyError, ValueError) as exc:
        return False, (f"bad packing: {exc}",)
    if len(packing) != len(obj["packing"]):
        return False, ("bad packing: a triangle is listed twice",)
    nums = {}
    for u, v, num in obj["weights"]:
        if not g.has_edge(u, v):
            return False, (f"weight on missing edge ({u},{v})",)
        eid = g.edge_id(u, v)
        if eid in nums:
            return False, (f"edge ({u},{v}) weighted twice",)
        nums[eid] = num
    f = ChargeAssignment(obj["order"], nums)
    report = verify_cover(g, f, len(packing))
    if not report.covered:
        messages.append(
            f"{len(report.failing)} triangles uncovered, first {report.failing[0].vertices}"
        )
    if not report.budget_ok:
        messages.append(f"budget exceeded: total {report.total} > 2*{len(packing)}")
    if not report.integrality_ok:
        messages.append("weights outside 0..order")
    claimed = obj.get("verdict", {})
    if claimed:
        total = Fraction(
            claimed.get("total_numerator", 0), claimed.get("total_denominator", 1)
        )
        if total != f.total():
            messages.append("stated total differs from recomputed total")
    return not messages, tuple(messages)


@functools.cache
def _certificates():
    """(edge-list text, certificate text) of every suite cover at orders
    2, 3 and 6, and of gadget covers at m in the hundreds."""
    graphs = [g for _, g in suite_instances()]
    out = [(g, k) for g in graphs for k in (2, 3, 6)]
    gadgets = [glued_k4(100), lend_chain(50)] + [gnp(100, 0.05, s) for s in (1, 2, 3)]
    out += [(g, (2, 3, 6)[i % 3]) for i, g in enumerate(gadgets)]
    return [(format_edge_list(g), certificate_dumps(g, cover(g, k))) for g, k in out]


def _edit(data, obj, n):
    """Apply one drawn edit to ``obj``: drop or duplicate a row, bump a
    numerator, move a packing vertex, weight a random pair or bump the
    stated total."""
    kind = data.draw(
        st.sampled_from(["drop", "duplicate", "numerator", "vertex", "pair", "total"])
    )
    key = "weights" if kind in ("numerator", "pair") else "packing"
    if kind in ("drop", "duplicate"):
        key = data.draw(st.sampled_from(["packing", "weights"]))
    rows = obj[key]
    if kind == "pair":
        vertex = st.integers(-1, n)
        rows.append([data.draw(vertex), data.draw(vertex), data.draw(st.integers(-1, 7))])
    elif kind == "total":
        obj["verdict"]["total_numerator"] += data.draw(st.sampled_from([-1, 1]))
    elif rows:
        i = data.draw(st.integers(0, len(rows) - 1))
        if kind == "drop":
            del rows[i]
        elif kind == "duplicate":
            row = data.draw(st.permutations(rows[i]))
            rows.insert(data.draw(st.integers(0, len(rows))), list(row))
        elif kind == "numerator":
            rows[i][2] += data.draw(st.sampled_from([-2, -1, 1, 2]))
        else:
            rows[i][data.draw(st.integers(0, 2))] = data.draw(st.integers(-1, n))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_checker_matches_reference_on_edited_certificates(data):
    certs = _certificates()
    text, cert = certs[data.draw(st.integers(0, len(certs) - 1))]
    g = parse_edge_list(text)
    if data.draw(st.booleans()):
        # new edge ids, and the graph no longer matches the digest
        g = build_graph(g.n, data.draw(st.permutations(g.edges)))
    obj = json.loads(cert)
    if data.draw(st.booleans()):
        _edit(data, obj, g.n)
    outcome = checker.verify_certificate(g, obj)
    assert (outcome.ok, outcome.messages) == _reference_verify_certificate(g, obj)


def test_checker_agrees_with_reference_on_every_certificate():
    for text, cert in _certificates():
        g = parse_edge_list(text)
        obj = json.loads(cert)
        outcome = verify_certificate(g, obj)
        assert outcome.ok and (outcome.ok, outcome.messages) == _reference_verify_certificate(
            g, obj
        )


def test_checker_imports_only_the_standard_library():
    tree = ast.parse(open(checker.__file__, encoding="utf-8").read())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            modules.append(node.module)
    assert modules
    for name in modules:
        top = name.split(".")[0]
        assert top in sys.stdlib_module_names and top != "tricover", name
    # exact checks must survive python -O
    assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree))
    assert pl.verify_certificate is checker.verify_certificate
    assert verify_certificate is checker.verify_certificate


def test_graph_digest_is_sha256_of_the_edge_list_text():
    rng = random.Random(5)
    graphs = [build_graph(0, []), build_graph(5, [])]
    for _ in range(100):
        n = rng.randint(1, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
        graphs.append(build_graph(n, [p if rng.random() < 0.5 else p[::-1] for p in chosen]))
    for g in graphs:
        assert pl.graph_digest(g) == hashlib.sha256(format_edge_list(g).encode()).hexdigest()
