"""Cover drivers and certificates."""

import ast
import functools
import gc
import hashlib
import importlib
import json
import random
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
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
    # an order-6 engine that charges nothing leaves every triangle of K4
    # uncovered; cover raises at once
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


def test_overweight_engine_result_raises_with_every_packed_edge_as_focus(monkeypatch):
    # an engine result that covers every triangle but puts 7/6 on an edge
    # fails verify_cover alone, with no uncovered triangle to name
    import tricover.pipeline as pl
    from tricover.charges import ChargeAssignment
    from tricover.errors import RepairExhaustedError

    g = complete_graph(4)
    over = {g.edge_id(0, 1): 7, g.edge_id(2, 3): 6}
    monkeypatch.setattr(pl, "charge_order6", lambda s: ChargeAssignment(6, over))
    with pytest.raises(RepairExhaustedError) as info:
        pl.cover(g, 6)
    packed = pl.local_search_packing(g, 0, 5).triangles
    assert info.value.focus_edges == {e for t in packed for e in t.edge_ids}


def test_covered_engine_fault_raises_without_a_swap_search(monkeypatch):
    # the search at 3 leaves |P| < nu here, so a wider swap search would
    # find a swap; an engine result that covers every triangle but is
    # overweight must still raise without one
    import tricover.packing as packing
    from tricover.errors import RepairExhaustedError

    def no_search(*args):
        raise AssertionError("find_swap called")

    g = gnp(12, 0.5, 157)
    packed = pl.local_search_packing(g, 0, 3).triangles
    assert len(packed) < nu_exact(g).value
    assert cover(g, 3, seed=0, max_swap=1).report.ok  # memoises the start
    over = ChargeAssignment(6, {e: 7 for e in range(g.m)})
    monkeypatch.setattr(pl, "charge_order6", lambda s: over)
    monkeypatch.setattr(packing, "find_swap", no_search)
    with pytest.raises(RepairExhaustedError) as info:
        cover(g, 6, seed=0, max_swap=1)
    assert info.value.focus_edges == {e for t in packed for e in t.edge_ids}


def test_short_charge_raises_with_the_uncovered_triangle_as_focus(monkeypatch):
    # the order-2 charge here is made short: it drops the half on (0, 6)
    # of gnp(12, 0.5, 150), which leaves T(0, 3, 6) and T(0, 6, 9)
    # uncovered.  cover charges once and names the first of them
    from tricover.errors import RepairExhaustedError

    real = pl.run_order2
    charged = []

    def short(s):
        run, witness = real(s)
        run.assignment.numerators[s.g.edge_id(0, 6)] -= 1
        charged.append(s)
        return run, witness

    monkeypatch.setattr(pl, "run_order2", short)
    g = gnp(12, 0.5, 150)
    with pytest.raises(RepairExhaustedError) as info:
        cover(g, 2, seed=0, max_swap=1)
    t = g.triangle(0, 3, 6)
    assert info.value.focus_edges == set(t.edge_ids) and len(charged) == 1


def test_cover_rejects_a_max_swap_below_one():
    g = complete_graph(5)
    for max_swap in (0, -1):
        with pytest.raises(ValueError):
            cover(g, 2, max_swap=max_swap)


# covers at max_swap 1 and 2, which cover searches at 3: (graph, seed,
# max_swap, order, |P|, sum_f).  The first four once took one verify
# repair from an E-family start packing (tests/test_order2.py), the next
# three once took structure repairs, the three after once needed a swap
# repair from a run-time demand check, and the last two are the weak
# searches of SHARED_START_CASES
WEAK_SEARCH_COVERS = [
    ((12, 0.6, 565391), 11, 2, 2, 11, Fraction(18)),
    ((11, 0.7, 871043), 42, 1, 2, 13, Fraction(41, 2)),
    ((16, 0.6, 76099), 78, 1, 2, 18, Fraction(28)),
    ((14, 0.5, 225439), 79, 2, 2, 12, Fraction(20)),
    ((10, 0.3, 637720), 99, 1, 6, 3, Fraction(6)),
    ((12, 0.5, 420884), 2, 1, 2, 8, Fraction(13)),
    ((11, 0.7, 38), 0, 1, 2, 12, Fraction(19)),
    ((9, 0.7, 84734), 13, 1, 2, 7, Fraction(25, 2)),
    ((13, 0.7, 837263), 97, 1, 2, 15, Fraction(45, 2)),
    ((14, 0.5, 542570), 58, 1, 2, 12, Fraction(19)),
    ((12, 0.5, 150), 0, 1, 2, 10, Fraction(31, 2)),
    ((10, 0.6, 2), 3, 1, 2, 6, Fraction(10)),
]


@pytest.mark.parametrize("args, seed, max_swap, order, size, total", WEAK_SEARCH_COVERS)
def test_weak_search_cover_pinned(args, seed, max_swap, order, size, total):
    g = gnp(*args)
    r = cover(g, order, seed=seed, max_swap=max_swap)
    assert r.report.ok and r.repair_log == []
    assert (len(r.packing), r.assignment.total()) == (size, total)
    fresh = gnp(*args)
    assert certificate_dumps(g, r) == certificate_dumps(fresh, cover(fresh, order, seed, 3))


def test_certificate_with_a_repair_log_still_verifies():
    # the order-2 certificate of gnp(12, 0.6, 565391) at seed 11 and
    # max_swap 2 as the repair loop wrote it: one verify repair grew the
    # start packing of 10 to 11.  The one-pass cover finds that packing
    # and those weights directly, so it writes the same certificate with
    # an empty log
    path = Path(__file__).parent / "data" / "gnp-12-0.6-565391-order2-repaired.json"
    old = json.loads(path.read_text(encoding="utf-8"))
    g = gnp(12, 0.6, 565391)
    assert [e["reason"] for e in old["repair_log"]] == ["verify"]
    assert verify_certificate(g, old).ok
    new = certificate_obj(g, cover(g, 2, seed=11, max_swap=2))
    assert new == {**old, "repair_log": []}


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(6, 13),
    p=st.sampled_from([0.4, 0.5, 0.6, 0.7]),
    graph_seed=st.integers(0, 10**6),
    seed=st.integers(0, 200),
    order=st.sampled_from([2, 3, 5, 6]),
)
def test_weak_searches_give_the_3_swap_cover(n, p, graph_seed, seed, order):
    # max_swap 1, 2 and 3 share one start packing and one structure, and
    # no swap search runs outside the local search
    import tricover.packing as packing

    searching = []
    real_search, real_find = pl.local_search_packing, packing.find_swap

    def local_search(*args):
        searching.append(True)
        try:
            return real_search(*args)
        finally:
            searching.pop()

    def find_swap(*args):
        assert searching, "find_swap called outside local_search_packing"
        return real_find(*args)

    g = gnp(n, p, graph_seed)
    with pytest.MonkeyPatch.context() as mp:
        built = _count_calls(mp, pl, "build_structure")
        mp.setattr(pl, "local_search_packing", local_search)
        mp.setattr(packing, "find_swap", find_swap)
        mp.setattr(pl, "find_swap", find_swap, raising=False)
        certs = {certificate_dumps(g, cover(g, order, seed, m)) for m in (1, 2, 3)}
    assert len(certs) == 1 and len(built) == 1
    assert json.loads(certs.pop())["repair_log"] == []


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


# the last two search at 3 in place of max_swap 1; the third's packing
# at max_swap 1 once took two structure repairs at every order, and the
# last once needed an engine repair at order 2.  No cover repairs now
SHARED_START_CASES = [
    (gnp(11, 0.5, 2), 0, 5, [0, 0, 0]),
    (lend_chain(3), 0, 5, [0, 0, 0]),
    (gnp(10, 0.6, 2), 3, 1, [0, 0, 0]),
    (gnp(12, 0.5, 150), 0, 1, [0, 0, 0]),
]


@pytest.mark.parametrize("g, seed, max_swap, repairs", SHARED_START_CASES)
def test_orders_share_one_local_search(monkeypatch, g, seed, max_swap, repairs):
    calls = _count_calls(monkeypatch, pl, "local_search_packing")
    results = {k: cover(g, k, seed=seed, max_swap=max_swap) for k in (2, 3, 6)}
    assert len(calls) == 1
    assert [r.repairs for r in results.values()] == repairs
    for k, r in results.items():
        fresh = build_graph(g.n, g.edges)
        assert _outputs(r) == _outputs(cover(fresh, k, seed=seed, max_swap=max_swap))
    assert len(calls) == 4  # one per fresh graph


@pytest.mark.parametrize("g, seed, max_swap", [case[:3] for case in SHARED_START_CASES])
@pytest.mark.parametrize("orders", [(2, 3, 6), (6, 3, 2), (3, 5, 2, 4)])
def test_shared_start_does_not_depend_on_order_sequence(g, seed, max_swap, orders):
    # every order after the first starts from the memoised packing and
    # structure; its cover must be the one a fresh graph gives, whichever
    # order filled the memo
    g = build_graph(g.n, g.edges)
    for k in orders:
        fresh = build_graph(g.n, g.edges)
        assert _outputs(cover(g, k, seed, max_swap)) == _outputs(
            cover(fresh, k, seed, max_swap)
        ), k


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
    for args, seed, *_ in WEAK_SEARCH_COVERS:
        g = gnp(*args)
        for max_swap in (1, 2, 3):
            for k in (2, 3, 6):
                assert cover(g, k, seed, max_swap).report.ok
    assert len(built) == len(WEAK_SEARCH_COVERS)
    assert sum(map(len, checks)) == len(built)


def test_memo_keeps_no_reference_to_its_graph():
    g = gnp(10, 0.6, 2)
    ref = weakref.ref(g)
    r = cover(g, 2, seed=3, max_swap=1)
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


def test_memo_of_every_order_keeps_no_reference_to_its_graph():
    # the memoised start structure of a weak search and of the default
    # search, read by orders 2, 3 and 6, holds no path back to g
    g = gnp(10, 0.6, 2)
    ref = weakref.ref(g)
    rs = [cover(g, k, seed=3, max_swap=1) for k in (3, 6, 2)]
    rs += [cover(g, k) for k in (6, 3, 2)]
    assert all(r.report.ok for r in rs)
    assert {("start", 3, 3), ("start", 0, 5)} <= set(g._memo)
    gc.collect()
    gc.disable()
    try:
        del g, rs
        assert ref() is None  # freed by reference counting, no cycle
    finally:
        gc.enable()


def test_memoised_start_structure_is_read_only(monkeypatch):
    # every cover of g hands the engines the same memoised classification,
    # so an engine must not be able to write into it
    g = gnp(11, 0.5, 2)
    assert cover(g, 3).report.ok and cover(g, 6).report.ok
    seen = _count_calls(monkeypatch, pl, "run_order2")
    r = cover(g, 2)
    assert r.report.ok and not r.repairs
    ((s,),) = seen
    psi = s.packing.triangles[0]
    t = next(iter(s.attachments))
    for mapping, key, value in (
        (s.info, psi, s.info[psi]),
        (s.attachments, t, ()),
        (s.edge_owner, psi.edge_ids[0], psi),
    ):
        with pytest.raises(TypeError):
            mapping[key] = value
    assert isinstance(s.violations, tuple)


def test_cover_enumerates_triangles_once_per_graph(monkeypatch):
    calls = _count_calls(monkeypatch, graph, "_find_triangles")
    instances = suite_instances()
    for _, g in instances:
        for k in (2, 3, 6):
            assert cover(g, k).report.ok
    assert len(calls) == len(instances) == 114


def test_cover_classifies_each_start_packing_once(monkeypatch):
    # one structure per graph; a composed order's two halves share it too
    built = _count_calls(monkeypatch, pl, "build_structure")
    instances = suite_instances()
    for _, g in instances:
        for k in (2, 3, 6):
            assert cover(g, k).report.ok
    assert len(built) == len(instances) == 114
    del built[:]
    assert cover(gnp(11, 0.5, 2), 5).report.ok
    assert len(built) == 1


def test_cover_suite_digest():
    # sha256 over the acceptance suite x orders 2, 3, 6 of each cover's
    # numerators, packing, repair log and per-triangle spending; its
    # orders 2 and 3 rows are as on the commit before the memoised
    # triangle list, its order 6 rows are those rows of order 3 doubled
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
    assert digest == "3daa75a9f90302aad15bb1ba96945a637095a2abc214352a4bfcdc6b41bd0fd6"


def test_order6_is_the_order3_cover_doubled():
    # a (1/3)-integral cover is (1/6)-integral with the same total, so
    # order 6 keeps order 3's packing, repairs and weights; on
    # gnp(8, 0.3, 45) that total, 11/3, is below 2|P| = 4
    for name, g in suite_instances():
        r3, r6 = cover(g, 3), cover(g, 6)
        assert r6.packing.triangles == r3.packing.triangles, name
        assert r6.repair_log == r3.repair_log, name
        assert r6.assignment.numerators == {
            e: 2 * v for e, v in r3.assignment.numerators.items()
        }, name
        if name == "gnp(8,0.3,45)":
            assert (len(r6.packing), r6.assignment.total()) == (2, Fraction(11, 3))


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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_checker_rejects_raw_json(data):
    # any JSON value in place of the whole certificate, of one field, of
    # one verdict field, or of the first packing or weight row or its
    # first entry: the checker never raises, and it rejects every value
    # that cannot be right.  Fields it does not read, a verdict object,
    # and integers or rows of them in the packing or weights may still
    # give a valid certificate.
    certs = _certificates()
    text, cert = certs[data.draw(st.integers(0, len(certs) - 1))]
    obj = json.loads(cert)
    assume(obj["packing"])  # a cover of total 0 holds for every order
    g = parse_edge_list(text)
    paths = [()] + [(k,) for k in obj] + [("verdict", k) for k in obj["verdict"]]
    paths += [(k, 0, *tail) for k in ("packing", "weights") for tail in ((), (0,))]
    path = data.draw(st.sampled_from(paths))
    value = data.draw(JSON_VALUES)
    if path:
        slot = functools.reduce(lambda o, k: o[k], path[:-1], obj)
        assume(json.dumps(value) != json.dumps(slot[path[-1]]))
        slot[path[-1]] = value
    else:
        obj = value
    outcome = verify_certificate(g, obj)
    may_pass = (
        path[:1] in (("n",), ("m",), ("repair_log",))
        or path[1:] in (("covered",), ("budget_ok",), ("integrality_ok",))
        or (path == ("verdict",) and type(value) is dict)
        or (
            path[:1] in (("packing",), ("weights",))
            and (type(value) is int or checker._int_rows(value) or checker._int_rows([value]))
        )
    )
    assert not outcome.ok or may_pass


_PACKAGE = Path(checker.__file__).parent


@pytest.mark.parametrize("module", sorted(p.stem for p in _PACKAGE.glob("*.py")))
def test_module_imports_only_the_standard_library(module):
    # the package is pure standard library, and exact checks must survive
    # python -O; the checker also imports nothing of the rest of tricover
    tree = ast.parse((_PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    modules, relative = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            (relative if node.level else modules).append(node.module)
    for name in modules:
        top = name.split(".")[0]
        assert top in sys.stdlib_module_names and top != "tricover", name
    assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree))
    if module == "checker":
        assert modules and not relative, relative
        assert verify_certificate is checker.verify_certificate


def test_benchmark_names_exist():
    # perfbench/ imports these names and swaps these attributes; dropping
    # one from tricover breaks the benchmark, so it must stay or the
    # benchmark change that frees it must come first
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    pins = []
    for script in ("workloads.py", "run.py"):
        tree = ast.parse((perfbench / script).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                pins += [(a.name, None) for a in node.names if a.name.startswith("tricover.")]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                if node.module == "tricover" or node.module.startswith("tricover."):
                    pins += [(node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "counted":
                module, name = node.args[:2]
                pins.append((ast.unparse(module), name.value))
    assert ("tricover.oracles", "tau_star_lp_exact") in pins and len(pins) > 20
    for module, name in pins:
        found = importlib.import_module(module)
        assert name is None or hasattr(found, name), (module, name)


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
