"""Cover drivers, repair loop and certificates."""

import gc
import hashlib
import json
import random
import weakref

import pytest

import tricover.graph as graph
import tricover.pipeline as pl
from tricover import (
    build_graph,
    build_structure,
    cover,
    nu_exact,
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


# the last two repair the shared packing: at every order, and at order 6 only
@pytest.mark.parametrize(
    "g, seed, max_swap, repairs",
    [
        (gnp(11, 0.5, 2), 0, 5, [0, 0, 0]),
        (lend_chain(3), 0, 5, [0, 0, 0]),
        (gnp(10, 0.6, 2), 3, 1, [1, 1, 1]),
        (gnp(10, 0.6, 27), 3, 1, [0, 0, 1]),
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
