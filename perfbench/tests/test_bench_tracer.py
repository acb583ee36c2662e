"""Span bookkeeping of the benchmark tracer, and its counters against lagsob's own."""

import numpy as np
import pytest

import lagsob
import tracer


def _fake_clock(step=10):
    ticks = iter(range(0, 10_000, step))
    return lambda: next(ticks)


def test_self_time_nesting_and_op_ids_on_a_synthetic_tree():
    t = tracer.Tracer(clock=_fake_clock())
    t.op = 1
    outer = t.begin("solver.outer")      # 0
    inner = t.begin("laguerre.inner")    # 10
    leaf = t.begin("quadrature.leaf")    # 20
    t.end(leaf)                          # 30
    t.end(inner)                         # 40
    again = t.begin("laguerre.inner")    # 50
    t.end(again)                         # 60
    t.end(outer)                         # 70
    t.op = 2
    t.end(t.begin("solver.outer"))       # 80 .. 90

    parents = [s[3] for s in t.spans]
    assert parents == [-1, 0, 1, 0, -1]
    assert [s[4] for s in t.spans] == [1, 1, 1, 1, 2]

    summary = tracer.summarize(t.spans)
    assert summary["solver.outer"] == [2, 70 + 10, (70 - 30 - 10) + 10]
    assert summary["laguerre.inner"] == [2, 40, (30 - 10) + 10]
    assert summary["quadrature.leaf"] == [1, 10, 10]
    assert tracer.summarize(t.spans, keep=lambda op: op == 2) == {"solver.outer": [1, 10, 10]}

    self_ns = tracer.module_self_ns(summary)
    assert self_ns["solver"] == 40 and self_ns["laguerre"] == 30 and self_ns["quadrature"] == 10
    # Self times partition the root spans' wall time.
    assert sum(self_ns.values()) == 70 + 10


def test_out_of_order_end_is_refused():
    t = tracer.Tracer(clock=_fake_clock())
    a = t.begin("solver.a")
    t.begin("solver.b")
    with pytest.raises(RuntimeError):
        t.end(a)


def test_wrappers_nest_across_module_namespaces_and_uninstall():
    original = lagsob.partial_sum
    sol = lagsob.solve(lagsob.builtin_problem("exp-decay"), 5)
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    try:
        assert lagsob.partial_sum is lagsob.solver.partial_sum is not original
        t.op = 7
        lagsob.partial_sum(sol, 5, np.linspace(0.0, 4.0, 9))
    finally:
        uninstall()
    assert lagsob.partial_sum is original and lagsob.solver.partial_sum is original
    names = [s[0] for s in t.spans]
    assert names == ["solver.partial_sum", "sobolev.sobolev_eval_all", "laguerre.laguerre_eval_all"]
    assert [s[3] for s in t.spans] == [-1, 0, 1]
    assert {s[4] for s in t.spans} == {7}
    assert t.counts["sobolev.eval_all.cells"] == 6 * 9
    assert t.counts["laguerre.eval_all.cells"] == 6 * 9


def test_paused_tracer_records_nothing():
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    try:
        t.paused(lagsob.laguerre_eval_all, lagsob.LaguerreFamily(1.0), 3, 0.5)
    finally:
        uninstall()
    assert t.spans == [] and not t.counts


@pytest.mark.parametrize("n_max, points", [(20, 7_264), (100, 45_664)])
def test_rhs_counter_matches_solver_and_baseline(n_max, points):
    """The rhs wrapper must see every point the solver reports (ROADMAP baseline counts)."""
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    try:
        sol = lagsob.solve(lagsob.builtin_problem("exp-decay"), n_max)
    finally:
        uninstall()
    assert sol.integrand_evals == points
    assert t.counts["solver.rhs.points"] == points == t.counts["solver.integrand_evals"]
    rhs_calls = sum(1 for s in t.spans if s[0] == "solver.rhs")
    assert rhs_calls == sum(1 for s in t.spans if s[0] == "laguerre.laguerre_eval_all")
    assert t.counts["quadrature.integrate.nodes"] == points
    assert t.counts["solver.moment_nodes_final"] == sum(r.m_used for r in sol.quad_report)


def test_layer_metrics_per_pass():
    summary = {"solver.solve": [4, 8_000_000, 2_000_000], "solver.rhs": [8, 1_000_000, 1_000_000]}
    counts = {"solver.rhs.points": 100, "laguerre.eval_all.cells": 5}
    m = tracer.layer_metrics(summary, counts, passes=2)
    assert m["solver.solve.calls"] == 2
    assert m["solver.solve.ms"] == pytest.approx(4.0)
    assert m["solver.solve.self_ms"] == pytest.approx(1.0)
    assert m["solver.self_ms"] == pytest.approx(1.0)  # the rhs callback is not solver code
    assert m["solver.rhs.points"] == 100
    assert m["laguerre.eval_all.bytes_computed"] == 40
    with pytest.raises(RuntimeError):
        tracer.layer_metrics({"solver.solve": [3, 1, 1]}, {}, passes=2)


def test_rule_build_time_is_not_an_exact_count():
    """Fresh processes rebuild their rules in varying time; the counts still agree."""
    passes = []
    for duration_ns in (1_000, 1_700):
        t = tracer.Tracer()
        t.rule_request(0.0, 32, duration_ns)
        t.rule_request(0.0, 32, duration_ns)  # cached: no second build
        passes.append(tracer.exact_counts(t.counts))
    assert passes[0] == passes[1] == {"quadrature.rule_builds": 1}
