"""In-memory span tracer around the public functions of ``lagsob``.

``install`` wraps every public function (``__all__``) of the eight library
modules, in every ``lagsob`` module namespace that holds it, so calls between
modules are traced as well as calls from the benchmark.  Each call records a
span ``[name, start_ns, end_ns, parent, op]``; the spans stay in memory until
the run ends.  A few wrappers also count work at the same boundary (table
cells, quadrature nodes, rhs points, rule builds).

Nothing here touches ``src/``: the wrappers live in the benchmark and are
removed again by the function ``install`` returns.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("laguerre", "quadrature", "sobolev", "solver", "expressions", "validation", "specfun", "cli")

# Per-point scalar evaluation: a span per point would cost more than the call
# itself.  Its time is covered by the ``expressions.eval`` spans around the
# vectorised callables that ``to_callable`` returns.
_UNTRACED = {"evaluate"}

# Spans named here are user callbacks, not library code: they are excluded
# from the module self-time sums.
_CALLBACKS = {"solver.rhs"}

# Counters that accumulate time, not work: they vary from pass to pass, so
# they are averaged like span times instead of compared exactly.
TIME_COUNTERS = frozenset({"quadrature.rule_build_ns"})


class Tracer:
    """Span stack plus counters; ``op`` tags every span opened while it is set."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.enabled = True
        self._stack: list[int] = []
        self._rules_seen: set = set()

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> int:
        span = self.spans[idx]
        span[2] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span[0]!r} closed out of order")
        return span[2] - span[1]

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def paused(self, fn, *args, **kwargs):
        """Call fn with recording off (e.g. a benchmark's own output check)."""
        self.enabled = False
        try:
            return fn(*args, **kwargs)
        finally:
            self.enabled = True

    # -- counting hooks ------------------------------------------------------

    def rule_request(self, alpha, m, duration_ns: int) -> None:
        """First request of each (alpha, m) in this process builds the rule."""
        key = (float(alpha), int(m))
        if key not in self._rules_seen:
            self._rules_seen.add(key)
            self.counts["quadrature.rule_builds"] += 1
            self.counts["quadrature.rule_build_ns"] += duration_ns

    def counted_rhs(self, rhs):
        def traced_rhs(x):
            if not self.enabled:
                return rhs(x)
            self.counts["solver.rhs.points"] += int(np.size(x))
            return self.call("solver.rhs", rhs, x)

        return traced_rhs

    def counted_expression(self, f):
        def traced_eval(x):
            if not self.enabled:
                return f(x)
            self.counts["expressions.eval.points"] += int(np.size(x))
            return self.call("expressions.eval", f, x)

        return traced_eval


def _make_wrapper(tracer: Tracer, layer: str, fn):
    name = f"{layer}.{fn.__name__}"
    signature = inspect.signature(fn)

    def _bound(fn, args, kwargs) -> dict:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    if name == "solver.solve":

        @functools.wraps(fn)
        def traced_solve(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            a = _bound(fn, args, kwargs)
            a["problem"] = dataclasses.replace(a["problem"], rhs=tracer.counted_rhs(a["problem"].rhs))
            sol = tracer.call(name, fn, **a)
            tracer.counts["solver.integrand_evals"] += sol.integrand_evals
            tracer.counts["solver.moments_unconverged"] += sum(not r.converged for r in sol.quad_report)
            tracer.counts["solver.moment_nodes_final"] += sum(r.m_used for r in sol.quad_report)
            return sol

        return traced_solve

    if name == "expressions.to_callable":

        @functools.wraps(fn)
        def traced_to_callable(*args, **kwargs):
            return tracer.counted_expression(tracer.call(name, fn, *args, **kwargs))

        return traced_to_callable

    def count(a: dict, duration_ns: int) -> None:
        if name == "quadrature.gauss_laguerre":
            tracer.rule_request(a["alpha"], a["m"], duration_ns)
        elif name in ("quadrature.integrate", "quadrature.integrate_plain"):
            tracer.counts[f"{name}.nodes"] += a["rule"].size
        elif name == "laguerre.laguerre_eval_all":
            tracer.counts["laguerre.eval_all.cells"] += (a["n_max"] + 1) * int(np.size(a["x"]))
        elif name == "sobolev.sobolev_eval_all":
            tracer.counts["sobolev.eval_all.cells"] += (a["n"] + 1) * int(np.size(a["x"]))
        elif name == "sobolev.connection_recurrence":
            tracer.counts["sobolev.recurrence_steps"] += a["n_max"] - 1
        elif name == "sobolev.sobolev_basis":
            tracer.counts["sobolev.recurrence_steps"] += a["n_max"]

    hooked = name in (
        "quadrature.gauss_laguerre", "quadrature.integrate", "quadrature.integrate_plain",
        "laguerre.laguerre_eval_all", "sobolev.sobolev_eval_all",
        "sobolev.connection_recurrence", "sobolev.sobolev_basis",
    )

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tracer.end(idx)
        if hooked:
            count(_bound(fn, args, kwargs), duration)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap the public lagsob functions everywhere they are bound; return the undo."""
    importlib.import_module("lagsob")
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"lagsob.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and attr not in _UNTRACED:
                wrappers[id(fn)] = (fn, _make_wrapper(tracer, layer, fn))
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "lagsob" and not modname.startswith("lagsob."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))

    def uninstall() -> None:
        for module, attr, value in patched:
            setattr(module, attr, value)

    return uninstall


def exact_counts(counts) -> dict:
    """The non-zero work counters of counts, which repeat exactly between passes."""
    return {k: v for k, v in counts.items() if v and k not in TIME_COUNTERS}


def summarize(spans, keep=lambda op: True) -> dict:
    """Per span name: [calls, inclusive ns, self ns], over spans whose op passes keep.

    Self time is the span's duration minus the part its direct children cover.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _parent, op) in enumerate(spans):
        if not keep(op):
            continue
        row = out.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_ns[i]
    return out


def merge(summaries) -> dict:
    out: dict = {}
    for summary in summaries:
        for name, row in summary.items():
            acc = out.setdefault(name, [0, 0, 0])
            for j in range(3):
                acc[j] += row[j]
    return out


def module_self_ns(summary: dict) -> dict:
    out = {layer: 0 for layer in LAYERS}
    for name, (_calls, _incl, self_ns) in summary.items():
        layer = name.split(".", 1)[0]
        if layer in out and name not in _CALLBACKS:
            out[layer] += self_ns
    return out


def layer_metrics(summary: dict, counts: dict, passes: int) -> dict:
    """Per-layer metric values for one pass of a workload's op list.

    ``summary`` covers ``passes`` identical passes, of which times are the
    mean; ``counts`` are already per pass.
    """

    def row(name):
        return summary.get(name, [0, 0, 0])

    def calls(name):
        return _per_pass(row(name)[0], passes, name)

    def ms(ns):
        return ns / passes / 1e6

    out = {
        "quadrature.gauss_laguerre.calls": calls("quadrature.gauss_laguerre"),
        "quadrature.gauss_laguerre.ms": ms(row("quadrature.gauss_laguerre")[1]),
        "quadrature.integrate.calls": calls("quadrature.integrate"),
        "quadrature.integrate.ms": ms(row("quadrature.integrate")[1]),
        "quadrature.integrate_plain.calls": calls("quadrature.integrate_plain"),
        "quadrature.integrate_plain.ms": ms(row("quadrature.integrate_plain")[1]),
        "laguerre.eval_all.calls": calls("laguerre.laguerre_eval_all"),
        "laguerre.eval_all.ms": ms(row("laguerre.laguerre_eval_all")[1]),
        "sobolev.basis.calls": calls("sobolev.sobolev_basis"),
        "sobolev.basis.ms": ms(row("sobolev.sobolev_basis")[1]),
        "sobolev.eval_all.calls": calls("sobolev.sobolev_eval_all"),
        "sobolev.eval_all.ms": ms(row("sobolev.sobolev_eval_all")[1]),
        "sobolev.connection_ratio.calls": calls("sobolev.connection_ratio"),
        "sobolev.connection_ratio.ms": ms(row("sobolev.connection_ratio")[1]),
        "solver.solve.calls": calls("solver.solve"),
        "solver.solve.ms": ms(row("solver.solve")[1]),
        "solver.solve.self_ms": ms(row("solver.solve")[2]),
        "solver.rhs.calls": calls("solver.rhs"),
        "solver.rhs.ms": ms(row("solver.rhs")[1]),
        "solver.partial_sum.calls": calls("solver.partial_sum"),
        "solver.partial_sum.ms": ms(row("solver.partial_sum")[1]),
        "solver.partial_sum_deriv.calls": calls("solver.partial_sum_deriv"),
        "solver.partial_sum_deriv.ms": ms(row("solver.partial_sum_deriv")[1]),
        "solver.sobolev_error.ms": ms(row("solver.sobolev_error")[1]),
        "solver.sobolev_error_direct.calls": calls("solver.sobolev_error_direct"),
        "solver.sobolev_error_direct.ms": ms(row("solver.sobolev_error_direct")[1]),
        "expressions.parse.ms": ms(row("expressions.parse_expression")[1]),
        "expressions.eval.ms": ms(row("expressions.eval")[1]),
        "validation.run_suites.calls": calls("validation.run_suites"),
        "validation.run_suites.ms": ms(row("validation.run_suites")[1]),
        "specfun.bessel_j.calls": calls("specfun.bessel_j"),
        "specfun.bessel_j.ms": ms(row("specfun.bessel_j")[1]),
        "cli.main.ms": ms(row("cli.main")[1]),
        "cli.run_solve.ms": ms(row("cli.run_solve")[1]),
        "cli.run_coeffs.ms": ms(row("cli.run_coeffs")[1]),
        "cli.run_validate.ms": ms(row("cli.run_validate")[1]),
    }
    for layer, self_ns in module_self_ns(summary).items():
        out[f"{layer}.self_ms"] = ms(self_ns)
    for name in (
        "quadrature.rule_builds", "quadrature.integrate.nodes", "quadrature.integrate_plain.nodes",
        "laguerre.eval_all.cells", "sobolev.recurrence_steps", "sobolev.eval_all.cells",
        "solver.rhs.points", "solver.moments_unconverged", "solver.moment_nodes_final",
        "expressions.eval.points",
    ):
        out[name] = counts.get(name, 0)
    out["quadrature.rule_build_ms"] = counts.get("quadrature.rule_build_ns", 0) / 1e6
    out["laguerre.eval_all.bytes_computed"] = 8 * out["laguerre.eval_all.cells"]
    points = out["expressions.eval.points"]
    out["expressions.us_per_point"] = 1e3 * out["expressions.eval.ms"] / points if points else 0.0
    return out


def _per_pass(total: int, passes: int, name: str) -> int:
    if total % passes:
        raise RuntimeError(f"{name}: {total} does not split evenly over {passes} passes")
    return total // passes
