"""One benchmark run: the closed loop, the traced passes, the probes and the record.

Imported by ``run.py`` after it has set the thread environment, so numpy and
lagsob are imported here at module level.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import scipy

import calibration
import lagsob
import tracer as T
import workloads as W
from benchenv import HERE, OUT, ROOT, SRC, THREAD_ENV, child_env

# Later performance claims confirm their result on this seed, which is never
# used while a change is being written or tuned.
HELD_OUT_SEED = 90_210

SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
CRASH_PROBE_N_MAX = 238
CHILD = HERE / "child.py"


def tail_latency(values, percentile: float):
    """Nearest-rank percentile of values, with the percentile used.

    Falls back to the largest sample with ten beyond it when the requested
    percentile would leave fewer than ten.
    """
    xs = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(xs)))
    if len(xs) - rank >= 10:
        return xs[rank - 1], percentile
    if len(xs) <= 10:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def provenance() -> dict:
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "lagsob").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": THREAD_ENV,
        "platform": platform.platform(),
    }


def crash_probe() -> dict:
    """solve(exp-decay, 238) once, outside every workload; outcome only."""
    t0 = time.perf_counter()
    out = {"n_max": CRASH_PROBE_N_MAX}
    try:
        with np.errstate(all="ignore"):
            sol = lagsob.solve(lagsob.builtin_problem("exp-decay"), CRASH_PROBE_N_MAX)
        out.update(raised=None, finite=bool(np.all(np.isfinite(sol.uhat))))
    except Exception as exc:  # the outcome is the record, whatever it is
        out.update(raised=type(exc).__name__, message=str(exc)[:300])
    out["seconds"] = time.perf_counter() - t0
    return out


class Runner:
    def __init__(self, args):
        self.args = args
        self.workdir = OUT / f"tmp-{os.getpid()}"
        self.wl = W.make(args.workload, args.seed, self.workdir)
        self.records = []
        self.checks = []  # failed benchmark-level checks

    # -- shared pieces -------------------------------------------------------

    def run_op(self, op, execute=None, check=None):
        rec, check_s = W.run_op(op, execute or self.wl.execute, check or self.wl.check)
        self.records.append(rec)
        return rec, check_s

    def validate_probe(self) -> dict:
        """lagsob validate at a lambda outside the workload's range; outcome only."""
        lam = W.VALIDATE_PROBE_LAM
        proc = subprocess.run([sys.executable, "-m", "lagsob", "validate", "--lambda", repr(lam)],
                              cwd=self.workdir, env=child_env(), capture_output=True, text=True,
                              timeout=W.SUBPROCESS_TIMEOUT_S)
        lines = (proc.stderr.strip() or proc.stdout.strip()).splitlines()
        return {"lambda": lam, "exit_code": proc.returncode, "last_line": lines[-1] if lines else ""}

    def setup_probes(self) -> tuple[list[float], list[float]]:
        """Set-up time of fresh processes, from spawn to the end of warm-up.

        Returns the raw samples and their speed factors, from the calibration
        kernel timed before and after each probe.  Set-up is mostly import and
        process start, so it always uses the composite kernel.
        """
        samples, factors = [], []
        kind = "composite"
        kernel = [calibration.kernel_ms(kind)]
        for _ in range(SETUP_SAMPLES):
            if self.args.workload == "cli":
                rec, _ = W.run_op(self.wl.spec(0), self.wl.execute, self.wl.check)
                if rec.failure:
                    self.checks.append(f"set-up invocation failed: {rec.failure}")
                sample = rec.latency_s
            else:
                t0 = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(CHILD), "setup", self.args.workload, str(self.args.seed)],
                    env=child_env(), capture_output=True, text=True, timeout=120,
                )
                if proc.returncode != 0:
                    self.checks.append(f"set-up probe exited {proc.returncode}: {proc.stderr[-300:]}")
                    continue
                sample = float(proc.stdout.split()[-1]) - t0
            kernel.append(calibration.kernel_ms(kind))
            samples.append(sample)
            factors.append(calibration.speed_factor(kind, statistics.fmean(kernel[-2:])))
        return samples, factors

    # -- end-to-end run --------------------------------------------------------

    def timed_phase(self) -> float:
        """Closed loop for --seconds of op time; checks and op generation excluded."""
        start = time.monotonic()
        excluded = 0.0
        i = 0
        while i < self.wl.pass_len or time.monotonic() - start - excluded < self.args.seconds:
            t0 = time.monotonic()
            op = self.wl.spec(i)
            before = calibration.kernel_ms(self.wl.kernel)
            excluded += time.monotonic() - t0
            rec, check_s = self.run_op(op)
            t1 = time.monotonic()
            rec.kernel_ms = (before + calibration.kernel_ms(self.wl.kernel)) / 2
            excluded += check_s + time.monotonic() - t1
            i += 1
        return time.monotonic() - start - excluded

    def end_to_end(self) -> tuple[dict, dict]:
        self.wl.setup()
        timed_s = self.timed_phase()
        peak = peak_rss_mb(children=self.args.workload == "cli")
        extra = {"crash_probe": crash_probe()}
        if self.args.workload == "cli":
            extra["validate_probe"] = self.validate_probe()
        setup, setup_factors = self.setup_probes()

        factors = calibration.speed_factors(self.wl.kernel, [r.kernel_ms for r in self.records])
        scaled = [r.latency_s * f for r, f in zip(self.records, factors)]
        raw = [r.latency_s for r in self.records]
        metrics, extra["op_tail"] = self.latency_metrics(scaled, [s * f for s, f in zip(setup, setup_factors)])
        extra["raw"], _ = self.latency_metrics(raw, setup)
        extra["raw"]["timed_s"] = timed_s
        metrics["peak_rss_mb"] = peak
        # Whole passes only, so the mix of sizes and families is exactly balanced.
        whole = len(self.records) - len(self.records) % self.wl.pass_len
        digits = [r.digits for r in self.records[:whole] if r.failure is None and r.digits is not None]
        if digits:
            metrics["accuracy_digits"] = statistics.fmean(digits)
        kinds = {}
        for r, lat in zip(self.records, scaled):
            if r.failure is None:
                kinds.setdefault(f"{r.kind}@{r.n_max}", []).append(lat * 1e3)
        extra["p50_ms_by_kind"] = {k: statistics.median(v) for k, v in sorted(kinds.items())}
        extra["setup_samples_s"] = setup
        extra["speed_factor_median"] = statistics.median(factors)
        extra["ops"] = {
            "columns": ["index", "kind", "n_max", "family", "latency_ms", "scaled_ms", "digits", "failure"],
            "rows": [[r.index, r.kind, r.n_max, r.family, r.latency_s * 1e3, lat * 1e3, r.digits, r.failure]
                     for r, lat in zip(self.records, scaled)],
        }
        return metrics, extra

    def latency_metrics(self, latencies_s, setup_s) -> tuple[dict, dict]:
        """Latency, throughput and set-up metrics from per-op latencies (s).

        Throughput divides the successful ops by the summed latency of all
        ops: the loop is closed with one client, so that sum is the timed
        wall time (op generation, checks and calibration are not timed).
        """
        ok = [(r, lat * 1e3) for r, lat in zip(self.records, latencies_s) if r.failure is None]
        lat = [ms for _, ms in ok]
        metrics, tail_info = {}, {}
        if lat:
            tail, pct = tail_latency(lat, self.wl.tail_percentile)
            metrics.update(op_p50_ms=statistics.median(lat), op_tail_ms=tail)
            beyond = sum(v > tail for v in lat)
            tail_info = {"percentile": pct, "samples_beyond": beyond, "samples": len(lat)}
        metrics["ops_per_s"] = len(ok) / sum(latencies_s)
        for n in W.NS:
            at_n = [ms for r, ms in ok if r.n_max == n]
            if at_n:
                metrics[f"op_p50_ms.n{n}"] = statistics.median(at_n)
        if setup_s:
            metrics["setup_s"] = statistics.median(setup_s)
        return metrics, tail_info

    # -- traced run --------------------------------------------------------------

    def traced(self) -> tuple[dict, dict]:
        tr = T.Tracer()
        cli = self.args.workload == "cli"
        uninstall = T.install(tr)
        tr.op = 0
        self.wl.setup()
        uninstall()
        setup_counts = dict(tr.counts)

        K = self.wl.pass_len
        ops = [self.wl.spec(i) for i in range(K)]
        untraced_s, traced_s, pass_counts = [], [], []
        child_spans, child_summaries, run_counts = [], [], Counter()
        csv_bytes, overhead_ns = 0, 0
        start = time.monotonic()
        while not traced_s or time.monotonic() - start + untraced_s[-1] + traced_s[-1] <= self.args.seconds:
            untraced_s.append(sum(self.run_op(op)[0].latency_s for op in ops))

            p = len(traced_s)
            before = Counter(tr.counts)
            counts = Counter()
            total = 0.0
            uninstall = None if cli else T.install(tr)
            try:
                for op in ops:
                    op_id = p * K + op.index + 1
                    if cli:
                        spans_path = self.workdir / f"spans-{op_id}.json"
                        command = ([sys.executable, str(CHILD), "cli-trace", str(spans_path), str(op_id)]
                                   + op.args["argv"] + ["--out-dir", str(self.wl.op_dir(op))])
                        rec, _ = self.run_op(op, execute=lambda o, c=command: self.wl.execute(o, c))
                        if spans_path.is_file():
                            child = json.loads(spans_path.read_text())
                            spans_path.unlink()
                            child_spans.append(child["spans"])
                            summary = T.summarize(child["spans"])
                            child_summaries.append(summary)
                            counts.update(child["counts"])
                            main_ns = summary.get("cli.main", [0, 0, 0])[1]
                            overhead_ns += int(rec.latency_s * 1e9) - main_ns
                        csv_bytes += op.args.get("csv_bytes", 0)
                    else:
                        tr.op = op_id
                        rec, _ = self.run_op(op, check=lambda o, out: tr.paused(self.wl.check, o, out))
                    total += rec.latency_s
            finally:
                if uninstall:
                    uninstall()
            if not cli:
                counts = Counter({k: v - before.get(k, 0) for k, v in tr.counts.items()})
            traced_s.append(total)
            pass_counts.append(T.exact_counts(counts))
            run_counts.update(counts)

        passes = len(traced_s)
        if any(c != pass_counts[0] for c in pass_counts):
            self.checks.append("per-layer counts differ between identical traced passes")
        run_counts.update(setup_counts)
        if run_counts["solver.rhs.points"] != run_counts["solver.integrand_evals"]:
            self.checks.append(
                f"rhs wrapper saw {run_counts['solver.rhs.points']} points, solve reported "
                f"{run_counts['solver.integrand_evals']} integrand evaluations")

        summary = T.merge(child_summaries) if cli else T.summarize(tr.spans, keep=lambda op: op >= 1)
        counts = dict(pass_counts[0])
        for key in T.TIME_COUNTERS:  # mean over the passes, like span times
            counts[key] = (run_counts[key] - setup_counts.get(key, 0)) / passes
        for key in ("quadrature.rule_builds", "quadrature.rule_build_ns"):
            counts[key] = counts.get(key, 0) + setup_counts.get(key, 0)
        metrics = T.layer_metrics(summary, counts, passes)
        metrics["cli.csv_bytes"] = csv_bytes // passes
        metrics["cli.process_overhead_ms"] = overhead_ns / passes / 1e6
        metrics["trace.overhead_frac"] = sum(traced_s) / sum(untraced_s) - 1.0
        metrics.update(self.import_times())

        self.write_spans(child_spans if cli else [tr.spans])
        extra = {
            "passes": passes, "pass_ops": K,
            "untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
            "setup_counts": setup_counts,
            "setup_layers": {k: v for k, v in T.summarize(tr.spans, keep=lambda op: op == 0).items()},
            "crash_probe": crash_probe(),
        }
        return metrics, extra

    def import_times(self) -> dict:
        """import lagsob and the scipy share of it, from python -X importtime."""
        lagsob_us, scipy_us = [], []
        for _ in range(IMPORT_SAMPLES):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lagsob"],
                                  env=child_env(), capture_output=True, text=True, timeout=60)
            total_scipy = 0
            for line in proc.stderr.splitlines():
                if not line.startswith("import time:") or "|" not in line:
                    continue
                fields = [f.strip() for f in line[len("import time:"):].split("|")]
                if not fields[0].isdigit():
                    continue  # the header line
                self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2]
                if name == "lagsob":
                    lagsob_us.append(cumulative_us)
                if name == "scipy" or name.startswith("scipy."):
                    total_scipy += self_us
            scipy_us.append(total_scipy)
        if len(lagsob_us) != IMPORT_SAMPLES:
            self.checks.append("python -X importtime did not report lagsob")
            return {"import.lagsob_ms": 0.0, "import.scipy_ms": 0.0}
        return {"import.lagsob_ms": statistics.median(lagsob_us) / 1e3,
                "import.scipy_ms": statistics.median(scipy_us) / 1e3}

    def write_spans(self, processes) -> None:
        """All spans of the traced run, one list per process (parents index into it)."""
        path = OUT / f"spans-{self.args.workload}-seed{self.args.seed}.json"
        path.write_text(json.dumps({"columns": ["name", "start_ns", "end_ns", "parent", "op"],
                                    "processes": processes}))



def run(args) -> int:
    """Run one workload, write the record, print the metrics; the exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(parents=True, exist_ok=True)
    runner = Runner(args)
    runner.workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, extra = runner.traced() if args.trace else runner.end_to_end()
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        runner.checks.append(f"metrics not measured: {missing}")
    counts = W.tally(runner.records)
    attempted, failed = counts["attempted"], counts["failed"]
    correct = failed == 0 and not runner.checks
    out_metrics = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "held_out_seed": HELD_OUT_SEED,
        "provenance": provenance(),
        **counts,
        "failed_ops": [vars(r) for r in runner.records if r.failure][:20],
        "checks_failed": runner.checks,
        "metrics": out_metrics,
        **extra,
    }
    path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for name, m in out_metrics.items():
        print(f"{name:<36} {m['value']:>16.6g} {m['unit']}")
    print(f"fail_frac {record['fail_frac']:.6g} ({failed}/{attempted}); record: {path.relative_to(ROOT)}")
    for message in runner.checks:
        print(f"CHECK FAILED: {message}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0 if correct else 1
