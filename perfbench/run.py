#!/usr/bin/env python3
"""Benchmark of the filcol pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload regime-map --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` there and nowhere else.  One closed-loop client in one process
calls the workload's entry point back to back (oracle-grid adds its own
pool of ``min(2, nproc)`` workers per call).  See README.md in this
directory for the workloads, the metrics and which metric each layer
should move.

``--trace 0`` measures for ``--seconds`` seconds with no tracing and
reports the end-to-end metrics, every time scaled to the reference speed
that ``reference.py`` defines.  ``--trace 1`` runs a fixed number of ops
(proportional to ``--seconds``) untraced and then traced, and reports the
per-layer metrics and the tracing overhead, unscaled; with a fixed seed its
counts repeat exactly.  The last line of standard output is a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric with its unit and the run's context.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import types
from array import array
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("regime-map", "oracle-grid", "trajectory")
SETUP_REPEATS = 11
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10
GAUGE_EVERY_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "share",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "dynamics.field_evals_per_op": "count",
    "dynamics.field_eval_us": "us",
    "dynamics.energy_evals_per_op": "count",
    "dynamics.reduce_state_us": "us",
    "integrate.calls": "count",
    "integrate.accepted_steps_per_op": "count",
    "integrate.attempted_steps_per_op": "count",
    "integrate.accept_ratio": "ratio",
    "integrate.self_us_per_attempt": "us",
    "integrate.outcome.reached-t-end": "count",
    "integrate.outcome.event-terminated": "count",
    "integrate.outcome.step-collapsed": "count",
    "analysis.gamma_star_calls_per_op": "count",
    "analysis.gamma_star_us": "us",
    "analysis.classify_us": "us",
    "analysis.theta_star_calls_per_op": "count",
    "analysis.theta_star_us": "us",
    "analysis.collision_time_us": "us",
    "analysis.certificate_us": "us",
    "verify.node_busy_ms": "ms",
    "verify.pool_efficiency": "ratio",
    "verify.pool_overhead_ms": "ms",
    "verify.oracle.collided": "count",
    "verify.oracle.survived": "count",
    "verify.oracle.inconclusive": "count",
    "verify.oracle.disagree": "count",
    "cli.self_ms": "ms",
    "cli.artifact_bytes_per_op": "bytes",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_ops_per_s": "1/s",
}


class BenchError(Exception):
    """The benchmark cannot run here: no package, or a set-up probe failed."""


def load_filcol() -> types.SimpleNamespace:
    """Import filcol from this checkout's src/ and return its modules."""
    os.environ.pop("FILCOL_THREADS", None)
    sys.path.insert(0, str(SRC))
    try:
        filcol = importlib.import_module("filcol")
    except ImportError as exc:
        raise BenchError(f"cannot import filcol from {SRC}: {exc}") from exc
    origin = Path(filcol.__file__).resolve()
    if SRC not in origin.parents:
        raise BenchError(f"filcol was imported from {origin}, not from {SRC}")
    # import_module returns the module even where the package re-exports a
    # function under the module's name (filcol.integrate).
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"filcol.{name}")
        for name in ("dynamics", "analysis", "integrate", "verify", "cli")
    })


def pool_workers() -> int:
    return min(2, os.cpu_count() or 1)


def make_workload(fc, name: str, seed, tmpdir: str):
    if name == "regime-map":
        return workloads.RegimeMap(fc, seed)
    if name == "oracle-grid":
        return workloads.OracleGrid(fc, seed, pool_workers())
    return workloads.TrajectoryRuns(fc, seed, tmpdir)


def gauge_for(name: str):
    """The reference gauge for the CPUs the workload's ops run on.

    oracle-grid spreads its ops over a process pool, so it gauges every CPU.
    """
    return reference.gauge_cpus if name == "oracle-grid" else reference.gauge


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Pass:
    """Latencies, failures and CPU time of a sequence of ops."""

    def __init__(self) -> None:
        self.latencies = array("d")
        self.failures: list[str] = []
        self.outputs: list = []
        self.taken = 0

    @property
    def ops(self) -> int:
        return self.taken + len(self.latencies)

    def take(self) -> array:
        """Hand over the latencies recorded since the last take."""
        lat, self.latencies = self.latencies, array("d")
        self.taken += len(lat)
        return lat

    @property
    def busy_s(self) -> float:
        return math.fsum(self.latencies)

    def ops_per_s(self) -> float:
        return self.ops / self.busy_s

    def run(self, wl, inputs: list, op, keep: bool = False) -> float:
        """Time op on every input, then check the outputs outside the timing.

        Returns the CPU seconds the ops took.
        """
        clock = time.perf_counter
        outputs = []
        cpu0 = cpu_seconds()
        for inp in inputs:
            t0 = clock()
            try:
                out = op(inp)
            except Exception as exc:  # a failed op is counted, not fatal
                out = exc
            self.latencies.append(clock() - t0)
            outputs.append(out)
        cpu = cpu_seconds() - cpu0
        for inp, out in zip(inputs, outputs):
            reason = wl.check(inp, out)
            if reason:
                self.failures.append(reason)
        if keep:
            self.outputs.extend(outputs)
        return cpu


def warm_up(fc, name: str, seed, tmpdir: str) -> None:
    """Run a few ops on a separate stream so first-call costs are paid."""
    wl = make_workload(fc, name, f"{seed}/warm-up", tmpdir)
    Pass().run(wl, wl.inputs(wl.warm_up_ops), wl.op)


def setup_probe(name: str, seed) -> float:
    """One set-up in a fresh interpreter: import, generate inputs, warm up.

    Scaled to the reference speed by the gauges taken before and after.
    """
    gauge = gauge_for(name)
    g0 = gauge()
    t0 = time.perf_counter()
    fc = load_filcol()
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        make_workload(fc, name, seed, tmpdir).inputs(1)
        warm_up(fc, name, seed, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    elapsed = time.perf_counter() - t0
    return elapsed * reference.REFERENCE_S / (0.5 * (g0 + gauge()))


def measure_setup(name: str, seed) -> list[float]:
    """Set up SETUP_REPEATS times, each in its own interpreter."""
    times = []
    env = {k: v for k, v in os.environ.items() if k != "FILCOL_THREADS"}
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed), "--seconds", "1"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def nearest_rank(sorted_vals, pct: float) -> tuple[float, int]:
    """Value at a percentile (nearest rank) and the samples beyond it."""
    idx = max(0, math.ceil(pct / 100.0 * len(sorted_vals)) - 1)
    return sorted_vals[idx], len(sorted_vals) - 1 - idx


def tail(sorted_vals, start_pct: float) -> tuple[float, float, int]:
    """Highest ladder percentile at or below start_pct with 10 samples beyond."""
    for pct in TAIL_LADDER:
        if pct > start_pct:
            continue
        value, beyond = nearest_rank(sorted_vals, pct)
        if beyond >= MIN_BEYOND_TAIL:
            return pct, value, beyond
    return 100.0, sorted_vals[-1], 0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run_end_to_end(wl, gauge, seconds: float, setup_times: list[float]) -> tuple[dict, Pass, dict]:
    """Cycle through wl.cycle inputs for the given seconds; time each op.

    A shared host runs each vCPU up to 1.8x slower for seconds or minutes
    while a neighbour is busy.  So ``gauge`` times the reference kernel
    every GAUGE_EVERY_S, and each batch's latencies and CPU time are scaled
    to the reference speed by the mean of the two gauges around it.  Every
    input runs once per pass, jittered from the second pass on so that
    nothing can be reused; an input's latency is the median of its scaled
    latencies over the passes, and likewise a batch's CPU time.
    """
    clock = time.perf_counter
    base = wl.inputs(wl.cycle)
    n = len(base)
    n_batches = math.ceil(n / wl.batch)
    # Single precision keeps the run's memory, which grows with the number
    # of passes and so with the host's speed, small next to the package's.
    lat_by_pass: list[array] = []  # each input's latency; nan where not run
    cpu_by_pass: list[array] = []  # each batch's CPU seconds
    scale_by_pass: list[array] = []  # each batch's factor to the reference speed
    gauges = array("d", [gauge()])
    pending: list[tuple[int, int]] = []  # batches waiting for their closing gauge
    contended = 0  # gauges taken while the package left threads or processes running
    last_gauge = start = clock()

    def settle() -> None:
        nonlocal last_gauge, contended
        contended += threading.active_count() > 1 or bool(multiprocessing.active_children())
        g = gauge()
        scale = reference.REFERENCE_S / (0.5 * (gauges[-1] + g))
        for r, b in pending:
            scale_by_pass[r][b] = scale
        pending.clear()
        gauges.append(g)
        last_gauge = clock()

    p = Pass()
    while clock() - start < seconds:
        r = len(lat_by_pass)
        lat_by_pass.append(array("f", [math.nan]) * n)
        cpu_by_pass.append(array("d", [math.nan]) * n_batches)
        scale_by_pass.append(array("d", [math.nan]) * n_batches)
        for b in range(n_batches):
            if r and clock() - start >= seconds:
                break
            lo = b * wl.batch
            chunk = base[lo:lo + wl.batch]
            cpu_by_pass[r][b] = p.run(wl, [wl.jitter(inp, r) for inp in chunk] if r else chunk, wl.op)
            lat_by_pass[r][lo:lo + len(chunk)] = array("f", p.take())
            pending.append((r, b))
            if clock() - last_gauge >= GAUGE_EVERY_S:
                settle()
    settle()
    loop_wall = clock() - start
    peak_rss = peak_rss_mb()

    def medians(by_pass, scales, of_batch):
        """Per item, the median over passes of its (scaled) value."""
        out = []
        for i in range(len(by_pass[0])):
            b = of_batch(i)
            vals = [v[i] * (s[b] if scales else 1.0)
                    for v, s in zip(by_pass, scale_by_pass) if not math.isnan(v[i])]
            out.append(statistics.median(vals))
        return out

    def summary(scaled: bool):
        lat = sorted(medians(lat_by_pass, scaled, lambda i: i // wl.batch))
        cpu = medians(cpu_by_pass, scaled, lambda b: b)
        pct, tail_s, beyond = tail(lat, wl.tail_percentile)
        return {
            "ops_per_s": n / math.fsum(lat),
            "op_p50_ms": 1e3 * nearest_rank(lat, 50.0)[0],
            "op_tail_ms": 1e3 * tail_s,
            "cpu_ms_per_op": 1e3 * math.fsum(cpu) / n,
        }, pct, beyond

    scaled, pct, beyond = summary(True)
    metrics = {
        "setup_s": statistics.median(setup_times),
        **scaled,
        "ok_frac": (p.ops - len(p.failures)) / p.ops,
        "peak_rss_mb": peak_rss,
    }
    extra = {
        "setup_s_samples": setup_times,
        "distinct_inputs": n,
        "passes": len(lat_by_pass),
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "failed_frac": len(p.failures) / p.ops,
        "loop_wall_s": loop_wall,
        "gauge_ms": {"count": len(gauges), "min": 1e3 * min(gauges),
                     "median": 1e3 * statistics.median(gauges), "max": 1e3 * max(gauges),
                     "contended": contended},
        "unscaled": summary(False)[0],
    }
    return {k: metrics[k] for k in END_TO_END_UNITS}, p, extra


def trace_ops(wl, seconds: float) -> int:
    """Ops per traced pass: fixed for a given --seconds, so counts repeat."""
    quantum = wl.trace_quantum
    return quantum * max(1, round(wl.trace_ops_per_second * seconds / quantum))


def run_traced(fc, name: str, seed, seconds: float, tmpdir: str) -> tuple[dict, list[Pass], dict]:
    probe = make_workload(fc, name, seed, tmpdir)
    k = trace_ops(probe, seconds)
    serial = name == "oracle-grid"

    def fresh_pass(traced_with=None, workers=None, keep=False):
        wl = make_workload(fc, name, seed, tmpdir)
        op = wl.op if workers is None else (lambda inp: wl.op(inp, workers=workers))
        inputs = wl.inputs(k)
        p = Pass()
        with tracing.installed(traced_with, fc) if traced_with else contextlib.nullcontext():
            for lo in range(0, k, wl.batch):
                p.run(wl, inputs[lo:lo + wl.batch], op, keep=keep)
        return wl, p

    passes = []
    _, untraced = fresh_pass(keep=serial)
    passes.append(untraced)
    metrics = dict.fromkeys(LAYER_UNITS, 0.0)
    if serial:
        _, base = fresh_pass(workers=1, keep=True)
        passes.append(base)
        if base.outputs != untraced.outputs:
            base.failures.append("serial and parallel grids returned different rows")
        nodes = k * probe.n * probe.n
        workers = pool_workers()
        metrics["verify.node_busy_ms"] = 1e3 * base.busy_s / nodes
        metrics["verify.pool_efficiency"] = base.busy_s / (untraced.busy_s * workers)
        metrics["verify.pool_overhead_ms"] = 1e3 * (untraced.busy_s - base.busy_s / workers) / k
    else:
        base = untraced
    tracer = tracing.Tracer()
    wl, traced = fresh_pass(traced_with=tracer, workers=1 if serial else None)
    passes.append(traced)
    metrics.update(tracer.layer_metrics(k))
    if serial:
        counts = wl.oracle_counts()
        for status in ("collided", "survived", "inconclusive", "disagree"):
            metrics[f"verify.oracle.{status}"] = counts.get(status, 0)
    if name == "trajectory":
        metrics["cli.artifact_bytes_per_op"] = wl.artifact_bytes / k
    metrics["trace.untraced_ops_per_s"] = base.ops_per_s()
    metrics["trace.traced_ops_per_s"] = traced.ops_per_s()
    metrics["trace.overhead_ops_per_s"] = traced.ops_per_s() - base.ops_per_s()
    extra = {"ops_per_pass": k, "passes": len(passes), "shares": wl.shares(),
             "overhead_baseline": "serial untraced" if serial else "untraced"}
    return metrics, passes, extra


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """SHA-256 over the package sources, to identify code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "filcol").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            print(repr(setup_probe(args.workload, args.seed)))
            return 0
        fc = load_filcol()
        tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            if args.trace:
                metrics, passes, extra = run_traced(fc, args.workload, args.seed, args.seconds, tmpdir)
                units = LAYER_UNITS
                shares = extra.pop("shares")
            else:
                setup_times = measure_setup(args.workload, args.seed)
                wl = make_workload(fc, args.workload, args.seed, tmpdir)
                warm_up(fc, args.workload, args.seed, tmpdir)
                metrics, p, extra = run_end_to_end(wl, gauge_for(args.workload), args.seconds, setup_times)
                passes, units, shares = [p], END_TO_END_UNITS, wl.shares()
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = sum(p.ops for p in passes)
    failures = [f for p in passes for f in p.failures]
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_sha256": src_digest(),
        "nproc": os.cpu_count(), "pool_workers": pool_workers(),
        "python": platform.python_version(), "shares": shares, **extra,
    }
    print(f"filcol benchmark: {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {units[name]}")
    print(f"  ops {attempted}, failed {len(failures)}")
    for reason in failures[:10]:
        print(f"  failed: {reason}")
    print("context " + json.dumps(context, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
