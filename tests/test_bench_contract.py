"""The benchmark's contract with the package, at a few ops per workload.

``perfbench/`` drives the package through the names its tracer patches
(``verify.integrate``, ``cli.simulate_until_collision``, ...) and checks
each op's output with its workload's ``check``.  Its own smoke test is
outside this suite and takes tens of seconds; this one runs a few ops of
each workload, traced, and two oracle-grid ops on the benchmark's worker
set, untraced, so that a change that drops or renames one of those names,
or breaks an output check, fails here.  The benchmark's modules are loaded
read-only from their files.
"""

from __future__ import annotations

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
workloads = load("workloads")


@pytest.fixture
def fc():
    # The package's modules as the benchmark sees them: import_module
    # returns the module where the package re-exports a function under the
    # module's name (filcol.integrate).
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"filcol.{name}")
        for name in ("dynamics", "analysis", "integrate", "verify", "cli")
    })


def run_traced(fc, wl, n: int) -> tracing.Tracer:
    """n ops of wl under the tracer; every output passes wl.check."""
    with tracing.installed(tracing.Tracer(), fc) as tracer:
        for inp in wl.inputs(n):
            try:
                out = wl.op(inp)
            except Exception as exc:  # counted as a failed op by the benchmark
                out = exc
            assert wl.check(inp, out) is None, inp
    return tracer


def test_regime_map(fc):
    tracer = run_traced(fc, workloads.RegimeMap(fc, 1), 8)
    assert tracer.calls("dynamics.reduce_state") == 8
    assert tracer.calls("integrate.integrate") == 0


def test_oracle_grid(fc):
    # A grid's nodes share the oracle's runs: at most one per moving group
    # (three), and a node the run never reaches runs alone.
    wl = workloads.OracleGrid(fc, 1, workers=1)
    tracer = run_traced(fc, wl, 4)
    nodes = 4 * wl.n * wl.n
    assert tracer.calls("integrate.simulate_until_collision") == 0
    assert 4 <= tracer.calls("integrate.integrate") <= 3 * 4
    assert tracer.calls("analysis.classify") >= nodes
    metrics = tracer.layer_metrics(4)
    assert metrics["integrate.attempted_steps_per_op"] > 0.0
    assert metrics["integrate.outcome.event-terminated"] > 0


def test_pooled_oracle_grid(fc):
    # The benchmark times oracle-grid ops on a 2-worker set, untraced.
    wl = workloads.OracleGrid(fc, 1, workers=2)
    for inp in wl.inputs(2):
        rows = wl.op(inp)
        assert wl.check(inp, rows) is None, inp
        assert rows == wl.op(inp, workers=1)


def test_trajectory(fc, tmp_path):
    tracer = run_traced(fc, workloads.TrajectoryRuns(fc, 1, str(tmp_path)), 20)
    assert tracer.calls("cli.main") == 20
    # Three colliding auto runs in every 20 ops; the rest integrate directly.
    assert tracer.calls("integrate.simulate_until_collision") == 3
    assert tracer.calls("integrate.integrate") == 20
    assert tracer.calls(tracing.FIELD) > 0 and tracer.calls(tracing.ENERGY) > 0


# States of every oracle ending: a collision, a witness at the start, a rise
# at the start and after steps, a pass-through above gamma_star to the
# witness, a horizon, and a start the flow cannot carry (the (theta, W)
# chart's run).  A start rule decides the two in START_DECIDED with no run.
ORACLE_CASES = [
    (0.5, 1.0, 0.0, 1.0),
    (0.2, 1.1, 0.3, 0.8),
    (0.2, 2.0, 0.0, -1.0),
    (0.2, 1.1, 3.5, 0.01),
    (0.2, 1.1, 0.5, -0.13),
    (0.2, 1.2199, -2.0, 2.0),
    (0.2, 2.0, 6.0, 1.0),
    (0.5, 1.0, 400.0, 1.0),
]
START_DECIDED = [(0.2, 2.0, 0.0, -1.0), (0.2, 1.1, 3.5, 0.01)]


@pytest.mark.parametrize("alpha, gamma, theta0, w0", ORACLE_CASES)
def test_each_oracle_run_makes_one_plus_six_field_calls_per_attempt(
        fc, monkeypatch, alpha, gamma, theta0, w0):
    # perfbench/tracing.py counts attempts as (field calls - 1)/6 per
    # integrate call, through the dynamics field factories.  So every call of
    # the field made during an oracle run must be one of integrate's own: one
    # at the start and six per attempt in each call, none from a stop rule.
    # A run to the horizon makes two calls: the flow's, and the chart's to t_end.
    # A start the flow's field rejects costs that one call, and no attempt,
    # before the chart's run, and the oracle's stats count it.  A state that
    # a start rule decides makes no integrate call and no field call.
    calls = []
    in_stop = [False]
    runs = []
    real_field, real_integrate = fc.dynamics.reduced_field, fc.integrate.integrate

    def counting_field(p):
        field = real_field(p)

        def counted(*y):
            calls.append(in_stop[0])
            return field(*y)

        return counted

    def watched(y0, p, t_end, cfg, stop=None):
        def stop_spy(y):
            in_stop[0] = True
            try:
                return stop(y)
            finally:
                in_stop[0] = False

        before = len(calls)
        try:
            traj = real_integrate(y0, p, t_end, cfg, None if stop is None else stop_spy)
        except fc.integrate.InvalidInitialState:
            assert len(calls) - before == 1
            raise
        runs.append((len(calls) - before, traj.stats))
        return traj

    monkeypatch.setattr(fc.dynamics, "reduced_field", counting_field)
    monkeypatch.setattr(fc.integrate, "integrate", watched)
    p = fc.dynamics.Params(alpha, gamma)
    result, traj = fc.integrate.simulate_until_collision(fc.dynamics.ReducedState(theta0, w0), p)
    assert all(made == 1 + 6 * stats.attempts == stats.f_evals for made, stats in runs)
    if (alpha, gamma, theta0, w0) in START_DECIDED:
        assert runs == [] and calls == []
    else:
        assert 1 <= len(runs) <= 2
    rejected = len(calls) - sum(made for made, _ in runs)
    assert rejected == (theta0 == 400.0)
    assert len(calls) == traj.stats.f_evals == sum(stats.f_evals for _, stats in runs) + rejected
    assert not any(calls)
