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
    wl = workloads.OracleGrid(fc, 1, workers=1)
    tracer = run_traced(fc, wl, 4)
    nodes = 4 * wl.n * wl.n
    assert tracer.calls("integrate.simulate_until_collision") == nodes
    assert tracer.calls("integrate.integrate") == nodes
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
