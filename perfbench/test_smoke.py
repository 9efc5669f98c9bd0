"""Smoke test of the benchmark harness, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

It is not part of the tier-1 suite (pytest collects only tests/ by
default) and checks no timing: only that every metric BENCHMARK.json names
is emitted with its unit, that the outputs pass their checks, that a second
seed runs, that the benchmark refuses to run without the package, and
that the reference kernel behind every scaled time is unchanged.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(workload: str, seed: int, trace: int) -> dict:
    proc = bench(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = result(workload, 1, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == named
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_second_seed():
    out = result("trajectory", 2, 0)
    assert out["correct"] and out["metrics"]["ops_per_s"]["value"] > 0


def test_oracle_counts_repeat_for_a_seed():
    counts = [
        {k: v["value"] for k, v in result("oracle-grid", 3, 1)["metrics"].items()
         if k.startswith(("verify.oracle.", "integrate.outcome."))}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "regime-map", 1, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_kernel_is_unchanged():
    # Every scaled time depends on this kernel; a changed kernel needs a new baseline.
    sys.path.insert(0, str(HERE))
    import reference

    assert (reference.STEPS, reference.REPEATS, reference.REFERENCE_S) == (60, 3, 1e-3)
    assert reference.kernel() == pytest.approx(
        (0.9421653728953181, -0.18012884212046812, 0.5781737809207086, 0.9090751527097077),
        rel=1e-12,
    )
    assert 0.0 < reference.gauge() < 1.0
