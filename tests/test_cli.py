"""CLI: commands, formats, determinism, atomicity, exit codes, normalization."""

from __future__ import annotations

import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import filcol.cli as cli
import filcol.verify as verify
from filcol import Params, gamma_star
from filcol.cli import _frame, main
from filcol.dynamics import time_to_axis

from conftest import h0_error, linspace, rel_err


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subprocess_env() -> dict[str, str]:
    """The environment, with this package's source first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def cpu_set(monkeypatch, cpus):
    """This process's CPU set reads as `cpus`: the worker budget of a grid."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


def run_json(capsys, tmp_path, *argv, name="out.json"):
    path = tmp_path / name
    code, out, err = run_cli(capsys, *argv, "--output", str(path))
    assert code == 0, err
    return json.loads(path.read_text())


#: A full-state pair with d != 0 at gamma 2, for the full and hyperbolic systems.
HYPERBOLIC_PAIR = ("--r1", "1", "--z1", "0.6", "--r2", "1.1", "--z2", "0")


class TestGammaStarCommand:
    def test_json_payload(self, capsys, tmp_path):
        payload = run_json(capsys, tmp_path, "gamma-star", "--alpha", "0.2")
        assert abs(payload["gamma_star"] - 1.219) <= 1e-3
        assert payload["quartic_residual"] < 1e-12

    def test_stdout_json(self, capsys):
        code, out, _ = run_cli(capsys, "gamma-star", "--alpha", "0.2")
        assert code == 0
        assert abs(json.loads(out)["gamma_star"] - 1.219) <= 1e-3

    def test_csv(self, capsys, tmp_path):
        path = tmp_path / "gs.csv"
        code, _, _ = run_cli(capsys, "gamma-star", "--alpha", "0.2",
                             "--format", "csv", "--output", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha,gamma_star,eta_star,quartic_residual"
        assert float(lines[1].split(",")[1]) == pytest.approx(gamma_star(0.2))

    def test_bad_alpha_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "gamma-star", "--alpha", "1.5")
        assert code == 2
        assert "alpha" in err


class TestClassifyCommand:
    def test_receding_equal_rings(self, capsys, tmp_path):
        payload = run_json(
            capsys, tmp_path, "classify", "--alpha", "0.2", "--gamma", "1.0",
            "--theta0", "0", "--w0", "-1",
        )
        assert payload["verdict"] == "no-collision-gamma1"
        assert payload["predicts_collision"] is False

    def test_colliding_state_carries_time_estimate(self, capsys, tmp_path):
        payload = run_json(
            capsys, tmp_path, "classify", "--alpha", "0.5", "--gamma", "1.0",
            "--theta0", str(math.log(4.0)), "--w0", "1",
        )
        assert payload["verdict"] == "head-on-collision"
        assert payload["t_estimate"] == pytest.approx(1.0)
        assert payload["formula_tag"] == "gamma1-h0-zero"

    def test_full_state_with_zero_d(self, capsys, tmp_path):
        payload = run_json(
            capsys, tmp_path, "classify", "--alpha", "0.5", "--gamma", "1.0",
            "--r1", "4", "--z1", "0.5", "--r2", "4", "--z2", "-0.5",
        )
        assert payload["verdict"] == "head-on-collision"
        assert payload["theta0"] == pytest.approx(math.log(4.0))

    def test_full_state_with_nonzero_d_rejected_with_certificate(self, capsys):
        code, _, err = run_cli(
            capsys, "classify", "--alpha", "0.2", "--gamma", "2.0",
            "--r1", "1", "--z1", "0.6", "--r2", "1.1", "--z2", "0",
        )
        assert code == 2
        assert "never" in err and "separation" in err

    def test_small_nonzero_d_pair_is_its_scaled_twin(self, capsys):
        # d = -3e-12 is nonzero on the pair's own scale (the cut is
        # 1e-9*gamma*R1**2), so it is rejected as its x1e6 twin (d = -3) is,
        # with 1e-6 times the twin's certificate.
        certs = []
        for r1, r2 in (("1e-6", "2e-6"), ("1", "2")):
            code, out, err = run_cli(capsys, "classify", "--alpha", "0.2", "--gamma", "1",
                                     "--r1", r1, "--z1", r1, "--r2", r2, "--z2", "0")
            assert code == 2 and out == ""
            certs.append(float(re.search(r"separation stays >= (\S+)\)", err)[1]))
        assert certs[0] == 1.034319852339364e-06
        assert rel_err(certs[0], 1e-6 * certs[1]) < 1e-15

    def test_underflowing_d_pair_exits_2_naming_its_range(self, capsys):
        # R1**2 and R2**2 underflow to 0, yet R2/R1 = 2 puts the pair off
        # d = 0, so it is refused with d's range, as its x1e50 twin is with
        # a certificate; it used to take the d = 0 chart and exit 3.
        code, out, err = run_cli(capsys, "classify", "--alpha", "0.2", "--gamma", "1",
                                 "--r1", "1e-200", "--z1", "1e-200", "--r2", "2e-200", "--z2", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: d = ") and "not a normal float" in err

    def test_overflowing_d_pair(self, capsys):
        # gamma*R1**2 and R2**2 overflow.  On d = 0 (R2/R1 = sqrt(2)) the chart
        # is still a float and the pair classifies as its x1e-100 copy does;
        # off d = 0 the pair is refused, as d is not a float.
        base = ("classify", "--alpha", "0.2", "--gamma", "2", "--r1", "1e200", "--z1", "1")
        code, out, _ = run_cli(capsys, *base, "--r2", "1.4142135623730951e200", "--z2", "0")
        rec = json.loads(out)
        assert code == 0
        assert rec["verdict"] == "global-pass-through"
        assert rec["theta0"] == 460.51701859880916 == math.log(1e200)
        code, out, err = run_cli(capsys, *base, "--r2", "1e200", "--z2", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: d = ") and "not representable" in err

    def test_missing_state_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--alpha", "0.2", "--gamma", "2.0")
        assert code == 2
        assert "initial state" in err

    @pytest.mark.parametrize("gamma,theta0,w0", [
        ("1.1", "-800", "0.5"), ("1", "-800", "0.5"), ("1.1", "800", "0.5"), ("1", "800", "0.5"),
    ])
    def test_unrepresentable_state_exits_2(self, capsys, gamma, theta0, w0):
        # exp(theta0) overflows or underflows to 0: the state has no level
        # z = h0*exp(theta0)/mu in floats.
        code, out, err = run_cli(capsys, "classify", "--alpha", "0.2", "--gamma", gamma,
                                 "--theta0", theta0, "--w0", w0)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not representable" in err

    def test_overflowing_d_exits_2(self, capsys):
        # gamma*R1**2 and R2**2 both overflow, so d = inf - inf: the error
        # names d, not the NaN angle it would feed the chart.
        code, out, err = run_cli(capsys, "classify", "--alpha", "0.2", "--gamma", "2",
                                 "--r1", "1e200", "--z1", "0", "--r2", "1e200", "--z2", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: d = ") and "not representable" in err

    @pytest.mark.parametrize("gamma,theta0,w0,verdict", [
        ("1.1", "400", "0.5", "no-collision-subcritical"),
        ("3", "400", "0.5", "global-pass-through"),
        ("0.9", "400", "0.5", "no-collision-subcritical"),
        ("1.1", "-380", "0", "no-collision-subcritical"),
    ])
    def test_far_state_answers(self, capsys, tmp_path, gamma, theta0, w0, verdict):
        # exp(2*theta0) or exp(-2*theta0) is not a float, but the level
        # z = h0*exp(theta0)/mu is: h0 is the state's energy to 1e-14.
        payload = run_json(capsys, tmp_path, "classify", "--alpha", "0.2", "--gamma", gamma,
                           "--theta0", theta0, "--w0", w0)
        assert payload["verdict"] == verdict
        assert payload["predicts_collision"] is False and "formula_tag" not in payload
        p = Params(0.2, payload["gamma"])
        assert h0_error(p, payload["theta0"], payload["w0"], payload["h0"]) < 1e-14

    def test_colliding_state_is_walked_once(self, capsys, tmp_path, monkeypatch):
        # The estimate is read from the class: one walk reads the state's
        # level twice, once for the class and once for the bound.
        calls = []
        real = cli.dynamics._on_level
        monkeypatch.setattr(cli.dynamics, "_on_level", lambda *a: calls.append(a) or real(*a))
        payload = run_json(capsys, tmp_path, "classify", "--alpha", "0.2", "--gamma", "1.1",
                           "--theta0", "0.2", "--w0", "0.8")
        assert payload["predicts_collision"] is True and "t_estimate" in payload
        assert payload["formula_tag"] == "subcritical-h0-negative"
        assert len(calls) == 2

    @pytest.mark.parametrize("alpha,gamma,theta0,w0,tag,t_estimate", [
        # h0**2 underflows to 0, but the level does not.
        ("0.05", "1.0256164239019379", "350", "2.1850498746957718e150",
         "subcritical-h0-negative", 9.015395152936032e+301),
        # The time is a float, and g1_w0 (below -1.8e308) is reported as null.
        ("0.05", "1", "332", "3.8344934526689277e+142", "gamma1-h0-nonzero",
         1.470334003846285e+286),
    ])
    def test_far_estimate_answers(self, capsys, tmp_path, alpha, gamma, theta0, w0, tag,
                                  t_estimate):
        payload = run_json(capsys, tmp_path, "classify", "--alpha", alpha, "--gamma", gamma,
                           "--theta0", theta0, "--w0", w0)
        t = payload["t_estimate"]
        assert payload["formula_tag"] == tag and rel_err(t, t_estimate) < 1e-13
        p, th0, w = Params(float(alpha), float(gamma)), float(theta0), float(w0)
        assert h0_error(p, th0, w, payload["h0"]) < 1e-14
        exact = time_to_axis(p, th0, w)
        if payload["t_estimate_kind"] == "exact":
            assert payload["verdict"] == "head-on-collision"
            assert t == exact and payload["constants"] == {"g1_w0": None}
        else:
            assert payload["verdict"] == "asymmetric-collision"
            assert t >= exact

    @pytest.mark.parametrize("alpha,gamma,theta0,w0", [
        ("0.5", "1", "400", "1.3058e173"),
    ])
    def test_estimate_outside_the_float_range_exits_3(self, capsys, tmp_path,
                                                       alpha, gamma, theta0, w0):
        # Far from the axis the time, exp(2*theta0) times a function of v,
        # overflows: no traceback, and no artefact with an Infinity in it.
        path = tmp_path / "out.json"
        code, out, err = run_cli(capsys, "classify", "--alpha", alpha, "--gamma", gamma,
                                 "--theta0", theta0, "--w0", w0, "--output", str(path))
        assert code == 3
        assert out == "" and not path.exists()
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    @pytest.mark.parametrize("alpha,gamma,theta0,w0", [
        # The renamed frame's estimate is 1.4755e308: times 1/gamma it overflows.
        ("0.2", "0.8206505259492958", "354.97882896445543", "4.0131340979338095e+151"),
        # W0**2/alpha underflows: the time came out as -0.0.
        ("0.5", "1", "0", "1e-300"),
    ])
    def test_time_outside_the_float_range_exits_3(self, capsys, tmp_path,
                                                   alpha, gamma, theta0, w0):
        path = tmp_path / "out.json"
        code, out, err = run_cli(capsys, "classify", "--alpha", alpha, "--gamma", gamma,
                                 "--theta0", theta0, "--w0", w0, "--output", str(path))
        assert code == 3
        assert out == "" and not path.exists()
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_time_whose_gap_squared_overflows_stays_finite(self, capsys, tmp_path):
        # W0 = 1e155 at gamma = 1: W0**2 overflows, the time 5e154 does not.
        payload = run_json(capsys, tmp_path, "classify", "--alpha", "0.5", "--gamma", "1",
                           "--theta0", "0", "--w0", "1e155")
        assert payload["t_estimate"] == pytest.approx(5e154, rel=1e-15)

    @pytest.mark.parametrize("gamma", ["1e155", "1e300"])
    def test_huge_ratio_passes_through(self, capsys, tmp_path, gamma):
        payload = run_json(capsys, tmp_path, "classify", "--alpha", "0.5", "--gamma", gamma,
                           "--theta0", "0", "--w0", "1")
        assert payload["verdict"] == "global-pass-through"
        assert "t_estimate" not in payload


class TestSimulateCommand:
    def test_equal_circulation_collision(self, capsys, tmp_path):
        payload = run_json(
            capsys, tmp_path, "simulate", "--alpha", "0.5", "--gamma", "1",
            "--theta0", "1.3862944", "--w0", "1", "--t-end", "20",
        )
        assert payload["outcome"]["status"] == "collided"
        # theta0 is the 1e-7-rounded log 4, so the collision time shifts
        # accordingly; the zero-energy value for exact log 4 is 1.0.
        assert abs(payload["outcome"]["time"] - 1.0) < 1e-5
        assert payload["drift"]["H"] >= 0.0
        assert len(payload["times"]) == len(payload["states"])

    def test_colliding_run_stops_at_the_separation_event(self, capsys, tmp_path):
        # The run ends where the gap is 0.25 of W0; the reported time adds
        # the exact rest of the approach, W0**2/(2*alpha) = 1 here.
        payload = run_json(
            capsys, tmp_path, "simulate", "--alpha", "0.5", "--gamma", "1",
            "--theta0", repr(math.log(4.0)), "--w0", "1", "--t-end", "20",
        )
        assert payload["outcome"]["status"] == "collided"
        assert payload["integration"]["outcome"] == "event-terminated"
        (event,) = payload["events"]
        assert event["kind"] == "separation-below" and event["threshold"] == 0.25
        assert payload["times"][-1] == event["time"] < 1.0
        assert rel_err(payload["outcome"]["time"], 1.0) < 1e-9

    def test_outcome_splits_the_collision_time(self, capsys, tmp_path):
        # remaining_time is the closed-form part, from the stop point, the
        # last accepted one; the rest was integrated.  Times are in the
        # input frame.
        for gamma in ("1", "0.9"):
            payload = run_json(
                capsys, tmp_path, "simulate", "--alpha", "0.2", "--gamma", gamma,
                "--theta0", "0.3", "--w0", "0.8", "--t-end", "50",
            )
            outcome = payload["outcome"]
            assert outcome["status"] == "collided"
            assert 0.0 < outcome["remaining_time"] < outcome["time"]
            integrated = outcome["time"] - outcome["remaining_time"]
            assert integrated == pytest.approx(payload["times"][-1], rel=1e-12)
            assert payload["events"][0]["time"] == payload["times"][-1]

    @pytest.mark.parametrize("w0", ["1e-100", "1e-107"])
    def test_collision_below_the_step_floor_is_undecided(self, capsys, tmp_path, w0):
        # Every step is rejected at t = 0: classify's time is below --h-min,
        # but no rule held, so the run is undecided, with no remaining time.
        state = ("--alpha", "0.5", "--gamma", "1", "--theta0", "0", "--w0", w0)
        payload = run_json(capsys, tmp_path, "simulate", *state)
        estimate = run_json(capsys, tmp_path, "classify", *state, name="c.json")
        assert payload["integration"]["outcome"] == "step-collapsed"
        assert payload["outcome"] == {"status": "inconclusive", "time": 0.0}
        assert payload["times"] == [0.0] and payload["events"] == []
        assert 0.0 < estimate["t_estimate"] < 1e-14

    def test_full_system_csv(self, capsys, tmp_path):
        path = tmp_path / "traj.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--alpha", "0.5", "--gamma", "1",
            "--r1", "4", "--z1", "0.5", "--r2", "4", "--z2", "-0.5",
            "--system", "full", "--t-end", "0.5",
            "--format", "csv", "--output", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "t,r1,z1,r2,z2"
        assert len(lines) > 10

    def test_hyperbolic_system(self, capsys, tmp_path):
        payload = run_json(
            capsys, tmp_path, "simulate", "--alpha", "0.2", "--gamma", "2",
            "--r1", "1", "--z1", "0.6", "--r2", "1.1", "--z2", "0",
            "--system", "hyperbolic", "--t-end", "10",
        )
        assert payload["outcome"]["status"] == "reached-t-end"
        assert payload["drift"]["H"] < 1e-8

    @pytest.mark.parametrize("system,state", [
        ("full", ("--r1", "1", "--z1", "0.6", "--r2", "1.1", "--z2", "0")),
        ("hyperbolic", ("--r1", "1", "--z1", "0.6", "--r2", "1.1", "--z2", "0")),
        ("auto", ("--theta0", "5", "--w0", "0.5")),
    ])
    def test_t_end_is_in_the_input_frame(self, capsys, tmp_path, system, state):
        # gamma < 1 runs in the renamed frame, whose time is the input
        # time divided by the 1/gamma scale; the horizon is an input time.
        # The auto state is far out, so no oracle rule decides it by then.
        gamma = "0.4" if system == "auto" else "0.8"
        payload = run_json(
            capsys, tmp_path, "simulate", "--alpha", "0.2", "--gamma", gamma,
            *state, "--system", system, "--t-end", "20",
        )
        assert payload["gamma_normalized"] is True
        assert payload["outcome"]["status"] in ("reached-t-end", "survived")
        assert payload["outcome"]["time"] == pytest.approx(20.0, rel=1e-12)
        assert payload["times"][-1] == pytest.approx(20.0, rel=1e-12)

    def test_t_end_is_reported_exactly_when_gamma_below_one(self, capsys, tmp_path):
        # (7 / scale) * scale is one ulp below 7 at gamma 0.7; a run that
        # ends at its horizon reports --t-end itself.  The state approaches
        # from far out, so no oracle rule decides it before t = 7.
        argv = ("simulate", "--alpha", "0.2", "--gamma", "0.7", "--theta0", "5",
                "--w0", "1", "--t-end", "7")
        payload = run_json(capsys, tmp_path, *argv)
        assert payload["gamma_normalized"] is True
        assert payload["outcome"] == {"status": "survived", "time": 7.0}
        assert payload["times"][-1] == 7.0
        code, _, err = run_cli(capsys, *argv, "--format", "csv",
                               "--output", str(tmp_path / "run.csv"))
        assert code == 0
        assert "survived at t = 7.0\n" in err
        last = (tmp_path / "run.csv").read_text().splitlines()[-1]
        assert last.split(",")[0] == "7.0"

    @pytest.mark.parametrize("system", ["full", "hyperbolic"])
    def test_full_or_hyperbolic_system_without_a_full_state_exits_2(self, capsys, system):
        # A reduced state does not stand in for the full one these systems need.
        code, out, err = run_cli(capsys, "simulate", "--alpha", "0.2", "--gamma", "2",
                                 "--theta0", "0", "--w0", "1", "--system", system)
        assert (code, out) == (2, "")
        assert err == f"error: --system {system} needs --r1/--z1/--r2/--z2\n"

    def test_hyperbolic_system_on_a_zero_d_pair_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--alpha", "0.5", "--gamma", "1",
                                 "--r1", "4", "--z1", "0.5", "--r2", "4", "--z2", "-0.5",
                                 "--system", "hyperbolic")
        assert (code, out) == (2, "")
        assert err == "error: conserved d is zero within tolerance; use --system auto\n"

    def test_horizon_at_or_below_the_step_floor_exits_2(self, capsys):
        # Such a horizon would take no step: it is rejected, not "reached".
        code, out, err = run_cli(capsys, "simulate", "--alpha", "0.2", "--gamma", "2",
                                 *HYPERBOLIC_PAIR, "--system", "full", "--t-end", "1e-15")
        assert code == 2
        assert out == "" and "h_min" in err

    @pytest.mark.parametrize("flag", ["--rel-tol", "--abs-tol"])
    def test_infinite_tolerance_exits_2(self, capsys, flag):
        # Either tolerance infinite would accept every attempt: no error control.
        code, out, err = run_cli(capsys, "simulate", "--alpha", "0.2", "--gamma", "2",
                                 *HYPERBOLIC_PAIR, "--system", "full", "--t-end", "50",
                                 flag, "inf")
        assert code == 2
        assert out == "" and "positive and finite" in err

    def test_renamed_horizon_below_the_step_floor_names_the_typed_values(self, capsys):
        # 1.5e-14 exceeds h_min, but its renamed-frame horizon 7.5e-15 does not.
        code, out, err = run_cli(capsys, "simulate", "--alpha", "0.2", "--gamma", "0.5",
                                 "--theta0", "0", "--w0", "0.5", "--t-end", "1.5e-14")
        assert code == 2
        assert out == "" and "1.5e-14" in err and "7.5e-15" not in err

    @pytest.mark.parametrize("system, state", [
        ("auto", ("--theta0", "0", "--w0", "1")),
        ("full", HYPERBOLIC_PAIR),
        ("hyperbolic", HYPERBOLIC_PAIR),
    ], ids=["auto", "full", "hyperbolic"])
    @pytest.mark.parametrize("gamma", ["2", "0.5"])
    @pytest.mark.parametrize("t_end", ["inf", "nan"])
    def test_t_end_must_be_finite(self, capsys, system, state, gamma, t_end):
        # A full or hyperbolic run to t_end = inf would go on for up to
        # --max-steps attempts and record every state.  Every system refuses
        # a horizon that is not finite before the run, with one message.
        code, out, err = run_cli(capsys, "simulate", "--alpha", "0.2", "--gamma", gamma,
                                 *state, "--system", system, "--t-end", t_end,
                                 "--max-steps", "100")
        assert code == 2 and out == ""
        assert err == f"error: t_end must be a positive finite real, got {t_end}\n"

    @pytest.mark.parametrize("system", ["full", "hyperbolic"])
    def test_reached_run_ends_exactly_at_t_end(self, capsys, tmp_path, system):
        # The last step is sized to the remainder, and t + (t_end - t)
        # rounds one ulp below this horizon.
        t_end = "0.0027187039638095147"
        payload = run_json(capsys, tmp_path, "simulate", "--alpha", "0.2", "--gamma", "2",
                           *HYPERBOLIC_PAIR, "--system", system, "--t-end", t_end)
        assert payload["outcome"] == {"status": "reached-t-end", "time": float(t_end)}
        assert payload["times"][-1] == float(t_end)

    def test_integration_counts_in_payload(self, capsys, tmp_path):
        payload = run_json(
            capsys, tmp_path, "simulate", "--alpha", "0.5", "--gamma", "1",
            "--theta0", "1.3862944", "--w0", "1", "--t-end", "20",
        )
        counts = payload["integration"]
        assert set(counts) == {"outcome", "n_points", "rel_tol", "attempts",
                               "rejections", "accepted", "f_evals"}
        assert counts["n_points"] == len(payload["times"])
        assert counts["accepted"] == len(payload["times"]) - 1
        assert counts["attempts"] == counts["accepted"] + counts["rejections"]
        assert counts["f_evals"] == 1 + 6 * counts["attempts"]

    @pytest.mark.parametrize("flag, value", [("--z1", "-5.9e-05"), ("--w0", "-1e-3")])
    def test_separate_negative_exponent_value(self, capsys, tmp_path, flag, value):
        # argparse's own negative-number pattern has no exponent form, so a
        # separate "-5.9e-05" used to be taken for an option.
        state = {
            "--z1": ["--r1", "1", "--r2", "1.3", "--z2", "0.5", "--system", "full"],
            "--w0": ["--theta0", "0.1"],
        }[flag]
        payload = run_json(
            capsys, tmp_path, "simulate", "--alpha", "0.2", "--gamma", "1.5",
            *state, flag, value, "--t-end", "0.5",
        )
        joined = run_json(
            capsys, tmp_path, "simulate", "--alpha", "0.2", "--gamma", "1.5",
            *state, f"{flag}={value}", "--t-end", "0.5", name="joined.json",
        )
        assert payload == joined
        assert payload["states"][0][1] == float(value)  # z1, or W in (theta, W)

    @pytest.mark.parametrize("w0", ["0", "1e-110"])
    def test_gap_on_or_below_the_gamma1_singular_line_exits_2(self, capsys, w0):
        # classify times the 1e-110 state (5.0e-218); the field cannot be
        # evaluated there because |W|**3 underflows to 0.
        code, out, err = run_cli(capsys, "simulate", "--alpha", "0.5", "--gamma", "1",
                                 "--theta0", "0", "--w0", w0)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: initial state rejected: |W|**3 is 0 at W = {float(w0)!r} "
            "(zero, or underflowed below |W| of about 1.4e-108); "
            "W = 0 is excluded for gamma = 1\n"
        )

    def test_receding_gap_below_the_gamma1_singular_line_survives(self, capsys, tmp_path):
        # classify says no-collision-gamma1; the flow's field cannot be
        # evaluated at W0 = -1e-110, but the witness decides the state at its
        # start, as it does at -1e-3: one point, exit 0.
        tiny, small = (run_json(capsys, tmp_path, "simulate", "--alpha", "0.2", "--gamma", "1",
                                "--theta0", "0", "--w0", w0, name=f"{w0}.json")
                       for w0 in ("-1e-110", "-1e-3"))
        assert tiny["outcome"] == {"status": "survived", "time": 0.0}
        assert tiny["events"] == [{"time": 0.0, "kind": "survival-witness", "threshold": None}]
        assert tiny["states"] == [[0.0, -1e-110]]
        assert {**tiny, "states": None} == {**small, "states": None}

    @pytest.mark.parametrize("gamma, status, kind", [("2", "survived", "survival-witness"),
                                                     ("1.1", "inconclusive", "w-rose")])
    def test_far_state_a_start_rule_decides_exits_0(self, capsys, tmp_path, gamma, status, kind):
        # exp(2*theta0) overflows at theta0 = 400, but v = W0*exp(-theta0) is
        # about -1.9e-4 and a start rule decides the state: one point, no
        # field call, the verdict the grid gives.
        payload = run_json(capsys, tmp_path, "simulate", "--alpha", "0.2", "--gamma", gamma,
                           "--theta0", "400", "--w0", "-1e170")
        assert payload["outcome"] == {"status": status, "time": 0.0}
        assert payload["events"] == [{"time": 0.0, "kind": kind, "threshold": None}]
        assert payload["states"] == [[400.0, -1e170]]
        assert payload["integration"]["f_evals"] == 0

    def test_infinite_v_exits_2(self, capsys):
        # v = W0*exp(-theta0) = 1e300*exp(100) is inf without overflowing exp.
        code, out, err = run_cli(capsys, "simulate", "--alpha", "0.2", "--gamma", "2",
                                 "--theta0", "-100", "--w0", "1e300")
        assert code == 2
        assert out == ""
        assert err.startswith("error: initial state rejected: ")

    def test_gamma1_state_far_out_runs_to_its_horizon(self, capsys, tmp_path):
        # classify calls this state a head-on collision; simulate runs it
        # although exp(2*theta0) overflows.
        payload = run_json(capsys, tmp_path, "simulate", "--alpha", "0.5", "--gamma", "1",
                           "--theta0", "400", "--w0", "1", "--t-end", "5")
        assert payload["outcome"] == {"status": "survived", "time": 5.0}

    def test_reduced_system_is_not_a_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--alpha", "0.5", "--gamma", "1", "--theta0", "0",
                  "--w0", "1", "--system", "reduced"])
        assert exc.value.code == 2
        assert "--system" in capsys.readouterr().err

    def test_step_budget_exhaustion_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--alpha", "0.2", "--gamma", "2.0",
            "--theta0", "0", "--w0", "1", "--t-end", "50", "--max-steps", "10",
        )
        assert code == 3
        assert "step" in err.lower()


class TestSweepCommand:
    BASE = (
        "sweep", "--alpha", "0.2", "--gamma", "2.0",
        "--theta-min", "-1", "--theta-max", "1",
        "--w-min", "-1", "--w-max", "1",
    )

    def test_smoke_grid_row_count(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, *self.BASE, "--n-theta", "2", "--n-w", "2",
                             "--output", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "theta0,w0,verdict,h0,t_estimate"
        assert len(lines) == 5

    def test_supercritical_all_pass_through(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, *self.BASE, "--n-theta", "6", "--n-w", "6",
                             "--output", str(path))
        assert code == 0
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == 36
        assert all(r.split(",")[2] == "global-pass-through" for r in rows)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_time_overflowing_the_input_frame_exits_3(self, capsys, tmp_path, fmt):
        # Two nodes collide; at theta0 = 354.97882896445543 the renamed
        # frame's estimate, 1.4755e308, times 1/gamma overflows (written as
        # inf or Infinity before).  The W0 < 0 nodes do not collide.
        path = tmp_path / f"sweep.{fmt}"
        code, out, err = run_cli(
            capsys, "sweep", "--alpha", "0.2", "--gamma", "0.8206505259492958",
            "--theta-min", "354", "--theta-max", "354.97882896445543",
            "--w-min", "-4.0131340979338095e+151", "--w-max", "4.0131340979338095e+151",
            "--n-theta", "2", "--n-w", "2", "--format", fmt, "--output", str(path))
        assert code == 3
        assert out == "" and not path.exists()
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_byte_identical_reruns(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, *self.BASE, "--n-theta", "4", "--n-w", "3", "--output", str(p1))
        run_cli(capsys, *self.BASE, "--n-theta", "4", "--n-w", "3", "--output", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_subcritical_verdict_boundary_structure(self, capsys, tmp_path):
        # Verdicts on each grid row must match an independently recomputed
        # predicate: colliding iff W0 > 0 and (h0 <= 0 or theta0 <= the
        # separatrix angle from the closed-form cubic root).
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--alpha", "0.2", "--gamma", "1.1",
            "--theta-min", "-2", "--theta-max", "4",
            "--w-min", "-2", "--w-max", "2",
            "--n-theta", "12", "--n-w", "11", "--output", str(path),
        )
        assert code == 0
        import filcol
        p = filcol.Params(0.2, 1.1)
        c = (p.alpha**2 * p.gamma / (p.offset2 * p.mu**2)) ** (1.0 / 3.0)
        n_collide = 0
        for row in path.read_text().splitlines()[1:]:
            th0_s, w0_s, verdict, h0_s, _ = row.split(",")
            th0, w0, h0 = float(th0_s), float(w0_s), float(h0_s)
            if w0 > 0 and h0 > 1e-10:
                want = th0 <= math.log(p.mu * (c - 1.0) / h0)
            else:
                want = w0 > 0
            n_collide += want
            assert (verdict == "asymmetric-collision") == want, row
        assert 0 < n_collide < 12 * 11

    def test_oracle_agreement_columns(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--alpha", "0.2", "--gamma", "2.0",
            "--theta-min", "-0.5", "--theta-max", "0.5",
            "--w-min", "-1", "--w-max", "1",
            "--n-theta", "3", "--n-w", "3", "--with-oracle", "--t-end", "30",
            "--output", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "theta0,w0,verdict,h0,t_estimate,oracle,agrees,oracle_reason"
        assert all(line.split(",")[6:] == ["true", "survival-witness"] for line in lines[1:])

    @pytest.mark.parametrize("t_end", ["inf", "nan"])
    def test_oracle_horizon_must_be_finite(self, capsys, t_end):
        # The message simulate gives, in the renamed frame too.
        code, out, err = run_cli(
            capsys, "sweep", "--alpha", "0.2", "--gamma", "0.8", "--theta-min", "-0.5",
            "--theta-max", "0.5", "--w-min", "-1", "--w-max", "1", "--with-oracle",
            "--t-end", t_end,
        )
        assert code == 2 and out == ""
        assert err == f"error: t_end must be a positive finite real, got {t_end}\n"

    @pytest.mark.parametrize("gamma", [1.0, verify.mid_subcritical_gamma(0.2), gamma_star(0.2),
                                       2.0], ids=["equal", "mid", "critical", "super"])
    def test_simulate_gives_each_node_its_oracle_row(self, capsys, tmp_path, gamma):
        # The oracle has one rule set: a node's own simulate run ends as its
        # sweep row says, in status and in the rule or outcome that ended it.
        sweep = run_json(
            capsys, tmp_path, "sweep", "--alpha", "0.2", "--gamma", repr(gamma),
            "--theta-min", "-2", "--theta-max", "2", "--w-min", "-2", "--w-max", "2",
            "--n-theta", "4", "--n-w", "4", "--with-oracle", "--format", "json",
        )
        for row in sweep["rows"]:
            run = run_json(capsys, tmp_path, "simulate", "--alpha", "0.2", "--gamma",
                           repr(gamma), "--theta0", repr(row["theta0"]), "--w0", repr(row["w0"]),
                           name="run.json")
            ended = run["events"][0]["kind"] if run["events"] else run["integration"]["outcome"]
            assert (run["outcome"]["status"], ended) == (row["oracle"], row["oracle_reason"]), row

    def test_oracle_horizon_is_in_the_input_frame(self, capsys, tmp_path, monkeypatch):
        horizons = []
        real = verify.classifier_oracle_grid

        def spy(*args, t_end, **kwargs):
            horizons.append(t_end)
            return real(*args, t_end=t_end, **kwargs)

        monkeypatch.setattr(verify, "classifier_oracle_grid", spy)
        code, _, err = run_cli(
            capsys, "sweep", "--alpha", "0.2", "--gamma", "0.8",
            "--theta-min", "-0.5", "--theta-max", "0.5", "--w-min", "-1", "--w-max", "1",
            "--with-oracle", "--t-end", "30", "--output", str(tmp_path / "sweep.csv"),
        )
        assert code == 0, err
        assert horizons == [pytest.approx(30.0 * 0.8, rel=1e-12)]

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="a two-worker pool needs two CPUs in the CPU set",
    )
    def test_oracle_sweep_exits_with_its_pool_alive(self, capsys, tmp_path, monkeypatch):
        # The pooled grid leaves its worker pool running; interpreter exit
        # must still end it promptly, and the rows must be the serial ones.
        argv = ["sweep", "--alpha", "0.2", "--gamma", "1.1", "--theta-min", "-1",
                "--theta-max", "1", "--w-min", "-1", "--w-max", "1", "--n-theta", "6",
                "--n-w", "6", "--with-oracle", "--t-end", "30", "--format", "csv"]
        pooled, serial = tmp_path / "pooled.csv", tmp_path / "serial.csv"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import os, sys; os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2]); "
             "from filcol import cli, verify; code = cli.main(sys.argv[1:]); "
             "print(*(p.pid for p, _ in verify._pool)); sys.exit(code)",
             *argv, "--output", str(pooled)],
            env=subprocess_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        workers = [int(pid) for pid in proc.stdout.split()]
        assert len(workers) == 2
        for pid in workers:  # terminated and reaped before the interpreter exited
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        cpu_set(monkeypatch, {0})
        code, _, err = run_cli(capsys, *argv, "--output", str(serial))
        assert code == 0, err
        assert pooled.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_oracle_rows_are_the_same_pooled_and_serial(self, capsys, tmp_path, monkeypatch, fmt):
        # A 5 x 7 grid: its groups go whole to the two workers.
        argv = ["sweep", "--alpha", "0.3", "--gamma", "1.15", "--theta-min", "-2",
                "--theta-max", "2", "--w-min", "-2", "--w-max", "2", "--n-theta", "5",
                "--n-w", "7", "--with-oracle", "--t-end", "60", "--format", fmt]
        out = {}
        for cpus in (1, 2):
            cpu_set(monkeypatch, range(cpus))
            out[cpus] = tmp_path / f"sweep-{cpus}.{fmt}"
            code, _, err = run_cli(capsys, *argv, "--output", str(out[cpus]))
            assert code == 0, err
        assert out[2].read_bytes() == out[1].read_bytes()

    def test_one_cpu_runs_the_oracle_grid_without_a_worker_set(self, capsys, tmp_path,
                                                               monkeypatch):
        verify._discard_pool()
        cpu_set(monkeypatch, {0})
        payload = run_json(
            capsys, tmp_path, "sweep", "--alpha", "0.3", "--gamma", "1.15", "--theta-min", "-2",
            "--theta-max", "2", "--w-min", "-2", "--w-max", "2", "--n-theta", "5", "--n-w", "7",
            "--with-oracle", "--t-end", "60", "--format", "json",
        )
        assert verify._pool == []
        serial = verify.classifier_oracle_grid(
            Params(0.3, 1.15), cli._linspace(-2.0, 2.0, 5), cli._linspace(-2.0, 2.0, 7),
            t_end=60.0, workers=1,
        )
        assert [list(row.values()) for row in payload["rows"]] == [list(row) for row in serial]

    def test_renamed_oracle_horizon_below_the_step_floor_names_the_typed_values(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--alpha", "0.2", "--gamma", "0.5",
            "--theta-min", "-0.5", "--theta-max", "0.5", "--w-min", "-1", "--w-max", "1",
            "--with-oracle", "--t-end", "1.5e-14",
        )
        assert code == 2
        assert out == "" and "1.5e-14" in err and "7.5e-15" not in err

    def test_invalid_grid_counts_exit_2(self, capsys):
        code, _, err = run_cli(capsys, *self.BASE, "--n-theta", "1", "--n-w", "5")
        assert code == 2
        assert "grid" in err

    @pytest.mark.parametrize("bounds", [
        ("--theta-min", "1", "--theta-max", "1", "--w-min", "-1", "--w-max", "1"),
        ("--theta-min", "-1", "--theta-max", "1", "--w-min", "1", "--w-max", "-1"),
    ])
    def test_empty_range_exits_2(self, capsys, bounds):
        code, out, err = run_cli(capsys, "sweep", "--alpha", "0.2", "--gamma", "2.0", *bounds)
        assert (code, out) == (2, "")
        assert err == "error: need theta_max > theta_min and w_max > w_min\n"

    def test_unrepresentable_node_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--alpha", "0.2", "--gamma", "1.1",
                                 "--theta-min", "0", "--theta-max", "800",
                                 "--w-min", "-1", "--w-max", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not representable" in err

    def test_far_nodes_answer(self, capsys, tmp_path):
        # At theta0 = 400 exp(2*theta0) overflows, but each node's level is a float.
        payload = run_json(capsys, tmp_path, "sweep", "--alpha", "0.2", "--gamma", "1.1",
                           "--theta-min", "0", "--theta-max", "400",
                           "--w-min", "-1", "--w-max", "1", "--format", "json")
        far = [row for row in payload["rows"] if row["theta0"] == 400.0]
        assert [row["w0"] for row in far] == [-1.0, 1.0]
        for row in far:
            assert row["verdict"] == "no-collision-subcritical" and row["t_estimate"] is None
            assert h0_error(Params(0.2, 1.1), 400.0, row["w0"], row["h0"]) < 1e-14


class TestVerifyCommand:
    def test_empty_battery(self, capsys, tmp_path):
        payload = run_json(capsys, tmp_path, "verify", "--battery", "none")
        assert payload["n_checks"] == 0
        assert payload["passed"] is True

    @pytest.mark.parametrize("battery", ["", ",", " , "])
    def test_battery_naming_no_check_exits_2(self, capsys, battery):
        # A mistyped list must not pass as a battery that ran nothing.
        code, out, err = run_cli(capsys, "verify", "--battery", battery)
        assert code == 2
        assert out == ""
        assert "names no check" in err

    @pytest.mark.parametrize("flag", ["--rel-tol", "--abs-tol"])
    def test_infinite_tolerance_exits_2(self, capsys, flag):
        code, out, err = run_cli(capsys, "verify", "--battery", "gamma-star", flag, "inf")
        assert code == 2 and out == ""
        assert "positive and finite" in err and "PASS" not in err

    def test_single_check(self, capsys, tmp_path):
        payload = run_json(capsys, tmp_path, "verify", "--battery", "gamma-star")
        assert payload["n_checks"] == 1
        assert payload["checks"][0]["name"] == "gamma-star"
        assert payload["checks"][0]["passed"] is True

    def test_wall_times_go_to_stderr_only(self, capsys, tmp_path):
        argv = ["verify", "--battery", "gamma-star,classifier-oracle", "--format", "csv"]
        reports, errs = [], []
        for k in range(2):
            path = tmp_path / f"report-{k}.csv"
            code, _, err = run_cli(capsys, *argv, "--output", str(path))
            assert code == 0, err
            reports.append(path.read_bytes())
            errs.append(err.splitlines())
        assert reports[0] == reports[1]
        assert b"seconds" not in reports[0]
        for lines in errs:
            assert [re.fullmatch(r"PASS  ([a-z-]+)  \((\d+\.\d{3}) s\)", line)[1]
                    for line in lines[:2]] == ["gamma-star", "classifier-oracle"]
        payload = run_json(capsys, tmp_path, "verify", "--battery", "gamma-star")
        assert set(payload["checks"][0]) == {"name", "passed", "measured"}

    def test_unknown_check_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--battery", "nope")
        assert code == 2
        assert "unknown" in err

    def test_grid_below_two_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--battery", "classifier-oracle",
                                 "--grid", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "grid" in err

    def test_odd_grid_with_the_oracle_exits_2_before_any_check(self, capsys):
        # An odd grid puts an oracle node on W0 = 0, which gamma = 1 excludes.
        code, out, err = run_cli(capsys, "verify", "--grid", "5")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "even grid" in err
        assert "PASS" not in err and err.count("\n") == 1

    def test_zero_samples_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--battery", "bound-domination",
                                 "--samples", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "samples" in err

    def test_default_battery_runs_every_check_in_order(self, capsys, tmp_path):
        payload = run_json(capsys, tmp_path, "verify")
        names = [c["name"] for c in payload["checks"]]
        assert names == [
            "gamma-star",
            "gamma1-exact-time",
            "gamma1-implicit-time",
            "subcritical-h0zero-discrepancy",
            "critical-bound-discrepancy",
            "bound-domination",
            "corridor",
            "classifier-oracle",
            "conservation",
            "certificate",
            "ansatz",
        ]
        assert names == list(verify.CHECKS)
        assert payload["n_checks"] == 11
        failed = [c["name"] for c in payload["checks"] if c["passed"] is not True]
        assert failed == []
        assert payload["passed"] is True


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.5\ngamma = 1.0\ntheta0 = 0.0\nw0 = -1  # receding\n")
        payload = run_json(
            capsys, tmp_path, "classify", "--config", str(cfg),
        )
        assert payload["verdict"] == "no-collision-gamma1"
        payload = run_json(
            capsys, tmp_path, "classify", "--config", str(cfg), "--w0", "1",
        )
        assert payload["verdict"] == "head-on-collision"

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.5\nbogus = 1\n")
        code, _, err = run_cli(capsys, "gamma-star", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_missing_required_after_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 1.0\n")
        code, _, err = run_cli(capsys, "classify", "--config", str(cfg))
        assert code == 2
        assert "--alpha" in err


    def test_unreadable_config_exits_2(self, capsys, tmp_path):
        for path in (tmp_path / "absent.cfg", tmp_path):
            code, out, err = run_cli(capsys, "gamma-star", "--config", str(path))
            assert (code, out) == (2, "")
            assert err.startswith(f"error: cannot read config file {path}: ")

    def test_comment_lines_and_the_key_value_form(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment line\n\nalpha 0.5\n  # indented\ngamma 1.0  # inline\n"
                       "theta0 0.0\nw0 -1\n")
        payload = run_json(capsys, tmp_path, "classify", "--config", str(cfg))
        assert (payload["alpha"], payload["gamma"]) == (0.5, 1.0)
        assert payload["verdict"] == "no-collision-gamma1"

    @pytest.mark.parametrize("line, message", [
        ("alpha", "3: expected 'key = value'"),
        ("= 0.5", "3: empty key"),
    ])
    def test_malformed_config_line_exits_2(self, capsys, tmp_path, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# header\ngamma = 1.0\n{line}\n")
        code, out, err = run_cli(capsys, "classify", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"error: {cfg}:{message}\n"


class TestConfigRoute:
    # The parser is built once per process: each case runs through the
    # cached parser, after other calls in the same process.
    STATE = ("--gamma", "1", "--theta0", "0", "--w0", "1")

    def test_parser_is_built_once(self, capsys):
        first = cli.build_parser()
        assert run_cli(capsys, "gamma-star", "--alpha", "0.2")[0] == 0
        assert cli.build_parser() is first

    def test_config_values_do_not_reach_a_later_call(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.5\n")
        code, _, err = run_cli(capsys, "classify", "--config", str(cfg), *self.STATE)
        assert code == 0, err
        code, _, err = run_cli(capsys, "classify", *self.STATE)
        assert code == 2
        assert "--alpha" in err

    def test_config_value_is_checked_against_the_choices(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\nalpha = 0.2\n")
        with pytest.raises(SystemExit) as exc:
            main(["gamma-star", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_config_values_take_the_flag_types(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.5\ngamma = 1\ntheta0 = 0\nw0 = 1\n")
        by_config, by_flags = tmp_path / "config.json", tmp_path / "flags.json"
        run_cli(capsys, "classify", "--config", str(cfg), "--output", str(by_config))
        run_cli(capsys, "classify", "--alpha", "0.5", *self.STATE, "--output", str(by_flags))
        assert by_config.read_bytes() == by_flags.read_bytes()
        assert json.loads(by_config.read_text())["theta0"] == 0.0

    @pytest.mark.parametrize("value, on", [("true", True), ("False", False)])
    def test_config_switch(self, capsys, tmp_path, value, on):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"with_oracle = {value}\nt_end = 30\n")
        payload = run_json(
            capsys, tmp_path, *TestSweepCommand.BASE, "--config", str(cfg),
            "--format", "json",
        )
        assert payload["with_oracle"] is on
        assert ("oracle" in payload["rows"][0]) is on

    def test_config_switch_needs_true_or_false(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("with_oracle = 1\n")
        code, _, err = run_cli(capsys, *TestSweepCommand.BASE, "--config", str(cfg))
        assert code == 2
        assert "with_oracle" in err

    @pytest.mark.parametrize("argv", [["classify", "--config"],
                                      ["--config", "run.cfg", "classify"]])
    def test_config_without_path_or_before_the_subcommand_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_repeated_calls_write_identical_artefacts(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.5\nt_end = 5\n")
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), *self.STATE,
                                   "--output", str(path))
            assert code == 0, err
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestModuleEntryPoint:
    def test_python_dash_m_filcol(self):
        proc = subprocess.run(
            [sys.executable, "-m", "filcol", "gamma-star", "--alpha", "0.2"],
            env=subprocess_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["gamma_star"] == pytest.approx(1.2186, abs=1e-4)


class TestAtomicity:
    def test_no_partial_file_when_rename_fails(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "out.json"

        def boom(src, dst):
            raise OSError("injected crash between write and rename")

        monkeypatch.setattr(cli.os, "replace", boom)
        with pytest.raises(OSError):
            main(["gamma-star", "--alpha", "0.2", "--output", str(target)])
        assert not target.exists()
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]

    def test_existing_file_replaced_atomically(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        code, _, _ = run_cli(capsys, "gamma-star", "--alpha", "0.2",
                             "--output", str(target))
        assert code == 0
        assert json.loads(target.read_text())["alpha"] == 0.2

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "replaced"])
    def test_artefact_mode_follows_the_umask(self, capsys, tmp_path, umask, mode, existing):
        target = tmp_path / "out.json"
        if existing:
            target.write_text("old")
            target.chmod(0o640)
        old = os.umask(umask)
        try:
            code, _, _ = run_cli(capsys, "gamma-star", "--alpha", "0.2",
                                 "--output", str(target))
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == mode


SHAPES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e22, 1e-300, -1.5, 0.1]


class TestJsonText:
    """cli._json_text writes exactly what json.dumps(payload, indent=2) writes."""

    @pytest.mark.parametrize("width", [2, 4])
    def test_float_shapes(self, width):
        rows = [tuple(SHAPES[i:i + width]) for i in range(len(SHAPES) - width + 1)]
        payload = {"command": "simulate", "drift": {"H": math.nan}, "times": SHAPES,
                   "states": rows, "gamma_normalized": True, "note": "after states"}
        assert cli._json_text(payload) == json.dumps(payload, indent=2)

    @pytest.mark.parametrize("argv", [
        ("--gamma", "2", "--r1", "1", "--z1", "1e-100", "--r2", "1", "--z2", "0",
         "--system", "full", "--t-end", "1"),
        ("--gamma", "2", *HYPERBOLIC_PAIR, "--system", "full", "--t-end", "1"),
        ("--gamma", "2", *HYPERBOLIC_PAIR, "--system", "hyperbolic", "--t-end", "1"),
        ("--gamma", "1", "--theta0", "0", "--w0", "0.5"),
        ("--gamma", "0.8", "--theta0", "0", "--w0", "-0.5", "--t-end", "1"),
        ("--gamma", "1", "--theta0", "400", "--w0", "1", "--t-end", "5"),
    ], ids=["one-point", "full", "hyperbolic", "auto", "auto-renamed", "gamma1-theta0-400"])
    def test_simulate_artefacts(self, capsys, tmp_path, monkeypatch, argv):
        payloads = []
        json_text = cli._json_text
        monkeypatch.setattr(cli, "_json_text", lambda p: payloads.append(p) or json_text(p))
        path = tmp_path / "out.json"
        code, _, err = run_cli(capsys, "simulate", "--alpha", "0.2", *argv,
                               "--output", str(path))
        assert code == 0, err
        (payload,) = payloads
        text = path.read_text()
        assert text == json.dumps(payload, indent=2) + "\n"
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        width = 4 if "full" in argv else 2
        assert {len(row) for row in payload["states"]} == {width}
        if argv[1] == "0.8":
            assert list(payload)[-4:] == ["states", "gamma_normalized", "gamma_input", "note"]
        if "1e-100" in argv:  # every step from the near-overlap is rejected
            assert payload["integration"]["n_points"] == 1


class TestRatioNormalization:
    def test_reduced_map_reproduces_direct_integration(self):
        # Integrate the raw ratio < 1 planar field with scipy and compare
        # against the normalized-system trajectory mapped back.
        alpha, g_o = 0.2, 0.8
        th0, w0 = 0.3, 1.0

        def raw_field(t, y):
            th, w = y
            sq = math.sqrt(g_o)
            c2 = (sq - 1.0) ** 2
            mu = g_o + 1.0 / sq
            d2 = c2 * math.exp(2 * th) + w * w
            d3 = d2 * math.sqrt(d2)
            return [
                -alpha * sq * w / d3,
                -mu * math.exp(-th) + alpha * sq * c2 * math.exp(2 * th) / d3,
            ]

        t_direct = 2.0
        sol = solve_ivp(raw_field, (0.0, t_direct), [th0, w0], rtol=1e-12, atol=1e-14)
        frame = _frame(alpha, g_o)
        p, rs, scale = frame.params, frame.reduced(th0, w0), frame.scale
        assert frame.swapped and p.gamma == pytest.approx(1.25)
        from filcol import IntegrationConfig, integrate

        traj = integrate(
            rs, p, t_direct / scale,
            IntegrationConfig(rel_tol=1e-12, abs_tol=1e-14),
        )
        th_n, w_n = traj.state_final
        assert abs((th_n - 0.5 * math.log(g_o)) - sol.y[0, -1]) < 1e-8
        assert abs(w_n - sol.y[1, -1]) < 1e-8

    def test_full_map_preserves_conserved_sign_flip(self):
        frame = _frame(0.2, 0.5)
        p, full, scale = frame.params, frame.full(1.0, 0.3, 1.1, 0.0), frame.scale
        assert frame.swapped and p.gamma == 2.0 and scale == 2.0
        assert full.r1 == 1.1 and full.z1 == 0.0 and full.r2 == 1.0 and full.z2 == -0.3

    @given(
        alpha=st.floats(0.05, 0.9),
        gamma=st.floats(0.3, 0.95),
        log_r1=st.floats(-0.7, 0.7),
        log_r2=st.floats(-0.7, 0.7),
        z1=st.floats(-1.0, 1.0),
        gap=st.floats(0.4, 1.5),
        above=st.booleans(),
    )
    @settings(max_examples=30)
    def test_full_map_agrees_with_direct_integration(
        self, alpha, gamma, log_r1, log_r2, z1, gap, above
    ):
        # The raw ratio < 1 full field, integrated by scipy, against the
        # renamed-frame run mapped back: (R1, Z1, R2, Z2) at time t/scale is
        # (r2, -z2, r1, -z1) at t.  The axial gap keeps the pair >= 0.4 apart.
        def raw_field(t, y):
            r1, z1, r2, z2 = y
            w, dr = z1 - z2, r1 - r2
            den = (dr * dr + w * w) ** 1.5
            aw, ar = alpha * w / den, alpha * dr / den
            return [-r2 * aw, -gamma / r1 + r2 * ar, -gamma * r1 * aw, 1.0 / r2 + gamma * r1 * ar]

        y0 = [math.exp(log_r1), z1, math.exp(log_r2), z1 - gap if above else z1 + gap]
        sol = solve_ivp(raw_field, (0.0, 1.0), y0, method="DOP853", rtol=1e-12, atol=1e-14)
        assert sol.success
        frame = _frame(alpha, gamma)
        p, full, scale = frame.params, frame.full(*y0), frame.scale
        assert frame.swapped and scale == 1.0 / gamma
        from filcol import IntegrationConfig, integrate

        traj = integrate(full, p, 1.0 / scale, IntegrationConfig(rel_tol=1e-12, abs_tol=1e-14))
        assert traj.outcome.value == "reached-t-end"
        r1, z1, r2, z2 = traj.state_final
        for mapped, direct in zip((r2, -z2, r1, -z1), sol.y[:, -1]):
            assert abs(mapped - direct) <= 1e-8 * max(1.0, abs(direct))

    def test_classify_equivalence_between_frames(self, capsys, tmp_path):
        payload_lo = run_json(
            capsys, tmp_path, "classify", "--alpha", "0.2", "--gamma", "0.9090909090909091",
            "--theta0", "0.2", "--w0", "0.8", name="lo.json",
        )
        shifted = 0.2 + 0.5 * math.log(0.9090909090909091)
        payload_hi = run_json(
            capsys, tmp_path, "classify", "--alpha", "0.2", "--gamma", "1.1",
            "--theta0", str(shifted), "--w0", "0.8", name="hi.json",
        )
        assert payload_lo["gamma_normalized"] is True
        assert payload_lo["verdict"] == payload_hi["verdict"]
        assert payload_lo["h0"] == pytest.approx(payload_hi["h0"], rel=1e-12)
        # Times rescale by 1/gamma when mapping back to the input frame.
        assert payload_lo["t_estimate"] == pytest.approx(
            payload_hi["t_estimate"] / 0.9090909090909091, rel=1e-10
        )

    def test_collision_time_scaling_against_direct_integration(self, capsys, tmp_path):
        # Raw ratio < 1 integration with scipy: blow-up time must match the
        # normalized frame's collision time divided by gamma.  1/1.1 keeps
        # the renamed ratio subcritical, so the pair collides.
        alpha, g_o = 0.2, 1.0 / 1.1
        th0, w0 = 0.0, 1.0

        def raw_field(t, y):
            th, w = y
            sq = math.sqrt(g_o)
            c2 = (sq - 1.0) ** 2
            mu = g_o + 1.0 / sq
            d2 = c2 * math.exp(2 * th) + w * w
            d3 = d2 * math.sqrt(d2)
            return [
                -alpha * sq * w / d3,
                -mu * math.exp(-th) + alpha * sq * c2 * math.exp(2 * th) / d3,
            ]

        def escape(t, y):
            return y[0] + 10.0
        escape.terminal = True
        escape.direction = -1

        sol = solve_ivp(raw_field, (0.0, 100.0), [th0, w0], rtol=1e-11, atol=1e-13,
                        events=escape)
        assert len(sol.t_events[0]) == 1
        t_direct = sol.t_events[0][0]
        payload = run_json(
            capsys, tmp_path, "simulate", "--alpha", "0.2", "--gamma", str(g_o),
            "--theta0", "0", "--w0", "1", "--t-end", "100",
        )
        assert payload["outcome"]["status"] == "collided"
        assert rel_err(payload["outcome"]["time"], t_direct) < 1e-4

    @pytest.mark.parametrize("oracle", [False, True])
    def test_sweep_equivalence_between_frames(self, capsys, tmp_path, oracle):
        # gamma 0.8 runs at 1/0.8 = 1.25 on the theta grid shifted by
        # log(sqrt(0.8)), with its horizon and times scaled by 0.8.
        shift = 0.5 * math.log(0.8)
        grid = ("--alpha", "0.5", "--w-min", "-1", "--w-max", "1",
                "--n-theta", "4", "--n-w", "4", "--format", "json")
        lo = run_json(capsys, tmp_path, "sweep", *grid, "--gamma", "0.8",
                      "--theta-min", "-1", "--theta-max", "1",
                      *(("--with-oracle", "--t-end", "30") if oracle else ()), name="lo.json")
        hi = run_json(capsys, tmp_path, "sweep", *grid, "--gamma", "1.25",
                      "--theta-min", repr(-1 + shift), "--theta-max", repr(1 + shift),
                      *(("--with-oracle", "--t-end", "24") if oracle else ()), name="hi.json")
        assert lo["gamma_normalized"] is True and lo["gamma_input"] == 0.8
        assert "gamma_normalized" not in hi and lo["gamma"] == hi["gamma"] == 1.25
        assert [row["theta0"] for row in lo["rows"][::4]] == linspace(-1.0, 1.0, 4)
        verdicts = {row["verdict"] for row in lo["rows"]}
        assert verdicts == {"asymmetric-collision", "no-collision-subcritical"}
        for a, b in zip(lo["rows"], hi["rows"]):
            assert a["verdict"] == b["verdict"] and a.get("oracle") == b.get("oracle")
            assert a["h0"] == pytest.approx(b["h0"], rel=1e-12)
            if b["t_estimate"] is None:
                assert a["t_estimate"] is None
            else:
                assert a["t_estimate"] == pytest.approx(b["t_estimate"] / 0.8, rel=1e-12)
        if oracle:
            assert lo["agreement_rate"] == hi["agreement_rate"]

    def test_theta_star_equivalence_between_frames(self, capsys, tmp_path):
        # theta-star answers in the renamed frame: 0.8 gives 1.25's angle.
        argv = ("theta-star", "--alpha", "0.5", "--h0", "0.1")
        lo = run_json(capsys, tmp_path, *argv, "--gamma", "0.8", name="lo.json")
        hi = run_json(capsys, tmp_path, *argv, "--gamma", "1.25", name="hi.json")
        assert lo["gamma_normalized"] is True and lo["gamma_input"] == 0.8
        assert hi["gamma_normalized"] is False and lo["gamma"] == hi["gamma"] == 1.25
        assert lo["theta_star"] == pytest.approx(hi["theta_star"], rel=1e-12)

    def test_nonpositive_gamma_rejected(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--alpha", "0.2", "--gamma", "0",
                               "--theta0", "0", "--w0", "1")
        assert code == 2
        assert "gamma" in err


class TestThetaStarCommand:
    def test_value_matches_library(self, capsys, tmp_path):
        from filcol import Params, theta_star

        payload = run_json(
            capsys, tmp_path, "theta-star", "--alpha", "0.2", "--gamma", "1.1",
            "--h0", "0.1",
        )
        assert payload["theta_star"] == pytest.approx(theta_star(Params(0.2, 1.1), 0.1))

    def test_out_of_regime_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "theta-star", "--alpha", "0.2", "--gamma", "2.0",
                             "--h0", "0.1")
        assert code == 2

    def test_renamed_ratio_out_of_regime_names_the_typed_ratio(self, capsys):
        # 0.8 renames to 1.25, above gamma_star(0.2); the message gives the
        # input frame's range (1/gamma_star, 1) and the ratio as typed.
        code, out, err = run_cli(capsys, "theta-star", "--alpha", "0.2", "--gamma", "0.8",
                                 "--h0", "0.01")
        assert code == 2 and out == ""
        assert err == ("error: need gamma strictly inside "
                       "(1/gamma_star=0.820583184747081, 1), got 0.8\n")
