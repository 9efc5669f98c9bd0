"""Acceptance battery: one test per criterion, a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criteria 02 and 07 check the forms re-derived from the equations of
motion.  The stated constants they replace, the collision time
``2*W0**2/alpha`` and the corridor with swapped endpoints, are recorded
discrepancies: the re-derivations, the adaptive integrator, and an
independent scipy integration of the raw 4-D field (criterion 02) agree
with each other and not with them.  The ``filcol verify`` report carries
the same comparisons, and each test's PASS/FAIL line prints the stated
value next to the checked one.  The ``*_rederived`` companions check the
same configurations through the library's own estimates.
"""

from __future__ import annotations

import math
import random
import time

from scipy.integrate import solve_ivp

from filcol import (
    FullState,
    HyperbolicState,
    IntegrationConfig,
    Params,
    ReducedState,
    SimStatus,
    ansatz_residual,
    apriori_corridor,
    collision_time,
    gamma_star,
    hyperbolic_separation,
    integrate,
    no_collision_certificate,
    reduce_state,
    run_battery,
    simulate_until_collision,
)
from filcol.analysis import axis_energy, quartic
from filcol.verify import CHECKS, h0_zero_w, mid_subcritical_gamma

from conftest import rel_err

ALPHA = 0.2
CFG = IntegrationConfig(rel_tol=1e-10, abs_tol=1e-12)

# Conservation probes registered by the criteria as they run; criterion 06
# asserts over them together with its own designated battery, and the
# criteria that run after it check their own probes against its limits.
_DRIFTS: list[tuple[str, str, float]] = []
_DRIFT_LIMITS = {"H": 1e-8, "d": 1e-9}


def _record_drift(label: str, traj) -> bool:
    """Register traj's drift probes; True when each is under its limit."""
    ok = True
    for name, value in traj.drift.items():
        _DRIFTS.append((label, name, value))
        ok = ok and value < _DRIFT_LIMITS[name]
    return ok


def _line(num: int, ok: bool, detail: str) -> str:
    text = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(text)
    return text


def test_criterion_01_gamma_star_threshold():
    gamma_star(0.15)  # warm-up so timing excludes interpreter start-up costs
    t0 = time.perf_counter()
    gs = gamma_star(ALPHA)
    elapsed = time.perf_counter() - t0
    residual = abs(quartic(math.sqrt(gs), ALPHA))
    ok = abs(gs - 1.219) <= 1e-3 and residual < 1e-12 and elapsed < 1e-3
    msg = _line(1, ok, f"gamma_star(0.2)={gs:.10f}, residual={residual:.2e}, "
                       f"runtime={elapsed*1e3:.3f}ms")
    assert abs(gs - 1.219) <= 1e-3, msg
    assert residual < 1e-12, msg
    assert elapsed < 1e-3, msg


def test_criterion_02_exact_collision_time_printed_target():
    # Equal circulations at zero energy, alpha = 0.5, theta0 = log 4,
    # W0 = 1.  The stated target 2*W0**2/alpha = 4.0 is a recorded
    # discrepancy (README "Known discrepancies" 1, also reported by
    # ``filcol verify`` as check gamma1-exact-time).  On this level the
    # energy relation gives dW/dt = -alpha/W, so W**2 = W0**2 - 2*alpha*t
    # vanishes at W0**2/(2*alpha) = 1.0: that closed form is the target.
    p = Params(0.5, 1.0)
    rs = ReducedState(math.log(4.0), 1.0)
    result, traj = simulate_until_collision(rs, p, CFG, t_end=30.0)
    assert result.status is SimStatus.COLLIDED
    target = rs.w**2 / (2.0 * p.alpha)
    stated = 2.0 * rs.w**2 / p.alpha

    # Independent check: integrate the raw 4-D field from the full state
    # (R1, z1, R2, z2) = (4, 0.5, 4, -0.5) with scipy.  W falls to zero
    # with infinite speed, so a step need not land past W = 0; the event
    # fires at W = 1e-6*W0 instead, which the closed form reaches only
    # (1e-6*W0)**2/(2*alpha) = 1e-12 before the collision.
    w_hit = 1e-6 * rs.w

    def raw_field(t, y):
        r1, z1, r2, z2 = y
        w = z1 - z2
        dr = r1 - r2
        den = (dr * dr + w * w) ** 1.5
        return [
            -p.alpha * r2 * w / den,
            -p.gamma / r1 + p.alpha * r2 * dr / den,
            -p.alpha * p.gamma * r1 * w / den,
            1.0 / r2 + p.alpha * p.gamma * r1 * dr / den,
        ]

    def gap(t, y):
        return y[1] - y[3] - w_hit

    gap.terminal = True
    gap.direction = -1
    sol = solve_ivp(raw_field, (0.0, 30.0),
                    [4.0, 0.5, 4.0, -0.5], method="DOP853",
                    rtol=1e-12, atol=1e-14, events=gap)
    assert sol.status == 1 and len(sol.t_events[0]) == 1, sol.message
    t_scipy = sol.t_events[0][0]

    ok = rel_err(result.time, target) <= 1e-5 and abs(t_scipy - target) <= 1e-5
    msg = _line(2, ok, f"detected={result.time:.10f}, scipy 4-D={t_scipy:.10f} vs "
                       f"W0^2/(2 alpha)={target} (stated target {stated})")
    assert ok, msg


def test_criterion_02_exact_collision_time_rederived():
    p = Params(0.5, 1.0)
    rs = ReducedState(math.log(4.0), 1.0)
    t0 = time.perf_counter()
    result, traj = simulate_until_collision(rs, p, CFG, t_end=30.0)
    elapsed = time.perf_counter() - t0
    est = collision_time(rs, p)
    derived = rs.w**2 / (2.0 * p.alpha)
    ok = (
        result.status is SimStatus.COLLIDED
        and rel_err(result.time, derived) <= 1e-5
        and rel_err(est.value, derived) <= 1e-12
        and elapsed < 1.0
    )
    msg = _line(2, ok, f"(re-derived) detected={result.time:.10f} vs "
                       f"W0^2/(2 alpha)={derived}, runtime={elapsed:.2f}s")
    assert ok, msg


def test_criterion_03_implicit_collision_time_50_states():
    # Each state's estimate must be exact and its oracle run
    # must collide; the check fails on the first state that does not.
    t0 = time.perf_counter()
    check = CHECKS["gamma1-implicit-time"](ALPHA, CFG, samples=50, grid=None, seed=314159)
    elapsed = time.perf_counter() - t0
    m = check["measured"]
    ok = check["passed"] and elapsed < 30.0
    msg = _line(3, ok, f"50 states, max rel err={m.get('max_rel_error', math.nan):.2e}, "
                       f"runtime={elapsed:.1f}s" + ("" if check["passed"] else f", {m}"))
    assert ok, msg


def test_criterion_04_classifier_oracle_agreement():
    # The check runs 20x20 grids at gamma 1, mid-subcritical, critical and
    # 2, and fails unless each grid returns all 400 rows in agreement.
    t0 = time.perf_counter()
    check = CHECKS["classifier-oracle"](ALPHA, CFG, samples=None, grid=20)
    elapsed = time.perf_counter() - t0
    m = check["measured"]
    ok = check["passed"] and elapsed < 300.0
    msg = _line(4, ok, f"4 x 20x20 grids, disagreements={m['n_disagreements']}, "
                       f"collided={m['n_collided']}, survived={m['n_survived']}, "
                       f"inconclusive={m['n_inconclusive']}, runtime={elapsed:.1f}s"
                       + (f", first={m['disagreements'][:3]}" if m["n_disagreements"] else ""))
    assert ok, msg


def test_criterion_05_bound_domination():
    # A state fails when its estimate is not an upper bound, its oracle run
    # does not collide, or it collides after the bound.
    t0 = time.perf_counter()
    check = CHECKS["bound-domination"](ALPHA, CFG, samples=100, grid=None, seed=271828)
    elapsed = time.perf_counter() - t0
    m = check["measured"]
    violations = m["failures"]
    min_margin = min(m["min_margin"].values())
    ok = check["passed"] and elapsed < 300.0
    msg = _line(5, ok, f"3 x 100 states, violations={len(violations)}, "
                       f"min margin={min_margin:.3f}, runtime={elapsed:.1f}s"
                       + (f", first={violations[:2]}" if violations else ""))
    assert ok, msg


def test_criterion_06_conservation():
    # Designated conservation battery at rel_tol 1e-10.  Collision runs are
    # measured over [0, 0.95 T]: inside the blow-up tail the energy's
    # gradient diverges, so no drift figure there reflects solver quality.
    probes_full = [
        ("equal-rings approach", Params(0.5, 1.0), FullState(4.0, 0.5, 4.0, -0.5), 0.95),
        ("supercritical full", Params(ALPHA, 2.0), FullState(1.0, 1.0, math.sqrt(2.0), 0.0), 50.0),
        ("generic full", Params(0.3, 1.3), FullState(1.0, 0.8, 1.2, 0.0), 20.0),
    ]
    for label, p, s, t_end in probes_full:
        traj = integrate(s, p, t_end, CFG)
        _record_drift(label, traj)

    p_mid = Params(ALPHA, mid_subcritical_gamma(ALPHA))
    rs_mid = ReducedState(0.5, h0_zero_w(p_mid, 0.5))
    t_mid = collision_time(rs_mid, p_mid).value
    # The critical-branch estimate is only an upper bound, so cut that
    # probe relative to the detected collision time.
    p_crit = Params(ALPHA, gamma_star(ALPHA))
    rs_crit = ReducedState(0.3, 1.0)
    t_crit = simulate_until_collision(rs_crit, p_crit, CFG, t_end=5.0)[0].time
    probes_reduced = [
        ("equal-rings partial collision", Params(0.5, 1.0), ReducedState(math.log(4.0), 1.0), 0.95),
        ("subcritical partial collision", p_mid, rs_mid, 0.95 * t_mid),
        ("critical partial collision", p_crit, rs_crit, 0.9 * t_crit),
        ("supercritical reduced", Params(ALPHA, 2.0), ReducedState(0.0, 1.0), 50.0),
        ("equal-rings receding", Params(0.5, 1.0), ReducedState(0.0, -1.0), 50.0),
    ]
    for label, p, rs, t_end in probes_reduced:
        traj = integrate(rs, p, t_end, CFG)
        _record_drift(label, traj)

    p2 = Params(ALPHA, 2.0)
    for label, full in [("hyperbolic d>0", FullState(1.0, 0.6, 1.1, 0.0)),
                        ("hyperbolic d<0", FullState(0.8, 0.6, 1.4, 0.0))]:
        hs = reduce_state(full, p2)
        traj = integrate(hs, p2, 100.0, CFG)
        _record_drift(label, traj)

    worst_h = max((v for _, k, v in _DRIFTS if k == "H"), default=0.0)
    worst_d = max((v for _, k, v in _DRIFTS if k == "d"), default=0.0)
    ok = worst_h < 1e-8 and worst_d < 1e-9
    msg = _line(6, ok, f"{len(_DRIFTS)} probes, max H drift={worst_h:.2e} (<1e-8), "
                       f"max d drift={worst_d:.2e} (<1e-9)")
    assert ok, msg


def test_criterion_07_supercritical_corridor_printed_endpoints():
    # Supercritical corridor at alpha = 0.2, gamma = 2 from (0, 1), with
    # the slopes computed here from theta_lo/theta_hi.  As documented in
    # ``apriori_corridor``, W' is bounded below by -mu*exp(-theta_lo) and
    # above by the coplanar energy at theta_hi, which is also the descent
    # line.  The stated assignment swaps the endpoints (lower slope
    # -mu*exp(-theta_hi) = H0, upper slope -|f(theta_lo)| = e*H0): it is a
    # recorded discrepancy (README "Known discrepancies" 4, also reported
    # by ``filcol verify`` as check corridor) and bounds nothing, which is
    # asserted below.
    p = Params(ALPHA, 2.0)
    rs = ReducedState(0.0, 1.0)
    cor = apriori_corridor(rs, p)
    f_lo = axis_energy(cor.theta_lo, p)
    f_hi = axis_energy(cor.theta_hi, p)
    lower_slope = -p.mu * math.exp(-cor.theta_lo)
    upper_slope = -abs(f_hi)
    stated_lower_slope = -p.mu * math.exp(-cor.theta_hi)
    stated_upper_slope = -abs(f_lo)
    stated_empty = stated_lower_slope > stated_upper_slope
    traj = integrate(rs, p, 50.0, CFG)
    inside = all(
        rs.w + lower_slope * t - 1e-9 <= s[1] <= rs.w + upper_slope * t + 1e-9
        for t, s in zip(traj.times, traj.states)
    )
    w50 = traj.state_final[1]
    descent = w50 < rs.w + 50.0 * upper_slope
    ok = inside and descent and stated_empty
    msg = _line(7, ok, f"slopes [{lower_slope:.3f}, {upper_slope:.3f}], "
                       f"inside={inside}, W(50)={w50:.3f} < "
                       f"{rs.w + 50.0 * upper_slope:.3f}: {descent}; stated slopes "
                       f"[{stated_lower_slope:.3f}, {stated_upper_slope:.3f}] "
                       f"empty: {stated_empty}")
    assert ok, msg


def test_criterion_07_supercritical_corridor_rederived():
    p = Params(ALPHA, 2.0)
    rs = ReducedState(0.0, 1.0)
    cor = apriori_corridor(rs, p)
    traj = integrate(rs, p, 50.0, CFG)
    drift_ok = _record_drift("corridor run", traj)
    inside = all(
        cor.lower_bound(rs.w, t) - 1e-9 <= s[1] <= cor.upper_bound(rs.w, t) + 1e-9
        for t, s in zip(traj.times, traj.states)
    )
    f_hi = axis_energy(cor.theta_hi, p)
    w50 = traj.state_final[1]
    descent = w50 < rs.w - 50.0 * abs(f_hi)
    ok = inside and descent and cor.lower_slope <= cor.upper_slope < 0.0 and drift_ok
    msg = _line(7, ok, f"(re-derived) inside={inside}, W(50)={w50:.3f} < "
                       f"{rs.w - 50.0 * abs(f_hi):.3f}: {descent}, "
                       f"H drift={traj.drift['H']:.2e} (<1e-8)")
    assert ok, msg


def test_criterion_08_nonzero_d_no_collision_certificate():
    p = Params(ALPHA, 2.0)
    cases = {
        "d>0": FullState(1.0, 0.6, 1.1, 0.0),
        "d>0 coplanar": FullState(2.0, 0.0, 1.0, 0.0),
        "d<0": FullState(0.8, 0.6, 1.4, 0.0),
    }
    details = []
    ok = True
    for label, full in cases.items():
        hs = reduce_state(full, p)
        assert isinstance(hs, HyperbolicState)
        cert = no_collision_certificate(hs, p)
        traj = integrate(hs, p, 100.0, CFG)
        drift_ok = _record_drift(f"certificate {label}", traj)
        min_seen = min(
            hyperbolic_separation(s[0], s[1], hs.d, p.gamma) for s in traj.states
        )
        good = cert.min_separation > 0.0 and min_seen >= cert.min_separation * (1.0 - 1e-6)
        ok = ok and good and drift_ok
        details.append(f"{label}: cert={cert.min_separation:.4f} seen={min_seen:.4f} "
                       f"H drift={traj.drift['H']:.2e}")
    msg = _line(8, ok, "; ".join(details))
    assert ok, msg


def test_criterion_09_ansatz_exactness_100_states():
    rng = random.Random(161803)
    worst = 0.0
    for _ in range(100):
        gamma = rng.choice([1.0, 1.0 + 0.3 * rng.random(), 1.0 + 3.0 * rng.random()])
        p = Params(rng.uniform(0.05, 0.95), gamma)
        s = FullState(
            math.exp(rng.uniform(-1.0, 1.5)),
            rng.uniform(-2.0, 2.0),
            math.exp(rng.uniform(-1.0, 1.5)),
            rng.uniform(-2.0, 2.0),
        )
        worst = max(worst, ansatz_residual(s, p, n_samples=16))
    ok = worst < 1e-10
    msg = _line(9, ok, f"100 random states, max residual={worst:.2e} (<1e-10)")
    assert ok, msg


def test_criterion_10_discrepancy_report():
    report = run_battery(
        alpha=ALPHA,
        selection=["subcritical-h0zero-discrepancy", "gamma1-exact-time",
                   "critical-bound-discrepancy"],
    )
    by_name = {c["name"]: c for c in report["checks"]}

    sub = by_name["subcritical-h0zero-discrepancy"]
    m = sub["measured"]
    match = rel_err(m["detected"], m["derived_value"]) <= 1e-5
    factor2 = math.isclose(m["derived_over_printed"], 2.0, rel_tol=1e-12)
    ok = sub["passed"] and match and factor2

    # The report also carries the equal-circulation (factor 4) and
    # critical-bound (exponent) comparisons measured the same way.
    g1 = by_name["gamma1-exact-time"]["measured"]
    crit = by_name["critical-bound-discrepancy"]["measured"]
    ok = ok and not g1["printed_matches_oracle"] and g1["printed_over_derived"] == 4.0
    ok = ok and crit["derived_dominates"] and not crit["printed_dominates"]

    msg = _line(10, ok,
                f"detected={m['detected']:.8f} vs derived={m['derived_value']:.8f} "
                f"(printed is exactly half); equal-circulation printed/derived="
                f"{g1['printed_over_derived']}; critical printed bound dominates: "
                f"{crit['printed_dominates']}")
    assert ok, msg
