"""Integrator: adaptivity, stop predicates, blow-up handling, drift, collision driver."""

from __future__ import annotations

import dataclasses
import math
import random
import sys
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

import filcol.dynamics as dynamics
from filcol import (
    CollisionResult,
    ConfigInvalid,
    DomainError,
    FilcolError,
    FullState,
    HyperbolicState,
    IntegrationConfig,
    IntegrationStats,
    InvalidInitialState,
    NumericalFailure,
    OnSingularLine,
    Outcome,
    Params,
    ReducedState,
    SimStatus,
    StepLimitExceeded,
    SystemKind,
    classify,
    collision_time,
    gamma_star,
    integrate,
    reduce_state,
    simulate_until_collision,
)
from filcol.dynamics import (
    full_field,
    hyperbolic_field,
    k_sign,
    reduced_field,
    time_to_axis,
)
from filcol.integrate import _STEPPERS, _step_2d, _step_3d, _step_4d

integrate_module = sys.modules["filcol.integrate"]
from filcol.verify import classifier_oracle_grid, h0_zero_w, mid_subcritical_gamma

from conftest import log_slope, rel_err, w_falls_all_the_way

CFG = IntegrationConfig(rel_tol=1e-10, abs_tol=1e-12)

# The equal-circulation zero-energy benchmark: theta0 = log 4, W0 = 1,
# alpha = 1/2 puts the state on the zero level, where the gap follows
# W**2 = W0**2 - 2*alpha*t and vanishes at t = 1.
P_BENCH = Params(0.5, 1.0)
RS_BENCH = ReducedState(math.log(4.0), 1.0)
T_BENCH = 1.0


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            IntegrationConfig(rel_tol=0.0)
        with pytest.raises(ConfigInvalid):
            IntegrationConfig(h_min=1e-3, h_init=1e-4)
        with pytest.raises(ConfigInvalid):
            IntegrationConfig(max_steps=0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
    def test_tolerances_must_be_finite(self, name, bad):
        # An infinite tolerance accepts every attempt: no error control at all.
        with pytest.raises(ConfigInvalid, match="positive and finite"):
            IntegrationConfig(**{name: bad})

    def test_bad_initial_state(self):
        with pytest.raises(InvalidInitialState):
            integrate(ReducedState(0.0, 0.0), P_BENCH, 1.0, CFG)
        with pytest.raises(InvalidInitialState):
            integrate(RS_BENCH, P_BENCH, -1.0, CFG)

    @pytest.mark.parametrize("y0", [(0.0, 1.0), [1.0, 0.5, 1.1, 0.0], None])
    def test_plain_sequence_state_rejected(self, y0):
        # The state's type names the system; a bare sequence names none.
        with pytest.raises(InvalidInitialState):
            integrate(y0, P_BENCH, 1.0, CFG)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_state_dataclasses_reject_non_finite_components(self, bad):
        for make, n in ((ReducedState, 2), (HyperbolicState, 3), (FullState, 4)):
            ok = (0.5, 0.25, 2.0, 0.1)[:n]
            for i in range(n):
                with pytest.raises(DomainError):
                    make(*ok[:i], bad, *ok[i + 1:])

    def test_collision_driver_needs_the_d0_chart(self):
        p = Params(0.2, 1.4)
        full = FullState(1.0, 0.8, 1.2, 0.0)
        for y0 in (full, reduce_state(full, p)):
            with pytest.raises(ConfigInvalid):
                simulate_until_collision(y0, p, CFG)
        # Without a stop rule the full chart runs and records no stop.
        traj = integrate(full, p, 1.0, CFG)
        assert traj.outcome is Outcome.REACHED_T_END and traj.stop is None


def separation_stop(rs: ReducedState, p: Params, fraction: float):
    """A stop predicate with the driver's separation rule at fraction*D0,
    armed everywhere: the benchmark level reaches the axis."""
    d0 = separation(p, rs.astuple())

    def stop(y):
        if y[1] > 0.0 and separation(p, y) <= fraction * d0:
            return "separation-below"
        return None

    return stop


def assert_separation_stop(traj, p: Params, fraction: float) -> None:
    """The run ended at the first accepted point where D <= fraction*D0, on
    the armed W > 0 branch, and the separation rule stopped it there."""
    d0 = separation(p, traj.states[0])
    assert traj.outcome is Outcome.EVENT_TERMINATED
    assert separation(p, traj.states[-2]) > fraction * d0 >= separation(p, traj.state_final)
    assert traj.state_final[1] > 0.0
    assert traj.stop == "separation-below"


class TestStopPredicate:
    def test_separation_rule_stops_at_the_first_point_past_the_level(self):
        # gamma = 1: D = |W| and W**2 = W0**2 - 2*alpha*t, so D falls to
        # 1e-3*D0 at t = 1 - 1e-6; the run stops at the accepted point just
        # past it, on the exact level to the integrator's accuracy.
        traj = integrate(RS_BENCH, P_BENCH, 10.0, CFG, separation_stop(RS_BENCH, P_BENCH, 1e-3))
        assert_separation_stop(traj, P_BENCH, 1e-3)
        assert T_BENCH - 1e-6 <= traj.t_final < T_BENCH
        assert rel_err(traj.state_final[1], math.sqrt(T_BENCH - traj.t_final)) < 1e-5

    def test_stop_times_strictly_inside_run(self):
        traj = integrate(RS_BENCH, P_BENCH, 10.0, CFG, separation_stop(RS_BENCH, P_BENCH, 0.5))
        assert_separation_stop(traj, P_BENCH, 0.5)
        assert all(b > a for a, b in zip(traj.times, traj.times[1:]))


class TestAdaptivity:
    def test_supercritical_run_reaches_horizon_with_small_drift(self):
        p = Params(0.2, 2.0)
        traj = integrate(ReducedState(0.0, 1.0), p, 50.0, CFG)
        assert traj.outcome is Outcome.REACHED_T_END
        assert traj.drift["H"] < 1e-8

    def test_critical_equilibrium_is_stationary(self):
        # The computed critical ratio leaves a round-off residual field of
        # about 1e-15, so constancy to 1e-12 is asserted over a few units.
        p = Params(0.2, gamma_star(0.2))
        rs = ReducedState(0.3, 0.0)
        traj = integrate(rs, p, 5.0, CFG)
        assert traj.outcome is Outcome.REACHED_T_END
        assert abs(traj.state_final[0] - 0.3) < 1e-12
        assert abs(traj.state_final[1]) < 1e-12

    def test_convergence_order_at_least_four(self):
        # Across a tolerance ladder, end-state error against a tight
        # reference scales with the mean accepted step like an order >= 4
        # method (the pair advances at order 5).
        p = Params(0.2, 2.0)
        rs = ReducedState(0.0, 1.0)
        t_end = 5.0
        ref = integrate(
            rs, p, t_end,
            IntegrationConfig(rel_tol=1e-13, abs_tol=1e-14),
        ).state_final
        hs, errs = [], []
        for tol in (1e-4, 1e-5, 1e-6, 1e-7):
            traj = integrate(
                rs, p, t_end,
                IntegrationConfig(rel_tol=tol, abs_tol=1e-14),
            )
            err = max(abs(a - b) for a, b in zip(traj.state_final, ref))
            h_mean = t_end / traj.stats.accepted
            hs.append(h_mean)
            errs.append(max(err, 1e-16))
        assert log_slope(hs, errs) >= 4.0

    def test_step_limit(self):
        cfg = IntegrationConfig(rel_tol=1e-10, abs_tol=1e-12, max_steps=10)
        with pytest.raises(StepLimitExceeded):
            integrate(ReducedState(0.0, 1.0), Params(0.2, 2.0), 50.0, cfg)

    def test_matches_independent_integrator(self):
        p = Params(0.2, 2.0)
        rs = ReducedState(0.0, 1.0)
        traj = integrate(rs, p, 5.0, CFG)
        field = reduced_field(p)
        sol = solve_ivp(
            lambda t, y: list(field(*y)), (0, 5.0), list(rs.astuple()),
            rtol=1e-12, atol=1e-14,
        )
        for got, want in zip(traj.state_final, sol.y[:, -1]):
            assert abs(got - want) < 1e-7


class TestBlowUp:
    def test_singularity_manifests_as_step_collapse_not_nan(self):
        traj = integrate(RS_BENCH, P_BENCH, 10.0, CFG)
        assert traj.outcome is Outcome.STEP_COLLAPSED
        assert all(math.isfinite(v) for s in traj.states for v in s)
        assert abs(traj.t_final - T_BENCH) < 1e-8
        # Steps shrink into the singularity.
        steps = [b - a for a, b in zip(traj.times, traj.times[1:])]
        tail = steps[-20:]
        assert tail[-1] < 1e-10
        assert max(tail) < 1e-4

    def test_step_collapse_records_no_event(self):
        # The outcome names the collapse; no stop rule held, so no stop.
        traj = integrate(RS_BENCH, P_BENCH, 10.0, CFG)
        assert traj.outcome is Outcome.STEP_COLLAPSED and traj.stop is None
        _, traj = simulate_until_collision(ReducedState(0.0, 1e-100), P_BENCH, CFG, t_end=20.0)
        assert traj.outcome is Outcome.STEP_COLLAPSED and traj.stop is None

    def test_an_unbounded_run_ends_by_a_rule_or_collapse(self):
        # t_end = inf: no horizon, so the separation rule ends the run; with
        # no rule it runs on into the singularity and collapses.
        traj = integrate(RS_BENCH, P_BENCH, math.inf, CFG, separation_stop(RS_BENCH, P_BENCH, 0.5))
        assert_separation_stop(traj, P_BENCH, 0.5)
        traj = integrate(RS_BENCH, P_BENCH, math.inf, CFG)
        assert traj.outcome is Outcome.STEP_COLLAPSED and abs(traj.t_final - T_BENCH) < 1e-8
        for bad in (math.nan, -math.inf):
            with pytest.raises(InvalidInitialState):
                integrate(RS_BENCH, P_BENCH, bad, CFG)


class TestReflectionSymmetry:
    def test_reversal_reproduces_trajectory(self):
        # If (theta, W)(t) solves the system, so does (theta, -W)(-t):
        # integrating forward from the reflected endpoint returns to the
        # reflected start.
        p = Params(0.2, 1.4)
        rs = ReducedState(0.1, 1.2)
        t_end = 3.0
        fwd = integrate(rs, p, t_end, CFG)
        th_e, w_e = fwd.state_final
        back = integrate(ReducedState(th_e, -w_e), p, t_end, CFG)
        assert abs(back.state_final[0] - rs.theta) < 1e-8
        assert abs(back.state_final[1] + rs.w) < 1e-8


class TestCollisionDriver:
    def test_negative_energy_subcritical_collides_within_bound(self):
        p = Params(0.2, 1.1)
        rs = ReducedState(0.0, 1.0)
        est = collision_time(rs, p)
        result, traj = simulate_until_collision(rs, p, CFG, t_end=2 * est.value + 20.0)
        assert result.status is SimStatus.COLLIDED
        assert result.time <= est.value

    def test_receding_rings_survive(self):
        # W0 < 0 at equal circulation: the witness holds at the start.
        result, traj = simulate_until_collision(ReducedState(0.0, -1.0), P_BENCH, CFG, t_end=50.0)
        assert result == CollisionResult(SimStatus.SURVIVED, 0.0)
        assert traj.stop == "survival-witness" and traj.times == [0.0]

    @pytest.mark.parametrize("w0", [-1e-3, -1e-110])
    def test_receding_gamma1_start_has_one_answer(self, w0):
        # Below |v| of about 1.4e-108 the flow's field would reject the start,
        # but the witness decides it first: the same one-point run as at -1e-3,
        # with the verdict the grid gives and no field call.
        p, rs = Params(0.2, 1.0), ReducedState(0.0, w0)
        result, traj = simulate_until_collision(rs, p, CFG)
        assert result == CollisionResult(SimStatus.SURVIVED, 0.0)
        assert traj.system is SystemKind.REDUCED
        assert traj.times == [0.0] and traj.states == [(0.0, w0)]
        assert traj.stop == "survival-witness" and traj.outcome is Outcome.EVENT_TERMINATED
        assert traj.stats == IntegrationStats()
        assert integrate_module.oracle_verdicts(p, [rs], CFG) == [
            (SimStatus.SURVIVED, "survival-witness")]

    @pytest.mark.parametrize("theta0", [400.0, 720.0])
    def test_gamma1_runs_where_exp_theta_overflows(self, theta0):
        # D = |W| at gamma = 1: exp(2*theta0), and at 720 exp(theta0) too,
        # overflow.  v = W*exp(-theta0) is below 1.4e-108, where the flow's
        # field is not finite, so the run goes in the (theta, W) chart with no
        # rule, to its horizon.
        result, traj = simulate_until_collision(ReducedState(theta0, 1.0), P_BENCH, CFG,
                                                t_end=5.0)
        assert result.status is SimStatus.SURVIVED and result.time == 5.0
        assert traj.stop is None
        # The flow's rejected start adds its one field call to the chart's.
        assert traj.stats.f_evals == 1 + 1 + 6 * traj.stats.attempts

    def test_collision_time_matches_exact_value(self):
        # The run stops at D = 0.25*D0; the closed-form time to the axis
        # from the last accepted point restores W0**2/(2*alpha).
        result, traj = simulate_until_collision(RS_BENCH, P_BENCH, CFG, t_end=20.0)
        assert result.status is SimStatus.COLLIDED
        assert traj.outcome is Outcome.EVENT_TERMINATED
        assert traj.stop == "separation-below"
        assert traj.t_final < T_BENCH
        assert rel_err(result.time, T_BENCH) < 1e-9

    @pytest.mark.parametrize("excess", [1e-3, 1e-6])
    def test_near_miss_above_gamma_star_survives(self, excess):
        # Just above gamma_star the orbit passes the axis (at D/D0 = 3.0e-5
        # for excess 1e-3): D falls through 0.25*D0, and 1e-3*D0, while W
        # is still positive, but the level never reaches D = 0, so the
        # separation rule stays unarmed and the pair threads through, to
        # recede for good: the witness ends the run once W < 0.
        p = Params(0.2, gamma_star(0.2) + excess)
        result, traj = simulate_until_collision(ReducedState(-2.0, 2.0), p, CFG, t_end=400.0)
        assert result.status is SimStatus.SURVIVED and traj.stop == "survival-witness"
        assert result.time == traj.t_final < 400.0 and traj.state_final[1] < 0.0
        c = math.sqrt(p.offset2)
        seps = [math.hypot(c * math.exp(th), w) for th, w in traj.states]
        assert any(d < 1e-3 * seps[0] and s[1] > 0.0 for d, s in zip(seps, traj.states))

    def test_times_match_quadrature_of_the_level(self):
        # t = int_0^{u0} a2g*s ds / (m(s)**2 * sqrt(bracket(s))) with
        # u0 = exp(theta0), evaluated by scipy quad in v = sqrt(s).
        rng = random.Random(11)
        worst = 0.0
        for alpha in (0.05, 0.3, 0.7):
            gs = gamma_star(alpha)
            for gamma in (1.0, 1.0 + 0.5 * (gs - 1.0), gs):
                p = Params(alpha, gamma)
                energy = dynamics.reduced_energy(p)
                a2g, c2, mu = alpha * alpha * gamma, p.offset2, p.mu
                k = a2g - c2 * mu * mu
                n = 0
                while n < 2:
                    rs = ReducedState(rng.uniform(-1.5, 1.5), rng.uniform(0.05, 2.0))
                    h0 = energy(rs.theta, rs.w)
                    if not classify(rs, p).predicts_collision:
                        continue
                    n += 1

                    def integrand(v):
                        s = v * v
                        m = mu + h0 * s
                        bracket = max(k - c2 * h0 * s * (2.0 * mu + h0 * s), 0.0)
                        return 2.0 * a2g * v ** 3 / (m * m * math.sqrt(bracket))

                    want, _ = quad(integrand, 0.0, math.exp(0.5 * rs.theta),
                                   epsabs=0.0, epsrel=1e-13, limit=200)
                    result, _ = simulate_until_collision(rs, p, CFG, t_end=2.0 * want + 20.0)
                    assert result.status is SimStatus.COLLIDED, (alpha, gamma, rs)
                    worst = max(worst, rel_err(result.time, want))
        assert worst < 1e-9

    def test_rise_before_the_event_is_inconclusive(self):
        # Right of the separatrix the gap first opens: 0 < v < v_star, so W
        # rises at the start, and the run stops there, undecided, with no step.
        p = Params(0.2, 1.1)
        th0 = 3.5
        rs = ReducedState(th0, 0.2 * h0_zero_w(p, th0))
        mc = classify(rs, p)
        assert mc.h0 > 0.0 and th0 > mc.theta_star
        result, traj = simulate_until_collision(rs, p, CFG, t_end=2000.0)
        assert traj.outcome is Outcome.EVENT_TERMINATED and traj.stop == "w-rose"
        assert result.status is SimStatus.INCONCLUSIVE
        assert result.time == traj.t_final == 0.0 and traj.stats.attempts == 0

    @pytest.mark.parametrize("fraction", [0.5, 0.9])
    def test_band_state_stops_at_the_rise(self, fraction):
        # -v0 < v < 0: the receding branch turns back, crosses W = 0 and
        # blows up at the axis, no collision in the defined sense.  Inside
        # the band |v| < v_star, W rises at once (the run ends at its start);
        # nearer -v0 it first falls, and the run ends at the first accepted
        # point where it rises.
        p = Params(0.2, mid_subcritical_gamma(0.2))
        rs = ReducedState(0.5, -fraction * h0_zero_w(p, 0.5))
        result, traj = simulate_until_collision(rs, p, CFG)
        assert traj.stop == "w-rose" and result.status is SimStatus.INCONCLUSIVE
        field = reduced_field(p)
        rising = [field(*y)[1] > 0.0 for y in traj.states]
        assert rising[-1] and not any(rising[:-1])
        assert (traj.stats.attempts == 0) is (fraction * p.v0 < p.v_star)

    @pytest.mark.parametrize("gamma", [1.0, 1.1, None])
    def test_remaining_time_from_the_last_accepted_point(self, gamma):
        # The run stops at the first accepted point past 0.25*D0; the
        # closed-form part starts there, on that point's own level.
        p = Params(0.2, gamma_star(0.2) if gamma is None else gamma)
        result, traj = simulate_until_collision(ReducedState(0.3, 0.8), p, CFG, t_end=200.0)
        assert result.status is SimStatus.COLLIDED
        assert_separation_stop(traj, p, 0.25)
        t_rem = time_to_axis(p, *traj.state_final)
        assert result.remaining_time == t_rem > 0.0
        assert result.time == traj.t_final + t_rem

    def test_no_remaining_time_unless_collided(self):
        survived, _ = simulate_until_collision(ReducedState(0.0, -1.0), P_BENCH, CFG, t_end=5.0)
        assert survived.status is SimStatus.SURVIVED and survived.remaining_time == 0.0
        p = Params(0.2, 1.1)
        rs = ReducedState(3.5, 0.2 * h0_zero_w(p, 3.5))
        undecided, _ = simulate_until_collision(rs, p, CFG, t_end=2000.0)
        assert undecided.status is SimStatus.INCONCLUSIVE and undecided.remaining_time == 0.0

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.7])
    def test_the_rise_rule_is_the_v_star_band(self, alpha):
        # dW/dt > 0 exactly where |v| < v_star: a node a thousandth inside
        # the band rose at its start, with no step; one a thousandth above it
        # collides, and one a thousandth below -v_star rises after a few
        # steps.  Below -v0 the node is witnessed at its start.
        p = Params(alpha, mid_subcritical_gamma(alpha))
        for v, want, steps in ((0.999 * p.v_star, "w-rose", False),
                               (-0.999 * p.v_star, "w-rose", False),
                               (1.001 * p.v_star, "separation-below", True),
                               (-1.001 * p.v_star, "w-rose", True),
                               (-1.001 * p.v0, "survival-witness", False)):
            rs = ReducedState(0.4, v * math.exp(0.4))
            result, traj = simulate_until_collision(rs, p, CFG)
            assert traj.stop == want, (alpha, v)
            assert (reduced_field(p)(rs.theta, rs.w)[1] > 0.0) is (want == "w-rose" and not steps)
            assert result.collided is (want == "separation-below")
            assert (traj.stats.attempts > 0) is steps and (result.time > 0.0) is steps

    def test_stop_point_without_a_time_in_floats_is_inconclusive(self, monkeypatch):
        # Where the time left from the stop point cannot be formed, the run
        # is undecided, not a traceback.
        def no_time(p, theta, w):
            raise NumericalFailure("the time to the axis leaves the float range")

        monkeypatch.setattr(dynamics, "time_to_axis", no_time)
        result, traj = simulate_until_collision(RS_BENCH, P_BENCH, CFG, t_end=20.0)
        assert traj.outcome is Outcome.EVENT_TERMINATED
        assert result.status is SimStatus.INCONCLUSIVE and result.remaining_time == 0.0

    def test_collision_below_the_step_floor_is_undecided(self):
        # dphi/dtau = -alpha/v**2 is about -5e199 at v0 = 1e-100: every
        # attempt is rejected and the run collapses at t = 0.  The time left
        # on the level, 4.557e-198, is below h_min, but no rule held: the run
        # is undecided, as every step collapse is.
        p, rs = Params(0.5, 1.0), ReducedState(0.0, 1e-100)
        result, traj = simulate_until_collision(rs, p, CFG, t_end=20.0)
        assert traj.outcome is Outcome.STEP_COLLAPSED and traj.times == [0.0]
        assert result.status is SimStatus.INCONCLUSIVE and result.remaining_time == 0.0
        assert result.time == 0.0 and collision_time(rs, p).value < CFG.h_min

    @pytest.mark.parametrize("w0", [-1e-100, -0.1])
    def test_receding_state_at_equal_circulation_is_witnessed_at_its_start(self, w0):
        # v < 0 at gamma = 1 only falls: the run ends at its start with no
        # step, even where dtheta/dt = alpha/W**2 would collapse the steps.
        result, traj = simulate_until_collision(ReducedState(0.5, w0), Params(0.5, 1.0), CFG)
        assert result == CollisionResult(SimStatus.SURVIVED, 0.0)
        assert traj.stop == "survival-witness" and traj.outcome is Outcome.EVENT_TERMINATED
        assert traj.states == [(0.5, w0)] and traj.stats.attempts == 0


@st.composite
def armed_approach_points(draw):
    """(p, theta, W, h): a W > 0 point on a level where the separation
    rule is armed (k_sign >= 0), with h its energy."""
    alpha = draw(st.floats(0.01, 0.99))
    gs = gamma_star(alpha)
    gamma = draw(st.sampled_from([1.0, gs, None]))
    if gamma is None:
        gamma = 1.0 + draw(st.floats(0.01, 0.99)) * (gs - 1.0)
    p = Params(alpha, gamma)
    return approach_point(p, draw(st.floats(-3.0, 3.0)), draw(st.floats(1e-3, 3.0)))


def approach_point(p: Params, theta: float, w: float):
    return p, theta, w, dynamics.reduced_energy(p)(theta, w)


class TestTheBandWhereWRises:
    @given(case=armed_approach_points())
    @example(case=approach_point(Params(0.2, 1.1), 3.5, 0.05))  # right of theta_star
    @settings(max_examples=150)
    def test_the_rule_decides_whether_w_falls_all_the_way(self, case):
        # The lemma behind the stop point, with no integration.  On the
        # level h, the state's float energy (its own level to rounding), in
        # exact rational arithmetic from the float inputs,
        # W(s)**2 = s**2*(a2g/m(s)**2 - offset2), m(s) = mu + h*s, with
        # a2g = offset2*mu**2 (K = 0) at the critical ratio.  Where the rule
        # holds W rises with s over (0, u]; where it fails W falls just
        # below u.  Points within 1e-9 of the rule's boundary are left out:
        # there the float rule and the exact one may differ by rounding.
        p, theta, w, h = case
        assert k_sign(p) >= 0
        u = math.exp(theta)
        c2, mu, hq, uq = (Fraction(x) for x in (p.offset2, p.mu, h, u))
        if k_sign(p) == 0:
            a2g = c2 * mu * mu
        else:
            a2g = Fraction(p.alpha) ** 2 * Fraction(p.gamma)
        lhs, rhs = c2 * (mu + hq * uq) ** 3, a2g * mu
        assume(abs(lhs - rhs) > Fraction(1, 10 ** 9) * (lhs + rhs))

        def w2(s):
            m = mu + hq * s
            return s * s * (a2g / (m * m) - c2)

        if w_falls_all_the_way(p, theta, w):
            values = [w2(uq * Fraction(i, 64)) for i in range(1, 65)]
            assert all(b > a for a, b in zip(values, values[1:]))
        else:
            at_u = w2(uq)
            assert any(w2(uq * (1 - Fraction(1, 2 ** j))) > at_u for j in range(1, 64))

    def test_both_sides_of_the_rule_occur(self):
        # Left of theta_star on an h > 0 level the rule holds; right of it,
        # where W first rises, it fails; h < 0 and gamma = 1 always pass.
        p = Params(0.2, 1.1)
        for theta, w, want in ((0.0, 0.05, True), (3.5, 0.05, False), (0.0, 1.0, True)):
            mc = classify(ReducedState(theta, w), p)
            assert (mc.theta_star is None or theta <= mc.theta_star) is want
            assert w_falls_all_the_way(p, theta, w) is want
        # gamma = 1, the level h = 1e6 at s = 10: W = alpha/(h + mu/s).
        assert w_falls_all_the_way(Params(0.2, 1.0), math.log(10.0), 0.2 / (1e6 + 0.2))
        # The critical level's rest line, W = 0 throughout, is no approach;
        # W = 1e-150 at s = 1 puts the state on the level h = -9.8e-299, just below.
        critical = Params(0.2, gamma_star(0.2))
        assert k_sign(critical) == 0
        assert not w_falls_all_the_way(critical, 0.0, 0.0)
        assert w_falls_all_the_way(critical, 0.0, 1e-150)


REGIMES = ("gamma1", "subcritical", "critical", "supercritical")


def regime_params(alpha: float, regime: str, u: float) -> Params:
    """alpha with the ratio of one regime; u in [0, 1] places it inside."""
    gs = gamma_star(alpha)
    gamma = {
        "gamma1": 1.0,
        "subcritical": 1.0 + (0.05 + 0.9 * u) * (gs - 1.0),
        "critical": gs,
        "supercritical": gs + 0.01 + 2.0 * u,
    }[regime]
    return Params(alpha, gamma)


def separation(p: Params, state) -> float:
    """D on the d = 0 chart; |W| at gamma = 1, where theta may pass exp's range."""
    theta, w = state
    return math.hypot(math.sqrt(p.offset2) * math.exp(theta), w) if p.offset2 else abs(w)


@st.composite
def armed_receding_states(draw):
    """(p, theta, W, h0): W < 0 on a level where the witness is armed.

    Away from gamma = 1, W lies beyond the zero-energy level's |W| (which
    is 0 unless subcritical), so that h0 < 0; at gamma = 1 any W < 0 is
    drawn, h0 > 0 included.
    """
    p = regime_params(draw(st.floats(0.01, 0.99)), draw(st.sampled_from(REGIMES)),
                      draw(st.floats(0.0, 1.0)))
    theta = draw(st.floats(-3.0, 3.0))
    s = math.exp(theta)
    r = draw(st.floats(1e-3, 5.0))
    if p.gamma == 1.0:
        w = -r * s
    else:
        kappa2 = p.alpha ** 2 * p.gamma / p.mu ** 2 - p.offset2
        w = -(math.sqrt(max(kappa2, 0.0)) + r) * s
    h0 = dynamics.reduced_energy(p)(theta, w)
    assume(p.gamma == 1.0 or h0 < -1e-12 * p.mu / s)
    return p, theta, w, h0


class WitnessHit(NamedTuple):
    time: float
    state: tuple[float, float]


def witnessed(rs: ReducedState, p: Params, t_end: float):
    """The oracle's run of rs: (result, trajectory, witness hit or None)."""
    result, traj = simulate_until_collision(rs, p, CFG, t_end=t_end)
    if traj.stop != "survival-witness":
        return result, traj, None
    return result, traj, WitnessHit(traj.t_final, traj.state_final)


class TestSurvivalWitness:
    @given(case=armed_receding_states())
    @settings(max_examples=100)
    def test_the_receding_branch_never_turns_back(self, case):
        # The lemma behind the witness, with no integration: theta rises
        # while W < 0, and on the level W**2 = s**2*bracket(s)/m(s)**2 only
        # grows with s = exp(theta) over the level's range (m(s) > 0), so W
        # never returns to 0.  At gamma = 1 dW/dt < 0 holds outright.
        p, theta, w, h0 = case
        dtheta, dw = reduced_field(p)(theta, w)
        assert dtheta > 0.0
        if p.gamma == 1.0:
            assert dw < 0.0
        a2g, c2, mu = p.alpha ** 2 * p.gamma, p.offset2, p.mu
        k = a2g - c2 * mu * mu

        def w2(s):
            m = mu + h0 * s
            return s * s * (k - c2 * h0 * s * (2.0 * mu + h0 * s)) / (m * m)

        s0 = math.exp(theta)
        m0 = mu + h0 * s0
        # Within rounding of the terms that cancel in the bracket.
        assert abs(w2(s0) - w * w) <= 1e-12 * s0 * s0 * (a2g + c2 * mu * mu) / (m0 * m0)
        s_end = mu / -h0 if h0 < 0.0 else 1e3 * s0  # m(s_end) = 0 when h0 < 0
        values = [w2(s0 + f * (s_end - s0)) for f in (0.0, 0.01, 0.1, 0.5, 0.9, 0.99)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", [0.2, 0.7])
    def test_witnessed_runs_only_separate_after_the_witness(self, alpha):
        # Criterion 04's nodes (every third of its 20x20 grid over [-2, 2])
        # in its four regimes, and a seeded sample of states at this alpha:
        # continued from the witness point to the original horizon in the
        # (theta, W) chart with no rule, every run reaches that horizon and
        # its separation only grows.
        nodes = [-2.0 + 4.0 * i / 19 for i in range(0, 20, 3)]
        cases = [
            (Params(alpha, g), ReducedState(th0, w0))
            for g in (1.0, mid_subcritical_gamma(alpha), gamma_star(alpha), 2.0)
            for th0 in nodes
            for w0 in nodes
        ]
        rng = random.Random(f"witness/{alpha}")
        cases += [
            (regime_params(alpha, rng.choice(REGIMES), rng.random()),
             ReducedState(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)))
            for _ in range(40)
        ]
        t_end = 200.0
        n_witnessed = 0
        for p, rs in cases:
            result, traj, hit = witnessed(rs, p, t_end)
            if hit is None:
                continue
            n_witnessed += 1
            assert result.status is SimStatus.SURVIVED and result.time == hit.time
            assert (traj.t_final, traj.state_final) == (hit.time, hit.state)
            tail = integrate(ReducedState(*hit.state), p, t_end - hit.time, CFG)
            assert tail.outcome is Outcome.REACHED_T_END, (p, rs)
            seps = [separation(p, y) for y in tail.states]
            assert all(b >= a * (1.0 - 1e-9) for a, b in zip(seps, seps[1:])), (p, rs)
        assert n_witnessed > len(cases) // 3

    def test_witness_at_the_initial_point(self):
        # Supercritical, W0 < 0: the rings already recede, and the run ends
        # at t = 0 with its one point.
        p = Params(0.2, 2.0)
        result, traj, hit = witnessed(ReducedState(0.0, -1.0), p, 200.0)
        assert result.status is SimStatus.SURVIVED and result.time == 0.0
        assert traj.times == [0.0] and hit.state == (0.0, -1.0)
        assert traj.stats.attempts == 0

    def test_w_just_below_zero_is_witnessed_at_the_start(self):
        # Supercritical, so g(v) < 0 everywhere: W0 = -1e-12 needs no slack,
        # and the run ends at t = 0.
        p = Params(0.2, 2.0)
        rs = ReducedState(0.0, -1e-12)
        result, traj, hit = witnessed(rs, p, 200.0)
        assert result.status is SimStatus.SURVIVED and result.time == 0.0
        assert hit.state == (0.0, -1e-12) and traj.stats.attempts == 0

    @pytest.mark.parametrize("w0", [-1e-12, -1e-9])
    def test_tiny_negative_w_at_gamma_one_is_witnessed(self, w0):
        # At gamma = 1 dW/dt = -2*exp(-theta) < 0 for every W < 0, so the
        # witness needs no slack: the run ends at t = 0 without an attempt,
        # before dtheta/dt = alpha/W**2 (2e17 to 2e23) collapses its steps.
        result, traj, hit = witnessed(ReducedState(0.0, w0), Params(0.2, 1.0), 200.0)
        assert result.status is SimStatus.SURVIVED and result.time == 0.0
        assert hit.state == (0.0, w0) and traj.stats.attempts == 0

    def test_zero_energy_level_is_not_armed(self):
        # Mirrored to W < 0, a state on the zero-energy level has h0 within
        # the rounding margin: unarmed, it runs to its horizon.  At gamma = 1
        # the witness is armed whatever h0, and ends the run at once.
        th0 = 0.5
        p = Params(0.2, mid_subcritical_gamma(0.2))
        rs = ReducedState(th0, -h0_zero_w(p, th0))
        assert abs(dynamics.reduced_energy(p)(rs.theta, rs.w)) < 1e-12 * p.mu * math.exp(-th0)
        result, traj, hit = witnessed(rs, p, 5.0)
        assert result.status is SimStatus.SURVIVED and result.time == 5.0
        assert hit is None and traj.outcome is Outcome.REACHED_T_END
        p1 = Params(0.2, 1.0)
        result, traj, hit = witnessed(ReducedState(th0, -h0_zero_w(p1, th0)), p1, 5.0)
        assert result.time == 0.0 and hit is not None

    @pytest.mark.parametrize("alpha,gamma,th0,w0", [
        (0.7421720253894344, 1.2765731521914674, 0.6666666666666665, -0.6666666666666667),
        (0.8938708576603537, 1.8882506676233934, 2.0, -2.0),
        (0.624725939009422, 1.2817083004810996, 2.0, -2.0),
        (0.21459698413201211, 1.0300547834870066, 2.0, -0.6666666666666667),
        (0.6715591429316828, 1.4696877995094062, 2.0, -2.0),
        (0.7271907452945902, 1.4028657199655135, 2.0, -2.0),
    ])
    def test_positive_energy_survivors_still_run_to_the_horizon(self, alpha, gamma, th0, w0):
        # Subcritical orbits with h0 > 0, from the seeded benchmark grids:
        # their W < 0 branch turns back (-v0 < v < 0), so no witness holds.
        # Those whose W turns up before the horizon (the first, fourth and
        # sixth) end at the rise, undecided; before the rise rule they ran on
        # to t_end and were called SURVIVED.  The others rise later than t =
        # 200 and still survive at the horizon.
        p = Params(alpha, gamma)
        rs = ReducedState(th0, w0)
        assert dynamics.reduced_energy(p)(th0, w0) > 0.0
        result, traj, hit = witnessed(rs, p, 200.0)
        plain = integrate(rs, p, 200.0, CFG)
        slack = 1e-9 * (1.0 + abs(w0))
        ws = [s[1] for s in plain.states]
        rise = next((k for k in range(1, len(ws)) if ws[k] > ws[k - 1] + slack), None)
        assert hit is None
        if rise is None:
            assert result.status is SimStatus.SURVIVED and result.time == 200.0
            assert traj.outcome is Outcome.REACHED_T_END and traj.stop is None
        else:
            assert result.status is SimStatus.INCONCLUSIVE and traj.stop == "w-rose"
            rising = [reduced_field(p)(*y)[1] > 0.0 for y in traj.states]
            assert rising[-1] and not any(rising[:-1])

    def test_colliding_and_undecided_runs_never_meet_the_witness(self):
        # Criterion 04's nodes at alpha 0.5 (every fourth of its grid): a node
        # the classifier calls colliding collides, never witnessed, and a
        # witnessed node is one it calls a survivor.
        nodes = [-2.0 + 4.0 * i / 19 for i in range(0, 20, 4)]
        n_witnessed = 0
        for g in (1.0, mid_subcritical_gamma(0.5), gamma_star(0.5), 2.0):
            p = Params(0.5, g)
            for th0 in nodes:
                for w0 in nodes:
                    rs = ReducedState(th0, w0)
                    result, _, hit = witnessed(rs, p, 200.0)
                    if classify(rs, p).predicts_collision:
                        assert result.collided and hit is None, (g, rs)
                    n_witnessed += hit is not None
        assert n_witnessed > 0


class TestSharedOrbit:
    def test_the_flow_is_the_scalar_flow_of_v(self):
        # dv/dtau = g(v) = sa/r - mu, dtheta/dtau = -sa*v/r**3, dt/dtau =
        # exp(2*theta), composed from the reduced field at theta = 0 by the
        # rule the flow's stepper writes out (its first k1 here); and
        # by the scale law dv/dt and dtheta/dt of the (theta, W) chart.
        rng = random.Random(22)
        for _ in range(400):
            p = regime_params(rng.uniform(0.01, 0.99), rng.choice(REGIMES), rng.random())
            v, theta = rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)
            sa, r = p.alpha * p.sqrt_gamma, math.hypot(p.offset, v)
            dv, dth, dt = _rate_3d(reduced_field(p), (v, theta, 0.0))
            assert abs(dv - (sa / r - p.mu)) <= 1e-15 * (p.mu + sa / r)
            assert rel_err(dth, -sa * v / r ** 3) <= 1e-15 and dt == math.exp(2.0 * theta)
            w = v * math.exp(theta)
            dtheta_dt, dw_dt = reduced_field(p)(theta, w)
            assert rel_err(dth / dt, dtheta_dt) <= 1e-13
            assert abs((dv + v * dth) * math.exp(theta) / dt - dw_dt) <= 1e-13 * (
                abs(dw_dt) + p.mu * math.exp(-theta))

    @pytest.mark.parametrize("excess", [2e-11, 1e-10, 5e-10])
    @pytest.mark.parametrize("theta0, w0", [(-2.0, 2.0), (0.0, 1.0)])
    def test_just_above_gamma_star_the_flow_passes_through(self, excess, theta0, w0):
        # The physical-time run ended by step collapse at about 4e-9*D0 on
        # these orbits, undecided (543 to 651 attempts).  On the flow v falls
        # through 0, W = 0 being the pass, and the witness holds once v < 0.
        p = Params(0.2, gamma_star(0.2) + excess)
        result, traj = simulate_until_collision(ReducedState(theta0, w0), p, CFG)
        assert result.status is SimStatus.SURVIVED and traj.stop == "survival-witness"
        assert traj.stats.attempts <= 600
        assert traj.state_final[1] < 0.0

    @pytest.mark.parametrize("p, rs", [
        (Params(0.2, 2.0), ReducedState(3.0, 1.0)),
        (Params(0.2, 1.1), ReducedState(3.0, 3.0)),
        (Params(0.2, 1.1), ReducedState(3.0, 1.5)),
    ], ids=["supercritical-approaching", "subcritical-falling", "subcritical-rising"])
    def test_a_run_to_the_horizon_ends_at_t_end(self, p, rs):
        # The flow's points past t_end are dropped, and the (theta, W) chart
        # carries the run from the last point before it to t_end itself.
        result, traj = simulate_until_collision(rs, p, CFG, t_end=7.0)
        assert result == CollisionResult(SimStatus.SURVIVED, 7.0)
        assert traj.outcome is Outcome.REACHED_T_END and traj.stop is None
        assert traj.times[-1] == 7.0
        assert all(a < b for a, b in zip(traj.times, traj.times[1:]))
        chart = integrate(rs, p, 7.0, CFG)
        assert traj.state_final == pytest.approx(chart.state_final, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("ws, first", [([1e-120, 0.0, 0.5], 0), ([0.5, 0.0, 1e-120], 1)])
    def test_the_first_failing_state_in_order_raises(self, ws, first):
        # W0 = 1e-120 and W0 = 0 at gamma = 1 are rejected by the flow's field
        # and by the chart, whose error names W.  The shared rising run starts
        # at W0 = 0 and fails; its states then run alone, and the first in the
        # order given that fails decides the error.
        p = Params(0.2, 1.0)
        states = [ReducedState(0.0, w) for w in ws]
        with pytest.raises(InvalidInitialState) as info:
            integrate_module.oracle_verdicts(p, states, CFG)
        with pytest.raises(InvalidInitialState) as own:
            simulate_until_collision(states[first], p, CFG)
        assert str(info.value) == str(own.value)

    def test_a_rest_point_of_g_runs_alone(self):
        # At these W0, g(v0) is 0.0 exactly: neither up nor down, so each
        # state is its own group, and its verdict is that of its own run,
        # alone or among other states.
        p, w = Params(0.2, 1.1), 0.08973502753208089
        rest = [ReducedState(0.0, w), ReducedState(0.0, -w)]
        oracle = integrate_module._Oracle(p, rest, CFG, 200.0)
        assert [oracle.g(v) for v in oracle.v] == [0.0, 0.0]
        others = [ReducedState(0.0, 1.0), ReducedState(0.5, 0.3), ReducedState(1.0, -1.0),
                  ReducedState(0.0, 0.05), ReducedState(0.0, -0.05)]
        states = others[:2] + rest + others[2:]
        groups = integrate_module.oracle_groups(p, states)
        assert [2] in groups and [3] in groups
        assert sum(len(group) for group in groups) == len(states)
        expected = [(SimStatus.COLLIDED, "separation-below"),
                    (SimStatus.SURVIVED, "reached-t-end")]
        own = [simulate_until_collision(rs, p, CFG) for rs in rest]
        assert [(res.status, traj.stop or traj.outcome.value) for res, traj in own] == expected
        assert integrate_module.oracle_verdicts(p, rest, CFG) == expected
        assert integrate_module.oracle_verdicts(p, states, CFG)[2:4] == expected

    @pytest.mark.parametrize("gamma, verdict", [
        (2.0, (SimStatus.SURVIVED, "survival-witness")),
        (1.1, (SimStatus.INCONCLUSIVE, "w-rose")),
    ])
    def test_a_far_state_a_start_rule_decides_takes_the_grid_path(self, gamma, verdict):
        # exp(2*theta0) overflows at theta0 = 400, so neither the flow's field
        # nor the chart's energy can be read there; v0 is about -1.9e-4, and
        # the start rule decides the state before either is asked.
        p, rs = Params(0.2, gamma), ReducedState(400.0, -1e170)
        assert integrate_module.oracle_verdicts(p, [rs], CFG) == [verdict]
        result, traj = simulate_until_collision(rs, p, CFG)
        assert (result.status, traj.stop) == verdict and result.time == 0.0
        assert traj.times == [0.0] and traj.states == [(400.0, -1e170)]
        assert traj.stats == IntegrationStats() and traj.drift == {"H": 0.0}

    def test_an_infinite_v_is_an_invalid_initial_state(self):
        # 1e300*exp(100) is inf, although exp(100) is not.
        p, rs = Params(0.2, 2.0), ReducedState(-100.0, 1e300)
        with pytest.raises(InvalidInitialState, match="initial state rejected"):
            integrate_module.oracle_verdicts(p, [ReducedState(0.0, 1.0), rs], CFG)
        with pytest.raises(InvalidInitialState, match="initial state rejected"):
            simulate_until_collision(rs, p, CFG)

    @given(alpha=st.floats(0.01, 0.99), regime=st.sampled_from(REGIMES), u=st.floats(0.0, 1.0),
           thetas=st.lists(st.floats(-2.5, 2.5), min_size=2, max_size=3),
           ws=st.lists(st.floats(-2.5, 2.5).filter(lambda w: abs(w) > 1e-3),
                       min_size=3, max_size=4))
    @settings(max_examples=120)
    def test_grid_rows_are_the_one_node_runs(self, alpha, regime, u, thetas, ws):
        # The grid's oracle reads every node off one run per group; each
        # row's status, agreement and reason are those of the node's own run.
        p = regime_params(alpha, regime, u)
        rows = classifier_oracle_grid(p, thetas, ws, CFG, workers=1)
        for th0, w0, _, _, t_est, status, agrees, reason in rows:
            result, traj = simulate_until_collision(ReducedState(th0, w0), p, CFG)
            one = (result.status.value, (t_est is not None) == result.collided,
                   traj.stop or traj.outcome.value)
            assert (status, agrees, reason) == one, (p, th0, w0)


class TestDriftReport:
    def test_planar_and_full_invariants(self):
        p = Params(0.2, 1.4)
        traj = integrate(ReducedState(0.2, -0.8), p, 30.0, CFG)
        assert traj.drift["H"] < 1e-8
        full = FullState(1.0, 0.8, 1.2, 0.0)
        traj_full = integrate(full, p, 20.0, CFG)
        assert traj_full.drift["d"] < 1e-9

    def test_hyperbolic_state_runs_the_hyperbolic_chart(self):
        # The d = 0 field on these coordinates would end near (1.195, -3.396).
        p = Params(0.2, 2.0)
        hs = reduce_state(FullState(1.0, 0.6, 1.1, 0.0), p)
        traj = integrate(hs, p, 5.0, CFG)
        assert traj.system is SystemKind.HYPERBOLIC
        assert traj.outcome is Outcome.REACHED_T_END
        assert traj.drift["H"] < 1e-8
        assert traj.state_final == pytest.approx((1.204, -12.517), abs=1e-3)

    @pytest.mark.parametrize("system,p,y0,t_end", [
        # Criterion 06's probes: full, reduced and hyperbolic.
        ("full", Params(0.5, 1.0), FullState(4.0, 0.5, 4.0, -0.5), 0.95),
        ("full", Params(0.3, 1.3), FullState(1.0, 0.8, 1.2, 0.0), 20.0),
        ("reduced", Params(0.5, 1.0), ReducedState(math.log(4.0), 1.0), 0.95),
        ("reduced", Params(0.2, 2.0), ReducedState(0.0, 1.0), 50.0),
        ("reduced", Params(0.5, 1.0), ReducedState(0.0, -1.0), 50.0),
        ("hyperbolic", Params(0.2, 2.0), FullState(1.0, 0.6, 1.1, 0.0), 100.0),
        ("hyperbolic", Params(0.2, 2.0), FullState(0.8, 0.6, 1.4, 0.0), 100.0),
    ])
    def test_drift_on_read_is_the_max_deviation_over_the_states(self, system, p, y0, t_end):
        if system == "full":
            inv = lambda r1, z1, r2, z2: p.gamma * r1 * r1 - r2 * r2  # noqa: E731
        elif system == "reduced":
            inv = dynamics.reduced_energy(p)
        else:
            y0 = reduce_state(y0, p)
            inv = dynamics.hyperbolic_energy(p, y0.d)
        traj = integrate(y0, p, t_end, CFG)
        inv0 = inv(*traj.states[0])
        (value,) = traj.drift.values()
        assert value == max(abs(inv(*y) - inv0) for y in traj.states)

    def test_an_oracle_run_evaluates_the_energy_once(self, monkeypatch):
        # The energy at y0 checks the state; the drift is only evaluated when read.
        calls = []
        real = dynamics.reduced_energy

        def counting(p):
            energy = real(p)

            def counted(theta, w):
                calls.append((theta, w))
                return energy(theta, w)
            return counted

        monkeypatch.setattr(dynamics, "reduced_energy", counting)
        result, traj = simulate_until_collision(RS_BENCH, P_BENCH, CFG, t_end=5.0)
        assert result.status is SimStatus.COLLIDED
        assert len(calls) == 1
        drift = traj.drift
        assert len(calls) == len(traj.states) and traj.drift is drift

    def test_single_point_trajectory_has_zero_drift(self):
        # Every step from W0 = 1e-100 at gamma = 1 is rejected: the run
        # collapses at its start point.
        traj = integrate(ReducedState(0.0, 1e-100), P_BENCH, 1.0, CFG)
        assert traj.outcome is Outcome.STEP_COLLAPSED
        assert traj.times == [0.0]
        assert traj.drift == {"H": 0.0}

    def test_step_short_of_the_horizon_by_less_than_the_floor_takes_the_rest(self):
        # The first step, h_init, would leave h_min/2 to go: it is stretched
        # to t_end, which the run then ends at exactly.
        t_end = CFG.h_init + 0.5 * CFG.h_min
        traj = integrate(RS_BENCH, P_BENCH, t_end, CFG)
        assert traj.outcome is Outcome.REACHED_T_END
        assert traj.times == [0.0, t_end]

    @pytest.mark.parametrize("t_end", [1e-15, CFG.h_min])
    def test_horizon_at_or_below_the_step_floor_is_rejected(self, t_end):
        # Such a horizon would take no step at all.
        with pytest.raises(InvalidInitialState):
            integrate(ReducedState(0.0, 1.0), P_BENCH, t_end, CFG)


class TestFullReducedConsistency:
    def test_zero_d_full_run_tracks_reduced_run(self):
        # The 4D system started on d = 0 must reproduce the planar gap.
        p = Params(0.5, 1.0)
        full = FullState(4.0, 0.5, 4.0, -0.5)
        t_end = 0.8
        traj_full = integrate(full, p, t_end, CFG)
        traj_red = integrate(RS_BENCH, P_BENCH, t_end, CFG)
        r1, z1, r2, z2 = traj_full.state_final
        th, w = traj_red.state_final
        assert abs((z1 - z2) - w) < 5e-8
        assert abs(math.log(r1) - th) < 5e-8


class TestStats:
    def test_counts_match_field_calls_and_record(self, monkeypatch):
        calls = [0]

        def counting_field(p):
            f = reduced_field(p)

            def counted(theta, w):
                calls[0] += 1
                return f(theta, w)

            return counted

        monkeypatch.setattr(dynamics, "reduced_field", counting_field)
        # Into the blow-up's steep tail, and stopped by the separation rule.
        for stop in (None, separation_stop(RS_BENCH, P_BENCH, 0.5)):
            calls[0] = 0
            traj = integrate(RS_BENCH, P_BENCH, 10.0, CFG, stop)
            stats = traj.stats
            assert stats.f_evals == 1 + 6 * stats.attempts
            assert stats.f_evals == calls[0]
            assert stats.accepted == len(traj.times) - 1
            assert stats.attempts == stats.accepted + stats.rejections
            assert (traj.stop is None) == (stop is None)
            if stop is None:
                assert stats.rejections > 0  # the steep tail

    def test_stats_hold_only_work_counts(self):
        traj = integrate(ReducedState(0.0, 1.0), Params(0.2, 2.0), 5.0, CFG)
        assert set(dataclasses.asdict(traj.stats)) == {
            "attempts", "rejections", "accepted", "f_evals"}
        assert traj.stats.f_evals == 1 + 6 * traj.stats.attempts


# The generic Dormand-Prince attempt that the fixed-dimension steppers
# replaced: a loop over the tableau rows, each stage sum added left to right
# from 0 (as sum() adds floats before Python 3.12), with its own copy of the
# tableau so a mistyped coefficient in the unrolled code shows up.
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_BHAT = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_E = tuple(b - bh for b, bh in zip(_B, _BHAT))
_ABS_TOL, _REL_TOL = 1e-12, 1e-10


def _left_sum(terms):
    total = 0
    for term in terms:
        total = total + term
    return total


def _reference_attempt(f, h, y, k1):
    n = len(y)
    err_norm = math.inf
    y_new, k7 = y, k1
    try:
        ks = [k1]
        ystage = y
        for row in _A:
            ystage = tuple(
                y[i] + h * _left_sum(a * ks[j][i] for j, a in enumerate(row))
                for i in range(n)
            )
            ks.append(f(*ystage))
        y_new, k7 = ystage, ks[6]
        if all(math.isfinite(v) for v in y_new + k7):
            err_norm = 0.0
            for i in range(n):
                e = h * _left_sum(_E[j] * ks[j][i] for j in range(7))
                scale = _ABS_TOL + _REL_TOL * max(abs(y[i]), abs(y_new[i]))
                r = abs(e) / scale
                if r > err_norm:
                    err_norm = r
    except (FilcolError, ValueError, ZeroDivisionError, OverflowError):
        pass
    return y_new, k7, err_norm


def _bits(values):
    return tuple(float.hex(v) for v in values)


def _assert_same_attempt(f, h, y):
    k1 = f(*y)
    step = _step_4d if len(y) == 4 else _step_2d
    got = step(f, h, y, k1, _ABS_TOL, _REL_TOL)
    want = _reference_attempt(f, h, y, k1)
    assert _bits(got[0]) == _bits(want[0])
    assert _bits(got[1]) == _bits(want[1])
    assert float.hex(got[2]) == float.hex(want[2])
    return got


# The 3-D stepper is the flow's own attempt: it takes the (theta, W) chart
# closure and writes the flow's rule out per stage.  Its reference is the
# generic attempt on the flow's right-hand side, written here once more.
_rate_3d = _STEPPERS[3][1]


def _flow_rhs(chart):
    def rhs(v, theta, t):
        dtheta, dw = chart(0.0, v)
        return (dw - v * dtheta, dtheta, math.exp(2.0 * theta))

    return rhs


def _assert_same_flow_attempt(chart, h, y):
    rhs = _flow_rhs(chart)
    k1 = rhs(*y)
    got = _step_3d(chart, h, y, k1, _ABS_TOL, _REL_TOL)
    want = _reference_attempt(rhs, h, y, k1)
    assert _bits(got[0]) == _bits(want[0])
    assert _bits(got[1]) == _bits(want[1])
    assert float.hex(got[2]) == float.hex(want[2])
    return got


_FLOW_CASES = {
    "gamma=1": (Params(0.2, 1.0), (0.8, 0.3, 2.0)),
    "subcritical": (Params(0.2, 1.1), (-0.6, -0.4, 0.5)),
    "critical": (Params(0.2, gamma_star(0.2)), (1.2, 0.1, 0.0)),
    "supercritical": (Params(0.2, 2.0), (-0.3, 1.0, 7.0)),
}


def _hyperbolic(full):
    hs = reduce_state(full, Params(0.2, 2.0))
    return hyperbolic_field(Params(0.2, 2.0), hs.d), hs.astuple()


_CASES = {
    "reduced gamma=1": (reduced_field(P_BENCH), RS_BENCH.astuple()),
    "reduced gamma>1": (reduced_field(Params(0.2, 1.1)), (0.3, -0.7)),
    "reduced critical": (reduced_field(Params(0.2, gamma_star(0.2))), (-0.4, 1.2)),
    "hyperbolic d>0": _hyperbolic(FullState(1.0, 0.6, 1.1, 0.0)),
    "hyperbolic d<0": _hyperbolic(FullState(0.8, 0.6, 1.4, 0.0)),
    "full": (full_field(Params(0.3, 1.3)), (1.0, 0.8, 1.2, 0.0)),
    "full gamma=1": (full_field(P_BENCH), (4.0, 0.5, 4.0, -0.5)),
}


# Faulty fields for one attempt: evaluation number `call` of the wrapper
# misbehaves, counting from the attempt's first evaluation (1 is k2, 6 is k7).


def _raising_at(call, f, exc):
    """f, except that evaluation number `call` raises exc."""
    count = [0]

    def field(*y):
        count[0] += 1
        if count[0] == call:
            raise exc("field raised")
        return f(*y)

    return field


def _infinite_at(call, f, component=None):
    """f, except that evaluation number `call` returns +inf (in one component)."""
    count = [0]

    def field(*y):
        count[0] += 1
        out = f(*y)
        if count[0] != call:
            return out
        return tuple(
            math.inf if component in (None, j) else v for j, v in enumerate(out)
        )

    return field


def _active_only(i, n, g):
    """A field that moves component i alone, by g of that component.

    The error norm is then that component's error, so each component's sums
    are checked in turn.
    """

    def field(*y):
        out = [0.0] * n
        out[i] = g(y[i])
        return tuple(out)

    return field


def _wiggle(v):
    return math.exp(math.sin(3.0 * v)) - 0.7 * v * v


def _decay(v):
    # Finite at v = inf, so an infinite zero-weight stage reaches y_new only
    # through 0.0 * inf.
    return 1.0 / (1.0 + v * v) + 0.5 / (3.0 + v * v)


def _builtin_err_norm(h, y, y_new, ks, abs_tol, rel_tol):
    """The error norm as the steppers wrote it with builtins: max(0.0, ...)
    over abs(h*(E1*k1 + ... + E7*k7))/(abs_tol + rel_tol*max(abs(y), abs(y_new)))."""
    errs = []
    for i in range(len(y)):
        e = _E[0] * ks[0][i]
        for j in range(1, 7):
            e = e + _E[j] * ks[j][i]
        errs.append(abs(h * e) / (abs_tol + rel_tol * max(abs(y[i]), abs(y_new[i]))))
    return max(0.0, *errs)


# Values where a hand-written |x| or max can part from the builtins: signed
# zeros, the ends of the float range, and ordinary magnitudes.
_MAGNITUDE = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e300, 1.7e308]),
    st.floats(min_value=1e299, max_value=1e301),
    st.floats(min_value=1e-301, max_value=1e-299),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, allow_infinity=False),
)
_COMPONENT = st.builds(lambda negative, v: -v if negative else v, st.booleans(), _MAGNITUDE)
_TOLS = [(1e-12, 1e-10), (1e-6, 1e-3), (1e-300, 1.0), (1.0, 1e300)]


@st.composite
def _prescribed_attempts(draw, dim):
    """(h, y, k1..k7, abs_tol, rel_tol) of an attempt whose field returns k2..k7.

    Half the draws mirror component 0 into component 1 (and 2 into 3), so
    the two errors are of equal size and opposite sign."""
    point = st.tuples(*[_COMPONENT] * dim)
    y = draw(point)
    ks = draw(st.lists(point, min_size=7, max_size=7))
    if draw(st.booleans()):
        mirror = lambda v: (v[0], -v[0]) + ((v[2], -v[2]) if dim == 4 else ())  # noqa: E731
        y, ks = mirror(y), [mirror(k) for k in ks]
    h = draw(st.one_of(st.sampled_from([1e-12, 1e-3, 0.4]), st.floats(1e-15, 2.0)))
    return (h, y, ks, *draw(st.sampled_from(_TOLS)))


def _assert_builtin_err_norm(h, y, ks, abs_tol, rel_tol):
    stages = iter(ks[1:])
    step = _step_4d if len(y) == 4 else _step_2d
    y_new, k7, err_norm = step(lambda *_: next(stages), h, y, ks[0], abs_tol, rel_tol)
    assert k7 == ks[6]
    if all(math.isfinite(v) for v in y_new + k7):
        want = _builtin_err_norm(h, y, y_new, ks, abs_tol, rel_tol)
    else:
        want = math.inf
    assert float.hex(err_norm) == float.hex(want)
    return err_norm


# Stages whose error terms E_j*k_j are all -0.0 (E_j >= 0 takes -0.0, E_j < 0
# takes 0.0), so the component's error is -0.0; and their mirror, +0.0.
_NEG_ZERO_ERROR = (-0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0)
_POS_ZERO_ERROR = tuple(-v for v in _NEG_ZERO_ERROR)


class TestUnrolledSteppers:
    @pytest.mark.parametrize("dim", [2, 4])
    @settings(max_examples=150)
    @given(data=st.data())
    def test_error_norm_bit_identical_to_the_builtin_norm(self, dim, data):
        _assert_builtin_err_norm(*data.draw(_prescribed_attempts(dim)))

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("zeros", [
        (_NEG_ZERO_ERROR, _NEG_ZERO_ERROR), (_POS_ZERO_ERROR, _NEG_ZERO_ERROR),
        (_NEG_ZERO_ERROR, _POS_ZERO_ERROR),
    ], ids=["both -0", "+0 then -0", "-0 then +0"])
    def test_signed_zero_errors_norm_to_plus_zero(self, dim, zeros):
        first, rest = zeros
        ks = [(a,) + (b,) * (dim - 1) for a, b in zip(first, rest)]
        for y in ((0.0,) * dim, (-0.0,) * dim, (1e300, -1e300, 1e-300, -1e-300)[:dim]):
            err_norm = _assert_builtin_err_norm(1e-3, y, ks, _ABS_TOL, _REL_TOL)
            assert float.hex(err_norm) == float.hex(0.0)

    @pytest.mark.parametrize("case", sorted(_CASES))
    @pytest.mark.parametrize("h", [1e-6, 1e-3, 0.05, 0.4])
    def test_bit_identical_to_generic_sweep(self, case, h):
        f, y = _CASES[case]
        _, _, err_norm = _assert_same_attempt(f, h, y)
        assert err_norm >= 0.0

    @pytest.mark.parametrize("case", ["reduced gamma>1", "full"])
    @pytest.mark.parametrize("call", [1, 3, 6])
    @pytest.mark.parametrize("exc", [ZeroDivisionError, OverflowError, DomainError])
    def test_raising_field_gives_infinite_error(self, case, call, exc):
        f, y = _CASES[case]
        k1 = f(*y)
        step = _step_4d if len(y) == 4 else _step_2d
        got = step(_raising_at(call, f, exc), 1e-3, y, k1, _ABS_TOL, _REL_TOL)
        want = _reference_attempt(_raising_at(call, f, exc), 1e-3, y, k1)
        assert got[2] == want[2] == math.inf
        assert got[0] == want[0] == y and got[1] == want[1] == k1

    @pytest.mark.parametrize("case", ["reduced gamma=1", "hyperbolic d<0", "full"])
    @pytest.mark.parametrize("call", [1, 3, 6])
    def test_non_finite_stage_gives_infinite_error(self, case, call):
        # k2 (call 1) has propagation weight zero: 0.0 * inf is nan, so it
        # still reaches y_new and the attempt is rejected.
        f, y = _CASES[case]
        k1 = f(*y)
        step = _step_4d if len(y) == 4 else _step_2d
        got = step(_infinite_at(call, f), 1e-3, y, k1, _ABS_TOL, _REL_TOL)
        want = _reference_attempt(_infinite_at(call, f), 1e-3, y, k1)
        assert got[2] == want[2] == math.inf
        assert _bits(got[0] + got[1]) == _bits(want[0] + want[1])
        assert not all(math.isfinite(v) for v in got[0] + got[1])

    @pytest.mark.parametrize("case", sorted(_FLOW_CASES))
    @pytest.mark.parametrize("h", [1e-6, 1e-3, 0.05, 0.4])
    def test_flow_attempt_bit_identical_to_generic_sweep(self, case, h):
        p, y = _FLOW_CASES[case]
        chart, calls = reduced_field(p), []
        k1 = _flow_rhs(chart)(*y)
        assert _bits(_rate_3d(chart, y)) == _bits(k1)
        _, _, err_norm = _assert_same_flow_attempt(chart, h, y)
        assert 0.0 <= err_norm < math.inf

        def counted(*args):
            calls.append(args)
            return chart(*args)

        _step_3d(counted, h, y, k1, _ABS_TOL, _REL_TOL)
        assert len(calls) == 6 and all(theta == 0.0 for theta, _ in calls)

    @pytest.mark.parametrize("call", [1, 3, 6])
    def test_flow_attempt_through_a_raising_chart_gives_infinite_error(self, call):
        p, y = _FLOW_CASES["gamma=1"]
        chart = _raising_at(call, reduced_field(p), OnSingularLine)
        k1 = _flow_rhs(reduced_field(p))(*y)
        got = _step_3d(chart, 1e-3, y, k1, _ABS_TOL, _REL_TOL)
        want = _reference_attempt(_flow_rhs(_raising_at(call, reduced_field(p), OnSingularLine)),
                                  1e-3, y, k1)
        assert got[2] == want[2] == math.inf
        assert got[0] == want[0] == y and got[1] == want[1] == k1

    def test_flow_attempt_across_the_exp_overflow_gives_infinite_error(self):
        # theta rises at 0.8 per unit from 354.8, and exp(2*theta) overflows
        # past theta = 354.89: k1 is finite, a later stage's rate is not.
        y = (-0.5, 354.8, 0.0)
        got = _assert_same_flow_attempt(reduced_field(Params(0.2, 1.0)), 0.4, y)
        assert got[2] == math.inf and got[0] == y

    def test_flow_attempt_with_a_non_finite_zero_weight_stage_gives_infinite_error(self):
        # k2 has propagation weight zero: 0.0 * inf is nan, so it still
        # reaches y_new and the attempt is rejected.
        p, y = _FLOW_CASES["subcritical"]
        k1 = _flow_rhs(reduced_field(p))(*y)
        got = _step_3d(_infinite_at(1, reduced_field(p)), 1e-3, y, k1, _ABS_TOL, _REL_TOL)
        want = _reference_attempt(_flow_rhs(_infinite_at(1, reduced_field(p))), 1e-3, y, k1)
        assert got[2] == want[2] == math.inf
        assert _bits(got[0] + got[1]) == _bits(want[0] + want[1])
        assert not all(math.isfinite(v) for v in got[0])

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("h", [0.01, 0.03, 0.05, 0.1, 0.2, 0.3, 0.4, 0.6])
    def test_each_component_bit_identical(self, dim, h):
        y = (0.3, -0.45, 0.8, -1.1)[:dim]
        step = _step_4d if dim == 4 else _step_2d
        for i in range(dim):
            for g in (_wiggle, _decay):
                _, _, err_norm = _assert_same_attempt(_active_only(i, dim, g), h, y)
                assert err_norm > 0.0
            # A non-finite zero-weight stage in this component alone.
            f = _active_only(i, dim, _decay)
            got = step(_infinite_at(1, f, i), h, y, f(*y), _ABS_TOL, _REL_TOL)
            assert got[2] == math.inf and not math.isfinite(got[0][i])
