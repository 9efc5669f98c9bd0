"""Core dynamics: vector fields, conserved quantities, reductions, ansatz."""

from __future__ import annotations

import dataclasses
import math
import pickle
import random
import sys

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from filcol import (
    DomainError,
    Divergent,
    FullState,
    HyperbolicState,
    IntegrationConfig,
    NumericalFailure,
    OnSingularLine,
    Outcome,
    Params,
    ReducedState,
    SeparationZero,
    ansatz_residual,
    conserved_d,
    full_field,
    gamma_star,
    hyperbolic_energy,
    hyperbolic_field,
    hyperbolic_radii,
    hyperbolic_separation,
    integrate,
    reduce_state,
    reduced_energy,
    reduced_field,
    theta_star,
)
from filcol.dynamics import (Regime, _coplanar_saddle, k_sign, log_tail, monotone_approach,
                             time_to_axis)
from filcol.verify import mid_subcritical_gamma

from conftest import closed_form_time, level_w, nonzero_d_states, quadrature_time, rel_err


class TestParams:
    def test_alpha_range(self):
        with pytest.raises(DomainError):
            Params(0.0, 1.5)
        with pytest.raises(DomainError):
            Params(1.0, 1.5)
        with pytest.raises(DomainError):
            Params(0.2, 0.9)

    def test_derived_constants(self):
        p = Params(0.2, 4.0)
        assert p.sqrt_gamma == 2.0
        assert p.mu == 4.5
        assert p.offset2 == 1.0
        # The derived numbers are fields formed once: no argument, no part of eq,
        # hash or repr, no property, no __dict__ to set anything in later.
        given = [f.name for f in dataclasses.fields(Params) if f.init]
        assert given == ["alpha", "gamma"]
        assert [f.name for f in dataclasses.fields(Params) if f.compare or f.repr] == given
        assert not [name for name, v in vars(Params).items() if isinstance(v, property)]
        assert not hasattr(p, "__dict__")
        assert p == Params(0.2, 4) and hash(p) == hash((0.2, 4.0))
        assert repr(p) == "Params(alpha=0.2, gamma=4.0)"
        derived = [f.name for f in dataclasses.fields(Params) if not f.init]
        for name in derived:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, name, 1.0)
        gs = gamma_star(0.2)
        above, below = gs, gs
        for _ in range(3):
            above, below = math.nextafter(above, math.inf), math.nextafter(below, 1.0)
        sign_of = {Regime.EQUAL_CIRCULATION: None, Regime.SUBCRITICAL: 1,
                   Regime.CRITICAL: 0, Regime.SUPERCRITICAL: -1}
        for gamma in (1.0, math.nextafter(1.0, 2.0), 1.1, below, above, 1e154):
            p = Params(0.2, gamma)
            q = dataclasses.replace(Params(0.2, 4.0), gamma=gamma)
            values = [getattr(p, name) for name in derived]
            assert [getattr(q, name) for name in derived] == values
            if sys.version_info >= (3, 11):  # pickling a frozen slotted dataclass
                assert [getattr(pickle.loads(pickle.dumps(p)), name) for name in derived] == values
            equal = p.regime is Regime.EQUAL_CIRCULATION
            assert equal == (gamma < 1.1)
            assert sign_of[p.regime] == (None if equal else k_sign(p))
            if p.k > 0.0:
                assert p.v_star < p.v0

    @pytest.mark.parametrize("gamma", [1.0 + 1e-8, 1.0 + 1e-6])
    def test_offset2_does_not_cancel_near_one(self, gamma):
        # (sqrt(gamma) - 1)**2 kept only about 5e-9 relative at 1 + 1e-8.
        with mpmath.workdps(40):
            exact = (mpmath.sqrt(mpmath.mpf(gamma)) - 1) ** 2
            assert abs(Params(0.2, gamma).offset2 - exact) / exact <= 4e-16


class TestFullSystem:
    def test_overlapping_filaments_rejected(self):
        p = Params(0.2, 1.0)
        s = FullState(1.0, 0.0, 1.0, 0.0)
        with pytest.raises(SeparationZero):
            full_field(p)(*s.astuple())

    def test_equal_rings_contract_at_same_rate(self):
        # Equal radii: separation is the axial gap alone, and both radial
        # rates reduce to -alpha/h**2.
        alpha, h = 0.3, 0.7
        p = Params(alpha, 1.0)
        s = FullState(1.0, h, 1.0, 0.0)
        dr1, _, dr2, _ = full_field(p)(*s.astuple())
        assert math.isclose(dr1, -alpha / h**2, rel_tol=1e-14)
        assert math.isclose(dr2, -alpha / h**2, rel_tol=1e-14)

    def test_vector_field_matches_finite_difference_of_independent_integration(self):
        # Central difference of a scipy-integrated trajectory around t = 0.
        p = Params(0.2, 1.1)
        s = FullState(1.0, 0.5, math.sqrt(1.1), 0.0)

        def f(t, y):
            return list(full_field(p)(*y))

        delta = 2e-5
        fwd = solve_ivp(f, (0.0, delta), list(s.astuple()), rtol=1e-12, atol=1e-14)
        bwd = solve_ivp(f, (0.0, -delta), list(s.astuple()), rtol=1e-12, atol=1e-14)
        fd = [(a - b) / (2.0 * delta) for a, b in zip(fwd.y[:, -1], bwd.y[:, -1])]
        for got, want in zip(full_field(p)(*s.astuple()), fd):
            assert abs(got - want) < 5e-8

    def test_conserved_combination_values(self):
        assert conserved_d(FullState(1.0, 0.0, 1.2, 0.0), Params(0.2, 1.44)) == pytest.approx(0.0, abs=1e-15)
        assert conserved_d(FullState(2.0, 0.3, 1.0, 0.0), Params(0.2, 1.0)) == 3.0

    def test_conservation_along_trajectory(self):
        p = Params(0.2, 1.3)
        s = FullState(1.0, 0.8, 1.2, 0.0)
        tau = 1e-10
        cfg = IntegrationConfig(rel_tol=tau, abs_tol=1e-12)
        traj = integrate(s, p, 20.0, cfg)
        d0 = conserved_d(s, p)
        assert traj.drift["d"] <= 100.0 * tau * (1.0 + abs(d0))


class TestReduction:
    def test_zero_d_maps_to_planar_chart(self):
        p = Params(0.2, 4.0)
        rs = reduce_state(FullState(1.0, 1.0, 2.0, 0.0), p)
        assert isinstance(rs, ReducedState)
        assert rs.theta == 0.0
        assert rs.w == 1.0

    def test_nonzero_d_selects_hyperbolic_chart(self):
        p = Params(0.2, 1.0)
        hs = reduce_state(FullState(2.0, 0.5, 1.0, 0.5), p)
        assert isinstance(hs, HyperbolicState)
        assert hs.d == 3.0
        assert hs.w == 0.0

    @pytest.mark.parametrize("r1,r2", [(1e200, 1e200), (1e200, 1.0), (1.0, 1e200)])
    def test_overflowing_d_is_rejected(self, r1, r2):
        # d = inf - inf, inf or -inf: no chart holds the state, and the error says why.
        with pytest.raises(DomainError, match="d = gamma.*not representable"):
            reduce_state(FullState(r1, 0.0, r2, 1.0), Params(0.2, 2.0))

    @pytest.mark.parametrize(
        "gamma,r1,r2",
        [
            (1.0, 2.0, 1.0),   # d > 0
            (1.0, 1.0, 2.0),   # d < 0
            (2.5, 1.3, 0.7),   # d > 0
            (1.7, 0.6, 1.9),   # d < 0
        ],
    )
    def test_round_trip_reproduces_radii(self, gamma, r1, r2):
        p = Params(0.3, gamma)
        hs = reduce_state(FullState(r1, 0.4, r2, -0.1), p)
        assert isinstance(hs, HyperbolicState)
        r1b, r2b = hyperbolic_radii(hs, p)
        assert rel_err(r1b, r1) < 1e-12
        assert rel_err(r2b, r2) < 1e-12
        assert math.isclose(p.gamma * r1b**2 - r2b**2, hs.d, rel_tol=1e-10)

    @given(case=nonzero_d_states(), zero_d=st.booleans(), k=st.integers(-150, 150))
    @settings(max_examples=200)
    def test_chart_and_angle_are_scale_free(self, case, zero_d, k):
        # The d = 0 cut scales with gamma*R1**2, so (R, z) -> (lam*R, lam*z)
        # keeps the chart; theta = log R1 moves by log(lam) on d = 0, and the
        # hyperbolic angle stays.  A d = 0 sample has |d| about 1e-16*gamma*R1**2.
        p, s = case
        if zero_d:
            s = FullState(s.r1, s.z1, p.sqrt_gamma * s.r1, s.z2)
        lam = 10.0 ** k
        base = reduce_state(s, p)
        scaled = reduce_state(FullState(lam * s.r1, lam * s.z1, lam * s.r2, lam * s.z2), p)
        assert type(scaled) is type(base) is (ReducedState if zero_d else HyperbolicState)
        assert abs(scaled.theta - (math.log(lam) if zero_d else 0.0) - base.theta) < 1e-12

    @pytest.mark.parametrize("r1,r2,chart", [
        (1e-200, 2e-200, None),                      # d underflows to 0
        (1e-160, 2e-160, None),                      # d is subnormal
        (1e-150, 2e-150, HyperbolicState),           # d = -3e-300 is normal
        (1e-200, 1e-200, ReducedState),              # d = 0 on any scale
    ])
    def test_tiny_radii_keep_the_chart_or_are_refused(self, r1, r2, chart):
        # The d = 0 cut reads R2/R1, so squares that underflow cannot move a
        # d != 0 pair onto d = 0; a d that is not a normal float is refused.
        s, p = FullState(r1, 0.5, r2, 0.0), Params(0.2, 1.0)
        if chart is None:
            with pytest.raises(DomainError, match="not a normal float"):
                reduce_state(s, p)
        else:
            assert type(reduce_state(s, p)) is chart

    @given(case=nonzero_d_states())
    @settings(max_examples=200)
    def test_chart_round_trip_property(self, case):
        p, s = case
        hs = reduce_state(s, p)
        assert isinstance(hs, HyperbolicState)
        r1b, r2b = hyperbolic_radii(hs, p)
        assert rel_err(r1b, s.r1) < 1e-12
        assert rel_err(r2b, s.r2) < 1e-12


class TestCoplanarSaddle:
    """The d > 0 chart's equilibrium on W = 0, right of the contact angle."""

    @staticmethod
    def w_rate(p, theta, d):
        """W' at (theta, 0) over its self-induction part, which it cancels at the saddle."""
        self_induction = p.gamma * p.sqrt_gamma / math.cosh(theta) + 1.0 / math.sinh(theta)
        return hyperbolic_field(p, d)(theta, 0.0)[1] * math.sqrt(d) / self_induction

    @pytest.mark.parametrize("alpha,gamma", [(0.2, 2.0), (0.5, 2.5), (0.9, 4.0), (0.05, 1.2)])
    def test_the_field_rests_where_the_coplanar_energy_is_least(self, alpha, gamma):
        p = Params(alpha, gamma)
        theta_m = _coplanar_saddle(p)
        assert math.atanh(1.0 / p.sqrt_gamma) < theta_m < math.inf
        for d in (0.01, 1.0, 30.0):  # d scales the energy and leaves the saddle
            assert abs(self.w_rate(p, theta_m, d)) < 1e-12
            energy = hyperbolic_energy(p, d)
            e_m = energy(theta_m, 0.0)
            assert energy(theta_m * (1 - 1e-3), 0.0) > e_m < energy(theta_m * (1 + 1e-3), 0.0)

    @pytest.mark.parametrize("alpha,gamma", [(0.5, 1.01), (0.5, 1.5), (0.2, 1.0)])
    def test_no_saddle_where_the_coplanar_energy_only_falls(self, alpha, gamma):
        p = Params(alpha, gamma)
        assert _coplanar_saddle(p) == math.inf
        if gamma > 1.0:
            theta_c = math.atanh(1.0 / p.sqrt_gamma)
            assert all(self.w_rate(p, theta_c + k / 8, 1.0) > 0.0 for k in range(1, 120))

    def test_matches_a_bisection_of_the_field(self):
        # W' > 0 right of the contact angle up to the saddle, < 0 after it.
        rng = random.Random(5)
        found = 0
        for _ in range(300):
            p = Params(rng.uniform(0.02, 0.98), rng.uniform(1.0, 6.0))
            theta_c = math.atanh(1.0 / p.sqrt_gamma)
            lo, hi = theta_c * (1 + 1e-9), 20.0
            if self.w_rate(p, hi, 1.0) > 0.0:
                assert _coplanar_saddle(p) > hi
                continue
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                if self.w_rate(p, mid, 1.0) > 0.0:
                    lo = mid
                else:
                    hi = mid
            assert rel_err(_coplanar_saddle(p), lo) < 1e-9
            found += 1
        assert found > 200


class TestReducedField:
    def test_equal_circulation_values(self):
        p = Params(0.5, 1.0)
        assert reduced_field(p)(0.0, 1.0) == (-0.5, -2.0)

    def test_singular_line_rejected(self):
        with pytest.raises(OnSingularLine):
            reduced_field(Params(0.5, 1.0))(0.3, 0.0)

    @pytest.mark.parametrize("w", [1e-110, -1.3e-108])
    def test_gap_whose_cube_underflows_rejected(self, w):
        # |W|**3 underflows to 0 below |W| of about 1.4e-108.
        with pytest.raises(OnSingularLine, match="underflowed"):
            reduced_field(Params(0.5, 1.0))(0.3, w)

    @pytest.mark.parametrize("gamma", [1.2, 2.0, 5.0])
    def test_axis_degeneracy(self, gamma):
        p = Params(0.2, gamma)
        for theta in (-1.0, 0.0, 2.0):
            assert reduced_field(p)(theta, 0.0)[0] == 0.0

    def test_coplanar_line_is_stationary_at_critical_ratio(self):
        alpha = 0.2
        p = Params(alpha, gamma_star(alpha))
        for theta in (-1.0, 0.4, 2.0):
            dth, dw = reduced_field(p)(theta, 0.0)
            assert dth == 0.0
            assert abs(dw) < 1e-12

    def test_reflection_reversal_symmetry_exact(self):
        rng = random.Random(5)
        for _ in range(20):
            p = Params(rng.uniform(0.05, 0.95), 1.0 + rng.random() * 2.0)
            th, w = rng.uniform(-2, 2), rng.uniform(0.1, 2.0)
            f1p, f2p = reduced_field(p)(th, w)
            f1m, f2m = reduced_field(p)(th, -w)
            assert f1m == -f1p
            assert f2m == f2p


class TestEnergy:
    def test_equal_circulation_zero_level(self):
        # W = (alpha/2) e^theta puts the state on the zero level.
        p = Params(0.5, 1.0)
        assert reduced_energy(p)(0.0, 0.25) == 0.0

    def test_divergence_toward_contact(self):
        p = Params(0.5, 1.0)
        assert reduced_energy(p)(0.0, 1e-12) > 1e10
        with pytest.raises(Divergent):
            reduced_energy(p)(0.0, 0.0)

    def test_constancy_along_trajectory(self):
        p = Params(0.2, 1.4)
        cfg = IntegrationConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(ReducedState(0.2, -0.8), p, 30.0, cfg)
        assert traj.drift["H"] < 1e-8


class TestLevelSetForms:
    # On the energy level h0 the d = 0 state is fixed by theta alone:
    # a = h0 + mu*exp(-theta) = alpha*sqrt(gamma)/D > 0 and W = sqrt(bracket)/a
    # on the W > 0 branch (conftest.level_w).  The separation event's arming
    # and the oracle's time to the axis rest on these forms.
    def _random_cases(self, n=60):
        rng = random.Random(11)
        cases = []
        while len(cases) < n:
            gamma = rng.choice([1.0, 1.0 + 1.5 * rng.random()])
            p = Params(rng.uniform(0.05, 0.95), gamma)
            th = rng.uniform(-1.0, 1.5)
            w = rng.uniform(0.05, 2.5)
            cases.append((p, th, w))
        return cases

    def test_energy_form_agrees_with_state_form_on_upper_branch(self):
        # With the energy eliminated: dtheta/dt = -(a**2/a2g)*sqrt(bracket)
        # and dW/dt = -mu*exp(-theta) + (offset2/a2g)*a**3*exp(2*theta).
        for p, th, w in self._random_cases():
            h0 = reduced_energy(p)(th, w)
            a2g = p.alpha ** 2 * p.gamma
            a = h0 + p.mu * math.exp(-th)
            bracket = a2g - p.offset2 * math.exp(2.0 * th) * a * a
            dth = -(a * a / a2g) * math.sqrt(bracket)
            dw = -p.mu * math.exp(-th) + (p.offset2 / a2g) * a ** 3 * math.exp(2.0 * th)
            ref = reduced_field(p)(th, w)
            assert abs(dth - ref[0]) <= 1e-10 * max(1.0, abs(ref[0]))
            assert abs(dw - ref[1]) <= 1e-10 * max(1.0, abs(ref[1]))

    def test_gap_recovery_round_trip(self):
        for p, th, w in self._random_cases():
            h0 = reduced_energy(p)(th, w)
            assert abs(level_w(th, p, h0) - abs(w)) < 1e-12 * max(1.0, abs(w))

    def test_boundary_of_level_set_has_zero_gap(self):
        p = Params(0.2, 1.5)
        h0 = reduced_energy(p)(0.3, 0.0)
        assert level_w(0.3, p, h0) == pytest.approx(0.0, abs=1e-7)

    def test_equal_circulation_closed_form(self):
        p = Params(0.4, 1.0)
        th, h0 = 0.2, -0.5
        want = p.alpha / (h0 + 2.0 * math.exp(-th))
        assert math.isclose(level_w(th, p, h0), want, rel_tol=1e-12)
        assert math.isclose(reduced_energy(p)(th, want), h0, rel_tol=1e-12)

    def test_gap_derivative_vanishes_on_critical_axis(self):
        alpha = 0.2
        p = Params(alpha, gamma_star(alpha))
        _, dw = reduced_field(p)(0.7, 0.0)
        assert abs(dw) < 1e-10


def _level_state(p, h, u):
    """The float state (log u, W > 0) nearest the level h at s = u."""
    theta = math.log(u)
    return theta, level_w(theta, p, h)


@st.composite
def axis_states(draw):
    """(branch, p, theta, W): a d = 0 state, W >= 0, whose level reaches the axis,
    theta in [-3, 3] and alpha in (0.01, 0.99), on one of six branches, by v = W/u:
    gamma = 1; subcritical (gamma a fraction 0.05 to 0.95 of the way to
    gamma_star) with h0 < 0 (v > v0), with h0 > 0 left of theta_star (v* < v < v0),
    with W rising first (0 <= v < v*), or with |v - v0|/v0 in [1e-12, 0.1]; and
    the critical ratio."""
    branch = draw(st.sampled_from(("gamma1", "subcritical-h-neg", "subcritical-h-pos",
                                   "w-rises-first", "near-zero-level", "critical")))
    alpha = draw(st.floats(0.01, 0.99))
    theta = draw(st.floats(-3.0, 3.0))
    gs = gamma_star(alpha)
    if branch == "gamma1":
        p = Params(alpha, 1.0)
        v = alpha / p.mu * 10.0 ** draw(st.floats(-6.0, 6.0))
    elif branch == "critical":
        p = Params(alpha, gs)
        assume(p.regime is Regime.CRITICAL)
        v = p.offset * 10.0 ** draw(st.floats(-6.0, 6.0))
    else:
        p = Params(alpha, 1.0 + draw(st.floats(0.05, 0.95)) * (gs - 1.0))
        v0, vs = p.v0, p.v_star
        if branch == "subcritical-h-neg":
            v = v0 * (1.0 + 10.0 ** draw(st.floats(-3.0, 3.0)))
        elif branch == "subcritical-h-pos":
            v = vs + draw(st.floats(0.001, 0.999)) * (v0 - vs)
        elif branch == "w-rises-first":
            v = vs * draw(st.floats(0.0, 0.999))
        else:
            sign = draw(st.sampled_from((-1.0, 1.0)))
            v = v0 * (1.0 + sign * 10.0 ** draw(st.floats(-12.0, -1.0)))
    return branch, p, theta, v * math.exp(theta)


class TestTimeToAxis:
    # z = h*u/mu runs log-stratified over [1e-12, 0.999]: near 0, where v
    # nears v_f = sqrt(K)/mu, the antiderivative's bracket G(v_f) - G(v) and
    # g(v)**2 both vanish as (v_f - v)**2; near 1 the h < 0 level's m(u)
    # nears 0.  Each level is posed as a float state, and the reference is
    # taken on that state's own level.
    @staticmethod
    def _cases(n_per_branch=20):
        rng = random.Random(20240613)
        cases = []
        while len(cases) < 4 * n_per_branch:
            alpha = rng.uniform(0.02, 0.98)
            gs = gamma_star(alpha)
            branch = len(cases) % 4
            sub = 1.0 + rng.uniform(0.05, 0.95) * (gs - 1.0)
            gamma = (1.0, sub, gs, sub)[branch]
            p = Params(alpha, gamma)
            if branch == 2 and k_sign(p) != 0:
                continue
            u = math.exp(rng.uniform(-2.0, 2.0))
            z_hi = 0.999
            if branch == 3:  # h > 0, left of the separatrix: z <= c - 1
                h_any = 0.5 * p.mu / u
                z_hi = min(z_hi, h_any * math.exp(theta_star(p, h_any)) / p.mu)
            top = math.log10(z_hi)  # one draw from each of n strata of log10(z)
            z = 10.0 ** (-12.0 + (top + 12.0) * (len(cases) // 4 + rng.random()) / n_per_branch)
            sign = 1.0 if branch == 3 or (branch == 0 and rng.random() < 0.5) else -1.0
            h = sign * z * p.mu / u
            if branch == 3:
                assert math.log(u) <= theta_star(p, h)
            cases.append((("gamma1", "subcritical-h-neg", "critical", "subcritical-h-pos")[branch],
                          p, *_level_state(p, h, u)))
        return cases

    def test_matches_a_40_digit_quadrature(self):
        worst = {}
        for name, p, theta, w in self._cases():
            assert monotone_approach(p, theta, w), (name, p, theta, w)
            want = quadrature_time(p, theta, w, critical=name == "critical")
            got = time_to_axis(p, theta, w)
            assert math.isfinite(got)
            err = float(abs(got - want) / want)
            worst[name] = max(worst.get(name, 0.0), err)
            assert err < 1e-11, (name, p, theta, w, got, want)
        assert sorted(worst) == ["critical", "gamma1", "subcritical-h-neg", "subcritical-h-pos"]

    def test_zero_energy_level(self):
        # h = 0: t = a2g*u**2/(2*mu**2*sqrt(K)), the classifier's exact h0 = 0 time.
        for p in (Params(0.3, 1.0), Params(0.3, 1.1)):
            theta, w = _level_state(p, 0.0, 2.0)
            k = p.alpha ** 2 * p.gamma - p.offset2 * p.mu ** 2
            want = p.alpha ** 2 * p.gamma * 4.0 / (2.0 * p.mu ** 2 * math.sqrt(k))
            on_level = quadrature_time(p, theta, w)
            assert rel_err(on_level, want) < 1e-14
            assert rel_err(time_to_axis(p, theta, w), on_level) < 1e-14

    def test_gamma1_across_the_old_series_switch(self):
        # z = h*u/mu log-uniform in 0.01 < |z| < 0.25, either side of the old
        # switch |z| = 0.05, where the closed form was 4.1e-15 off.
        rng = random.Random(31)
        worst = 0.0
        for _ in range(24):
            p = Params(rng.uniform(0.02, 0.98), 1.0)
            u = math.exp(rng.uniform(-2.0, 2.0))
            z = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, math.log10(0.25))
            theta, w = _level_state(p, z * p.mu / u, u)
            want = quadrature_time(p, theta, w)
            worst = max(worst, float(abs(time_to_axis(p, theta, w) - want) / want))
        assert worst < 2e-15

    def test_gamma1_far_from_zero_energy_stays_finite(self):
        # z = h*u/mu = 2.5e99: the log form, with no artanh to round to -1.
        # On the level of (0, W), t = -(W**2/alpha)*log_tail(y), y = mu*W/alpha.
        p, w = Params(0.5, 1.0), 1e-100
        with mpmath.workdps(40):
            w_mp, alpha = mpmath.mpf(w), mpmath.mpf(0.5)
            y = 2 * w_mp / alpha
            want = -(w_mp ** 2 / alpha) * (mpmath.log(y) - (y - 1)) / (y - 1) ** 2
        got = time_to_axis(p, 0.0, w)
        assert math.isfinite(got) and rel_err(got, float(want)) < 1e-15


    @pytest.mark.parametrize("alpha", [0.2, 0.5])
    @pytest.mark.parametrize("frac", [0.3, 0.7])
    def test_where_w_rises_first(self, alpha, frac):
        # A W0 > 0 state with 0 < v < v* (v = W0*exp(-theta0)) fails
        # monotone_approach: W rises on the way, yet its branch reaches the
        # axis (K > 0) and the closed form gives the time: the band's axis
        # blow-up times rest on this.  The plain run ends by step collapse
        # at the blow-up.
        p = Params(alpha, mid_subcritical_gamma(alpha))
        theta = 0.5
        w = frac * p.v_star * math.exp(theta)
        assert not monotone_approach(p, theta, w)
        got = time_to_axis(p, theta, w)
        assert rel_err(got, quadrature_time(p, theta, w)) < 1e-14
        traj = integrate(ReducedState(theta, w), p, 2.0 * got + 10.0,
                         IntegrationConfig(rel_tol=1e-12, abs_tol=1e-14))
        assert traj.outcome is Outcome.STEP_COLLAPSED
        assert rel_err(traj.t_final, got) < 1e-10

    @given(case=axis_states())
    @settings(max_examples=200)
    @example(case=("critical", Params(0.3603329315891951, gamma_star(0.3603329315891951)),
                   -1.064421528649878, 0.014510633693760502))
    @example(case=("subcritical-h-neg", Params(0.03680763356834348, 1.0374783496927085),
                   -291.3326430388195, 9.212217716724395e178))
    @example(case=("subcritical-h-neg", Params(0.05722481711940921, 1.0588361222688987),
                   -73.75766274052717, 6.368939024748073e275))
    def test_within_1e_14_of_the_closed_form(self, case):
        # The reference is the F(m) form in mpmath (conftest), which shares no
        # step with the antiderivative.  Pinned: a critical-ratio state and two
        # far ones (time 2.9e243 for the last), which a form that cancelled
        # its O(z) terms by hand missed by 3.4e-14, 7.2e-13 and 2.1e-12.
        branch, p, theta, w = case
        if branch in ("subcritical-h-pos", "w-rises-first"):
            assert monotone_approach(p, theta, w) is (branch == "subcritical-h-pos")
        want = closed_form_time(p, theta, w)
        got = time_to_axis(p, theta, w)
        assert float(abs(got - want) / want) < 1e-14, (p, theta, w, got)

    def test_from_a_coplanar_state(self):
        # W = 0 on a subcritical level, the turning point of a W0 < 0 orbit:
        # no radicand is formed.  At equal circulation and at rest on the
        # critical ratio there is no time.
        for p, theta in ((Params(0.2, 1.1), 0.5), (Params(0.5, 1.3), -1.0),
                         (Params(0.9, 1.05), 2.0)):
            want = float(closed_form_time(p, theta, 5e-324))
            assert rel_err(time_to_axis(p, theta, 0.0), want) < 2e-15
        for p in (Params(0.2, 1.0), Params(0.2, gamma_star(0.2))):
            with pytest.raises(NumericalFailure):
                time_to_axis(p, 0.0, 0.0)


class TestTimeToAxisAtTheExtremes:
    # theta over [-745, 710] and W log-uniform over [5e-324, 1.7e308], and
    # half the states with v = W*exp(-theta) near 1, in all four regimes:
    # every call gives a finite time, 0.0 only where the true time
    # underflows, or NumericalFailure, never another error.  Where the
    # state's level reaches the axis monotonically and the time is a normal
    # float, it is within 1e-13 of the closed form at full precision.
    @staticmethod
    def _states(n=160):
        rng = random.Random(2024)
        states = [
            # h = -8.811011712566723e94 at u = 2.4111941161029307e-95, where
            # h*u rounded to -mu; and h = -6.19178072758553e194 at u =
            # 3.2300885458254823e-195, one ulp above -6.191780727585532e194,
            # whose m(u) = mu + h*u is below 0: the nearest float states.
            (Params(0.2, gamma_star(0.2)), -217.86546172578323, 5.914741520746038e-80),
            (Params(0.999, 1.0000000012873984), -447.8315835834118, 3.2132818876871345e-179),
        ]
        while len(states) < n:
            alpha = rng.uniform(0.01, 0.999)
            gs = gamma_star(alpha)
            gamma = rng.choice((1.0, 1.0 + 10.0 ** rng.uniform(-9.0, -0.05) * (gs - 1.0),
                                gs, gs + 10.0 ** rng.uniform(-3.0, 3.0)))
            if rng.random() < 0.5:  # v = W*exp(-theta) within 1e3 of 1
                theta = rng.uniform(-300.0, 300.0)
                w = math.exp(theta) * 10.0 ** rng.uniform(-3.0, 3.0)
            else:
                theta = rng.choice((-745.0, -709.5, 709.5, 710.0, rng.uniform(-745.0, 710.0)))
                w = rng.choice((5e-324, 1.7e308, 10.0 ** rng.uniform(-300.0, 300.0)))
            states.append((Params(alpha, gamma), theta, w))
        return states

    def test_a_time_or_a_numerical_failure(self):
        outcomes = set()
        for p, theta, w in self._states():
            try:
                monotone = monotone_approach(p, theta, w)
                assert monotone in (True, False)
            except NumericalFailure:
                monotone = False
            try:
                t = time_to_axis(p, theta, w)
            except NumericalFailure:
                outcomes.add("numerical-failure")
                continue
            assert 0.0 <= t < math.inf, (p, theta, w, t)
            want = closed_form_time(p, theta, w)
            if t == 0.0:
                outcomes.add("underflow")
                assert float(want) == 0.0, (p, theta, w, want)
            elif monotone and t >= sys.float_info.min:
                outcomes.add("time")
                assert float(abs(t - want) / want) < 1e-13, (p, theta, w, t, want)
        assert outcomes == {"numerical-failure", "underflow", "time"}

    def test_every_normal_float_time_is_reached(self):
        # 1,000 states, theta in [-700, 700], v = W/u log-uniform over
        # [1e-300, 1e300] and W a normal float, at gamma = 1, subcritical and
        # critical: where the closed form's time is a normal float it is
        # answered within 1e-13, where it overflows refused, and 0.0 only
        # where it underflows.  A time of 0.0 or a refusal for a far state
        # whose time is a float (1.1e265, say) fails here.
        rng = random.Random(9)
        seen, n = set(), 0
        while n < 1000:
            alpha = rng.uniform(0.01, 0.99)
            gs = gamma_star(alpha)
            gamma = (1.0, 1.0 + rng.uniform(0.0, 1.0) * (gs - 1.0), gs)[n % 3]
            theta = rng.uniform(-700.0, 700.0)
            w = math.exp(theta) * 10.0 ** rng.uniform(-300.0, 300.0)
            if not sys.float_info.min <= w < math.inf:
                continue
            n += 1
            p = Params(alpha, gamma)
            want = closed_form_time(p, theta, w)
            if want > sys.float_info.max:
                seen.add("overflow")
                with pytest.raises(NumericalFailure):
                    time_to_axis(p, theta, w)
                continue
            got = time_to_axis(p, theta, w)
            if want >= sys.float_info.min:
                seen.add("normal")
                assert float(abs(got - want) / want) < 1e-13, (p, theta, w, got, want)
            else:
                seen.add("underflow")
                assert got < sys.float_info.min, (p, theta, w, got, want)
        assert seen == {"normal", "overflow", "underflow"}

    def test_gamma1_time_where_y_is_below_the_normal_range(self):
        # At gamma = 1 the time reads log(y), y = mu*exp(-theta)*W/alpha.
        # Where y is subnormal or 0, log(y) is log(mu/alpha) + log(W) - theta,
        # not the log of y's few digits.  Two far-scan states whose times
        # lost digits that way, then a seeded sample with log(y) in [-800,
        # -708.4] and W a normal float.
        states = [(Params(0.5180096086472702, 1.0), 424.62798073367594, 2.749636712494256e-138),
                  (Params(0.6585698635938698, 1.0), 455.6437527322207, 2.9870836646854804e-118)]
        rng = random.Random(33)
        while len(states) < 200:
            p, log_w = Params(rng.uniform(0.01, 0.99), 1.0), rng.uniform(-340.0, 340.0)
            theta = math.log(p.mu / p.alpha) + log_w - rng.uniform(-800.0, -708.4)
            states.append((p, theta, math.exp(log_w)))
        seen = set()
        for p, theta, w in states:
            y = p.mu * math.exp(-theta) * w / p.alpha
            assert y < sys.float_info.min, (p, theta, w)
            seen.add("zero" if y == 0.0 else "subnormal")
            want = closed_form_time(p, theta, w)
            assert float(abs(time_to_axis(p, theta, w) - want) / want) < 1e-13, (p, theta, w)
        assert seen == {"zero", "subnormal"}

    def test_gamma1_time_where_exp_minus_theta_is_subnormal(self):
        # Above theta = 708.4, exp(-theta) is subnormal or 0 while y =
        # mu*exp(-theta)*W/alpha is normal: y is formed from two normal
        # halves, exp(-theta/2), not from the few digits of exp(-theta).  A
        # state that was 1.3e-3 off that way, then a seeded sample with theta
        # in [700, 745], y normal and the time a normal float.
        states = [(Params(0.19701321179777176, 1.0), 744.9454936842565, 7.448955891413663e151)]
        rng = random.Random(34)
        while len(states) < 500:
            p, theta = Params(rng.uniform(0.01, 0.99), 1.0), rng.uniform(700.0, 745.0)
            log_w = rng.uniform(theta - 708.0 - math.log(p.mu / p.alpha), 354.0)
            states.append((p, theta, math.exp(log_w)))
        subnormal = 0
        for p, theta, w in states:
            subnormal += math.exp(-theta) < sys.float_info.min
            want = closed_form_time(p, theta, w)
            if not sys.float_info.min <= want <= sys.float_info.max:
                continue
            assert float(abs(time_to_axis(p, theta, w) - want) / want) < 1e-13, (p, theta, w)
        assert subnormal > 400

    def test_a_nan_state_decides_nothing(self):
        for p in (Params(0.2, 1.0), Params(0.2, 1.1), Params(0.2, gamma_star(0.2))):
            assert monotone_approach(p, math.nan, 1.0) is False
            assert monotone_approach(p, 0.0, math.nan) is False
            with pytest.raises(NumericalFailure):
                time_to_axis(p, 0.0, math.nan)


class TestLogTail:
    def test_matches_40_digits(self):
        # y log-uniform over [1e-300, 1e300], and 1 + d with |d| log-uniform
        # down to 1e-300 (so y = 1 and its neighbours), across |x| = 0.4.
        rng = random.Random(47)
        ys = [10.0 ** rng.uniform(-300.0, 300.0) for _ in range(200)]
        ys += [1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, -0.05)
               for _ in range(400)]
        ys += [0.6, 1.4, math.nextafter(0.6, 1.0), math.nextafter(1.4, 1.0),
               math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 5e-324, 1e300]
        worst = 0.0
        with mpmath.workdps(40):
            for y in ys:
                x = mpmath.mpf(y) - 1
                want = (mpmath.log(y) - x) / x ** 2 if x else mpmath.mpf(-0.5)
                worst = max(worst, float(abs((log_tail(y) - want) / want)))
        assert worst < 2e-15
        assert log_tail(1.0) == -0.5


class TestHyperbolicChart:
    def test_energy_needs_positive_angle(self):
        p = Params(0.2, 2.0)
        e = hyperbolic_energy(p, 1.0)
        with pytest.raises(DomainError):
            e(-0.5, 1.0)
        with pytest.raises(DomainError):
            HyperbolicState(-0.5, 1.0, 1.0)

    def test_energy_diverges_at_contact(self):
        p = Params(0.2, 2.0)
        contact = math.atanh(1.0 / math.sqrt(2.0))
        near = hyperbolic_energy(p, 1.0)(contact, 1e-9)
        assert near > 1e6

    @pytest.mark.parametrize("d", [0.8, -0.6])
    def test_field_is_energy_gradient(self, d):
        # theta' = dH/dW and W' = -dH/dtheta, by central differences.
        p = Params(0.25, 1.7)
        e = hyperbolic_energy(p, d)
        th, w = 0.9, 0.4
        dth, dw = hyperbolic_field(p, d)(th, w)
        eps = 1e-6
        dh_dw = (e(th, w + eps) - e(th, w - eps)) / (2 * eps)
        dh_dth = (e(th + eps, w) - e(th - eps, w)) / (2 * eps)
        assert math.isclose(dth, dh_dw, rel_tol=1e-7, abs_tol=1e-9)
        assert math.isclose(dw, -dh_dth, rel_tol=1e-7, abs_tol=1e-9)

    def test_field_agrees_with_the_full_system(self):
        # The 4-D field pushed through the chart map: R2 = sqrt(d) sinh(theta)
        # for d > 0 and R1 = sqrt(|d|/gamma) sinh(theta) for d < 0 give
        # theta' from R2' or R1', and W' = z1' - z2'.
        rng = random.Random(19)
        worst = 0.0
        signs = set()
        for _ in range(2000):
            p = Params(rng.uniform(0.02, 0.98), 1.0 + 3.0 * rng.random())
            s = FullState(math.exp(rng.uniform(-1, 1.5)), rng.uniform(-2, 2),
                          math.exp(rng.uniform(-1, 1.5)), rng.uniform(-2, 2))
            hs = reduce_state(s, p)
            if not isinstance(hs, HyperbolicState):
                continue
            dr1, dz1, dr2, dz2 = full_field(p)(*s.astuple())
            if hs.d > 0.0:
                want_th = dr2 / (math.sqrt(hs.d) * math.cosh(hs.theta))
            else:
                want_th = dr1 / (math.sqrt(-hs.d / p.gamma) * math.cosh(hs.theta))
            dth, dw = hyperbolic_field(p, hs.d)(hs.theta, hs.w)
            for got, want in ((dth, want_th), (dw, dz1 - dz2)):
                worst = max(worst, abs(got - want) / max(abs(want), 1e-3))
            signs.add(hs.d > 0.0)
        assert signs == {True, False}
        assert worst < 1e-10

    def test_constancy_along_trajectory(self):
        p = Params(0.2, 2.0)
        hs = reduce_state(FullState(1.0, 0.6, 1.1, 0.0), p)
        cfg = IntegrationConfig(rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(hs, p, 40.0, cfg)
        assert traj.drift["H"] < 1e-8

    def test_separation_matches_radii_gap(self):
        p = Params(0.2, 1.6)
        for full in (FullState(1.0, 0.7, 1.4, 0.0), FullState(1.2, 0.7, 0.9, 0.1)):
            hs = reduce_state(full, p)
            want = math.hypot(full.r1 - full.r2, full.z1 - full.z2)
            got = hyperbolic_separation(hs.theta, hs.w, hs.d, p.gamma)
            assert rel_err(got, want) < 1e-12


class TestAnsatzResidual:
    def test_reduction_is_exact_for_random_states(self):
        rng = random.Random(3)
        for _ in range(25):
            p = Params(rng.uniform(0.05, 0.95), 1.0 + 2.0 * rng.random())
            s = FullState(
                math.exp(rng.uniform(-1, 1.5)),
                rng.uniform(-2, 2),
                math.exp(rng.uniform(-1, 1.5)),
                rng.uniform(-2, 2),
            )
            assert ansatz_residual(s, p, n_samples=16) < 1e-10

    def test_symmetric_configuration(self):
        p = Params(0.5, 1.0)
        s = FullState(1.0, 0.5, 1.0, -0.5)
        assert ansatz_residual(s, p, n_samples=16) < 1e-10

    def test_offset_invariance(self):
        p = Params(0.2, 1.3)
        s = FullState(1.1, 0.4, 0.9, 0.0)
        a = ansatz_residual(s, p, n_samples=16, xi0=0.0)
        b = ansatz_residual(s, p, n_samples=16, xi0=0.731)
        assert a < 1e-10 and b < 1e-10

    def test_sample_count_validated(self):
        with pytest.raises(DomainError):
            ansatz_residual(FullState(1, 0, 1, 1), Params(0.2, 1.0), n_samples=3)

    def test_overlap_propagates(self):
        with pytest.raises(SeparationZero):
            ansatz_residual(FullState(1, 0, 1, 0), Params(0.2, 1.0))
