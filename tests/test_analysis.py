"""Regime analysis: threshold, separatrix, classifier, times, corridor, certificate."""

from __future__ import annotations

import collections
import decimal
import itertools
import math
import random
import statistics
from decimal import Decimal

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from filcol import (
    ConfigInvalid,
    Divergent,
    DomainError,
    EstimateKind,
    FilcolError,
    FormulaTag,
    FullState,
    HyperbolicState,
    IntegrationConfig,
    NumericalFailure,
    OnSingularLine,
    Params,
    ReducedState,
    RegimeError,
    SimStatus,
    Verdict,
    apriori_corridor,
    classify,
    collision_time,
    gamma_star,
    hyperbolic_energy,
    hyperbolic_separation,
    integrate,
    no_collision_certificate,
    reduce_state,
    reduced_energy,
    simulate_until_collision,
    theta_star,
)
from filcol import analysis, dynamics
from filcol.analysis import _last_positive, _positive_near_peak, axis_energy, quartic
from filcol.dynamics import Regime, hyperbolic_kinetic, k_sign, reduced_field, time_to_axis
from filcol.verify import classifier_oracle_grid, h0_zero_w, mid_subcritical_gamma

from conftest import (
    closed_form_time, energy_40, h0_error, level_w, linspace, nonzero_d_sample, nonzero_d_states,
    quadrature_time, rel_err
)

CFG = IntegrationConfig(rel_tol=1e-10, abs_tol=1e-12)


def bisect_quartic(alpha: float, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Independent plain-bisection root of the balance quartic."""
    flo = quartic(lo, alpha)
    assert flo > 0.0 > quartic(hi, alpha)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if quartic(mid, alpha) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def decimal_theta_star(alpha: float, gamma: float, h0: float) -> float:
    """theta_star from the cubic -y**3/mu**2 + (offset2/(alpha**2 gamma))*(h0 + y)**3,
    rooted by bisection at 40 digits; independent of the closed form."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        a, g, h = Decimal(alpha), Decimal(gamma), Decimal(h0)
        sg = g.sqrt()
        mu = g + 1 / sg
        k = (sg - 1) ** 2 * mu * mu / (a * a * g)

        def cubic(y: Decimal) -> Decimal:
            return k * (h + y) ** 3 - y ** 3

        lo = hi = h
        while cubic(hi) > 0:
            hi *= 2
        while cubic(lo) <= 0:
            lo /= 2
        while hi - lo > hi * Decimal("1e-36"):
            mid = (lo + hi) / 2
            if cubic(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float((mu / ((lo + hi) / 2)).ln())


def accepts(fn, *args) -> bool:
    """True if fn(*args) returns, False if it refuses with RegimeError."""
    try:
        fn(*args)
    except RegimeError:
        return False
    return True


class TestGammaStar:
    def test_reference_value(self):
        gs = gamma_star(0.2)
        assert abs(gs - 1.219) <= 1e-3
        assert abs(quartic(math.sqrt(gs), 0.2)) < 1e-12

    def test_against_plain_bisection(self):
        # Hand bracket at alpha = 0.5: the quartic is positive at 1.2 and
        # negative at 1.3.
        eta = bisect_quartic(0.5, 1.2, 1.3)
        assert rel_err(gamma_star(0.5), eta * eta) < 1e-11

    def test_small_interaction_limit(self):
        assert gamma_star(1e-8) < 1.0 + 1e-6

    def test_domain(self):
        for bad in (0.0, 1.0, -0.3, 2.0, math.nan, True, "0.2", [0.2], None):
            with pytest.raises(DomainError):
                gamma_star(bad)

    def test_memo_returns_the_computed_value(self):
        # The memo is keyed on float(alpha); its values are those of the
        # uncached root-finder, bit for bit.
        from filcol.analysis import _gamma_star

        for alpha in linspace(0.01, 0.99, 30):
            assert gamma_star(alpha) == _gamma_star.__wrapped__(alpha)
        assert gamma_star(0.2) is gamma_star(0.2)
        assert _gamma_star.cache_info().maxsize == 256

    def test_monotone_in_interaction_strength(self):
        values = [gamma_star(a) for a in linspace(0.05, 0.95, 10)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5, 0.9])
    def test_unique_sign_change(self, alpha):
        n = 0
        prev = quartic(1.0 + 1e-9, alpha)
        eta = 1.0
        while eta < 10.0:
            eta += 1e-3
            cur = quartic(eta, alpha)
            if prev > 0.0 >= cur or prev < 0.0 <= cur:
                n += 1
            prev = cur
        assert n == 1


class TestEquilibria:
    # The d = 0 field is stationary only at the critical ratio, and there on
    # the whole coplanar line (theta, 0).
    def test_equal_circulation(self):
        with pytest.raises(OnSingularLine):
            reduced_field(Params(0.3, 1.0))(0.0, 0.0)

    def test_critical_line(self):
        p = Params(0.2, gamma_star(0.2))
        for th in (-1.0, 0.0, 0.7, 2.0):
            dth, dw = reduced_field(p)(th, 0.0)
            assert dth == 0.0
            assert abs(dw) < 1e-13 * p.mu * math.exp(-th)

    def test_off_critical(self):
        # Supercritical: the gap shrinks on the coplanar line; subcritical:
        # it grows.
        assert reduced_field(Params(0.2, 2.0))(0.0, 0.0)[1] < 0.0
        assert reduced_field(Params(0.2, 1.1))(0.0, 0.0)[1] > 0.0


def band_edges(alpha: float) -> tuple[float, float]:
    """The first ratios below and above gamma_star outside the critical band,
    found by walking ulps out from gamma_star; classify's verdict at (0, 0)
    names the band: subcritical states rest off the line, critical ones
    rest on it, supercritical ones pass through."""
    edges = []
    for direction in (0.0, math.inf):
        gamma = gamma_star(alpha)
        for _ in range(1000):
            if classify(ReducedState(0.0, 0.0), Params(alpha, gamma)).verdict is not (
                Verdict.EQUILIBRIUM_REST
            ):
                break
            gamma = math.nextafter(gamma, direction)
        edges.append(gamma)
    return edges[0], edges[1]


class TestRegimeBoundaries:
    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5, 0.8, 0.95])
    def test_one_critical_band_for_every_function(self, alpha):
        # Each edge of the band and 3 ulps either side of it: every function
        # takes the regime from the same decision.
        lo, hi = band_edges(alpha)
        bands = set()
        for edge in (lo, hi):
            for k in range(-3, 4):
                gamma = edge
                for _ in range(abs(k)):
                    gamma = math.nextafter(gamma, math.copysign(math.inf, k))
                p = Params(alpha, gamma)
                assert isinstance(classify(ReducedState(0.0, 1e-6), p).verdict, Verdict)
                band = classify(ReducedState(0.0, 0.0), p).verdict
                bands.add(band)
                assert accepts(theta_star, p, 1.0) == (
                    band is Verdict.NO_COLLISION_SUBCRITICAL
                ), gamma
                assert accepts(apriori_corridor, ReducedState(0.0, 1e-6), p) == (
                    band is Verdict.GLOBAL_PASS_THROUGH
                ), gamma
                # The coplanar energy has the sign of K off the band.
                if band is Verdict.NO_COLLISION_SUBCRITICAL:
                    assert axis_energy(0.0, p) > 0.0, gamma
                elif band is Verdict.GLOBAL_PASS_THROUGH:
                    assert axis_energy(0.0, p) < 0.0, gamma
        assert bands == {
            Verdict.NO_COLLISION_SUBCRITICAL,
            Verdict.EQUILIBRIUM_REST,
            Verdict.GLOBAL_PASS_THROUGH,
        }

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5, 0.9])
    def test_estimates_either_side_of_each_band_edge(self, alpha):
        # The state (0.3, 1.0) 1 to 3 ulps out from each edge of the band
        # and on the edge itself.  Below the band the h0 < 0 bound holds,
        # about 3e6 times looser than the critical one (m1 -> 0 at
        # gamma_star); above it no collision is predicted, and the oracle,
        # which meets the near-collision by step collapse, does not report one.
        rs = ReducedState(0.3, 1.0)
        lo, hi = band_edges(alpha)
        steps = {"below": (lo, 0.0), "in-low": (math.nextafter(lo, math.inf), math.inf),
                 "in-high": (math.nextafter(hi, 0.0), 0.0), "above": (hi, math.inf)}
        bounds = {}
        for side, (edge, direction) in steps.items():
            gamma = edge
            for n in range(3 if side in ("below", "above") else 1):
                p = Params(alpha, gamma)
                assert (k_sign(p) == 0) == side.startswith("in"), (side, n)
                mc = classify(rs, p)
                result, _ = simulate_until_collision(rs, p, CFG, t_end=5.0, survival_witness=True)
                if side == "above":
                    assert mc.verdict is Verdict.GLOBAL_PASS_THROUGH and mc.formula_tag is None
                    assert result.status is not SimStatus.COLLIDED
                else:
                    assert mc.verdict is Verdict.ASYMMETRIC_COLLISION
                    assert mc.formula_tag is (FormulaTag.SUBCRITICAL_H0_NEGATIVE if side == "below"
                                              else FormulaTag.CRITICAL)
                    est = mc.estimate()
                    assert est.kind is EstimateKind.UPPER_BOUND
                    assert result.status is SimStatus.COLLIDED and est.value >= result.time
                    bounds.setdefault(side, est.value)
                gamma = math.nextafter(gamma, direction)
        assert 1e6 < bounds["below"] / bounds["in-low"] < 1e7
        assert rel_err(bounds["in-high"], bounds["in-low"]) < 1e-12

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5, 0.8, 0.95])
    def test_gamma_star_and_its_neighbours_are_critical(self, alpha):
        # An independently computed gamma_star (the benchmark's own, say)
        # lies within 3 ulps of this one and must land in the band.
        gamma = gamma_star(alpha)
        for _ in range(3):
            gamma = math.nextafter(gamma, 0.0)
        for _ in range(7):
            p = Params(alpha, gamma)
            assert k_sign(p) == 0, gamma
            assert classify(ReducedState(0.0, 0.0), p).verdict is Verdict.EQUILIBRIUM_REST
            gamma = math.nextafter(gamma, math.inf)

    @pytest.mark.parametrize("excess", [2e-11, 1e-10, 5e-10])
    @pytest.mark.parametrize("theta0, w0", [(-2.0, 2.0), (0.0, 1.0)])
    def test_just_above_gamma_star_passes_through(self, excess, theta0, w0):
        # K < 0 here, so the W > 0 branch of the level never reaches the
        # axis.  The oracle's separation event stays unarmed, so it reports
        # no collision (these runs end undecided, by step collapse at a
        # separation of about 4e-9*D0).
        p = Params(0.2, gamma_star(0.2) + excess)
        rs = ReducedState(theta0, w0)
        assert classify(rs, p).verdict is Verdict.GLOBAL_PASS_THROUGH
        result, _ = simulate_until_collision(rs, p, CFG)
        assert result.status is not SimStatus.COLLIDED

    @pytest.mark.parametrize("gamma", [1e155, 1e200, 1e300])
    def test_ratios_whose_quartic_overflows_pass_through(self, gamma):
        # sqrt(gamma) > 1.2e77: the quartic and its rounding bound overflow
        # to inf, and the ratio, far above gamma_star, stays supercritical.
        p = Params(0.5, gamma)
        assert k_sign(p) == -1
        assert p.law.regime is Regime.SUPERCRITICAL
        mc = classify(ReducedState(0.0, 1.0), p)
        assert mc.verdict is Verdict.GLOBAL_PASS_THROUGH
        assert not mc.predicts_collision

    def test_gamma_one_ulp_above_one_is_equal_circulation(self):
        # sqrt(gamma) rounds to 1 there, and the closed forms of gamma = 1
        # apply.
        p = Params(0.2, math.nextafter(1.0, 2.0))
        p1 = Params(0.2, 1.0)
        assert p.sqrt_gamma == 1.0
        for th0, w0 in ((0.0, 0.5), (1.0, 0.3), (-0.5, 2.0), (0.3, -0.4), (0.0, 0.2)):
            rs = ReducedState(th0, w0)
            mc, mc1 = classify(rs, p), classify(rs, p1)
            assert mc.verdict is mc1.verdict
            assert rel_err(mc.h0, mc1.h0) < 1e-14
            if mc.predicts_collision:
                est, est1 = collision_time(rs, p), collision_time(rs, p1)
                assert est.formula_tag is est1.formula_tag
                assert rel_err(est.value, est1.value) < 1e-12
        with pytest.raises(OnSingularLine):
            classify(ReducedState(0.0, 0.0), p)
        with pytest.raises(RegimeError):
            theta_star(p, 0.1)
        with pytest.raises(RegimeError):
            axis_energy(0.0, p)
        # The oracle reads the same record.  This W0 < 0 node ended
        # inconclusive at t = 69.97 while its survival witness tested
        # gamma == 1 exactly; like every node of criterion 04's grid it now
        # ends as at gamma = 1, with the same time.
        rs = ReducedState(0.3157894736842106, -0.10526315789473695)
        result, _ = simulate_until_collision(rs, p, CFG, survival_witness=True)
        assert result.status is SimStatus.SURVIVED
        nodes = linspace(-2.0, 2.0, 20)
        rows = classifier_oracle_grid(p, nodes, nodes, CFG, workers=1)
        rows1 = classifier_oracle_grid(p1, nodes, nodes, CFG, workers=1)
        assert [r[2] for r in rows] == [r[2] for r in rows1]
        assert [r[5] for r in rows] == [r[5] for r in rows1]
        assert collections.Counter(r[5] for r in rows) == {"collided": 200, "survived": 200}
        for r, r1 in zip(rows, rows1):
            assert (r[4] is None) == (r1[4] is None)
            assert r[4] is None or rel_err(r[4], r1[4]) < 1e-12


def level_gap_derivative(theta: float, p: Params, h0: float) -> float:
    """dW/dt at angle theta on the W > 0 branch of energy level h0."""
    return reduced_field(p)(theta, level_w(theta, p, h0))[1]


def decimal_k(alpha: float, gamma: float) -> Decimal:
    """K = alpha**2*gamma - offset2*mu**2 at 60 digits from the float inputs."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        a, g = Decimal(alpha), Decimal(gamma)
        sg = g.sqrt()
        mu = g + 1 / sg
        return a * a * g - (sg - 1) ** 2 * mu * mu


open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def near_critical(draw) -> Params:
    """A ratio within 80 ulps or 1e-9 of gamma_star(alpha), alpha in (0, 1)."""
    alpha = draw(open_unit)
    gs = gamma_star(alpha)
    gamma = gs + draw(st.one_of(
        st.integers(-80, 80).map(lambda k: k * math.ulp(gs)),
        st.floats(-1e-9, 1e-9),
    ))
    assume(gamma >= 1.0)
    return Params(alpha, gamma)


class TestRegimeDecision:
    @given(p=near_critical())
    @settings(max_examples=200)
    def test_decided_sign_is_the_sign_of_k(self, p):
        # Where k_sign decides, the exact K of the float inputs agrees, and
        # the functions of that regime can take it.
        sign = k_sign(p)
        if sign == 0:
            return
        assert (decimal_k(p.alpha, p.gamma) > 0) == (sign > 0)
        if sign < 0:
            apriori_corridor(ReducedState(0.0, 1e-6), p)
        elif p.offset2 > 0.0:
            assert math.isfinite(theta_star(p, 1.0))

    @given(a=open_unit, b=open_unit)
    @settings(max_examples=100)
    def test_gamma_star_is_monotone_and_below_its_bracket_end(self, a, b):
        lo, hi = sorted((a, b))
        assert 1.0 <= gamma_star(lo) <= gamma_star(hi) < 10.0


class TestThetaStar:
    def test_against_a_decimal_root_of_the_cubic(self):
        # Reference: the cubic's positive root, found by bisection in
        # 40-digit decimal arithmetic from the exact float inputs.
        rng = random.Random(7)
        cases = []
        for _ in range(40):
            alpha = rng.uniform(0.05, 0.9)
            gs = gamma_star(alpha)
            gamma = 1.0 + rng.uniform(0.05, 0.95) * (gs - 1.0)
            cases.append((alpha, gamma, 10.0 ** rng.uniform(-30.0, 2.0), 1e-13))
        for _ in range(20):
            gamma = 1.0 + 10.0 ** rng.uniform(-15.0, -6.0)
            cases.append((rng.uniform(0.05, 0.9), gamma, 10.0 ** rng.uniform(-30.0, 2.0),
                          1e-12))
        for alpha, gamma, h0, tol in cases:
            want = decimal_theta_star(alpha, gamma, h0)
            got = theta_star(Params(alpha, gamma), h0)
            assert abs(got - want) <= tol * max(1.0, abs(want)), (alpha, gamma, h0)

    def test_gap_derivative_changes_sign_across_separatrix(self):
        p = Params(0.2, 1.1)
        h0 = 0.1
        ts = theta_star(p, h0)
        assert level_gap_derivative(ts - 0.1, p, h0) < 0.0
        assert level_gap_derivative(ts + 0.1, p, h0) > 0.0

    def test_cubic_left_endpoint_sign(self):
        # At y -> 0+ the cubic reduces to its positive constant part,
        # guaranteeing the bracket's left sign.
        p = Params(0.2, 1.1)
        h0 = 0.1
        value = -(1e-12) ** 3 / p.mu**2 + (p.offset2 / (p.alpha**2 * p.gamma)) * (
            h0 + 1e-12
        ) ** 3
        assert value > 0.0
        assert math.isclose(
            value, (p.offset2 / (p.alpha**2 * p.gamma)) * h0**3, rel_tol=1e-9
        )

    def test_separatrix_property_random(self):
        rng = random.Random(13)
        delta = 1e-3
        for _ in range(25):
            alpha = rng.uniform(0.1, 0.8)
            gs = gamma_star(alpha)
            gamma = 1.0 + rng.uniform(0.1, 0.9) * (gs - 1.0)
            p = Params(alpha, gamma)
            h0 = rng.uniform(0.01, 1.0)
            ts = theta_star(p, h0)
            assert level_gap_derivative(ts - delta, p, h0) < 0.0
            assert level_gap_derivative(ts + delta, p, h0) > 0.0

    def test_regime_and_domain_errors(self):
        with pytest.raises(RegimeError):
            theta_star(Params(0.2, 2.0), 0.1)
        with pytest.raises(RegimeError):
            theta_star(Params(0.2, 1.0), 0.1)
        with pytest.raises(DomainError):
            theta_star(Params(0.2, 1.1), -0.1)

    def test_axis_energy_matches_state_energy(self):
        p = Params(0.2, 1.5)
        for th in (-1.0, 0.0, 2.0):
            assert math.isclose(
                axis_energy(th, p), reduced_energy(p)(th, 0.0), rel_tol=1e-14
            )


class TestClassifier:
    def test_equal_circulation(self):
        p = Params(0.5, 1.0)
        assert classify(ReducedState(0.0, 1.0), p).verdict is Verdict.HEAD_ON_COLLISION
        assert classify(ReducedState(2.0, -0.5), p).verdict is Verdict.NO_COLLISION_GAMMA1
        with pytest.raises(OnSingularLine):
            classify(ReducedState(0.0, 0.0), p)

    def test_supercritical_always_passes_through(self):
        p = Params(0.2, 2.0)
        for th in linspace(-2.0, 2.0, 5):
            for w in linspace(-2.0, 2.0, 5):
                assert classify(ReducedState(th, w), p).verdict is Verdict.GLOBAL_PASS_THROUGH

    def test_critical_ratio_cases(self):
        p = Params(0.2, gamma_star(0.2))
        assert classify(ReducedState(0.1, 0.7), p).verdict is Verdict.ASYMMETRIC_COLLISION
        assert classify(ReducedState(0.1, 0.0), p).verdict is Verdict.EQUILIBRIUM_REST
        assert classify(ReducedState(0.1, -0.7), p).verdict is Verdict.NO_COLLISION_SUBCRITICAL

    def test_subcritical_collision_conditions(self):
        p = Params(0.2, 1.1)
        # Negative energy, positive gap: collides.
        mc = classify(ReducedState(0.0, 1.0), p)
        assert mc.h0 < 0.0
        assert mc.verdict is Verdict.ASYMMETRIC_COLLISION
        assert mc.theta_star is None
        # Negative gap never collides.
        assert classify(ReducedState(0.0, -1.0), p).verdict is Verdict.NO_COLLISION_SUBCRITICAL

    def test_separatrix_field_presence(self):
        p = Params(0.2, 1.1)
        th0 = 2.0
        w_mid = 0.5 * h0_zero_w(p, th0)
        mc = classify(ReducedState(th0, w_mid), p)
        assert mc.h0 > 0.0
        assert mc.theta_star is not None

    def test_positive_energy_right_of_separatrix_survives_monotonically(self):
        # Find a positive-energy state with theta0 beyond the separatrix;
        # the oracle must not observe a monotone gap collapse.
        p = Params(0.2, 1.1)
        state = None
        for th0 in linspace(2.0, 4.0, 9):
            for frac in linspace(0.2, 0.8, 7):
                rs = ReducedState(th0, frac * h0_zero_w(p, th0))
                mc = classify(rs, p)
                if mc.h0 > 0.0 and mc.theta_star is not None and th0 > mc.theta_star:
                    state = rs
                    break
            if state:
                break
        assert state is not None
        mc = classify(state, p)
        assert mc.verdict is Verdict.NO_COLLISION_SUBCRITICAL
        result, traj = simulate_until_collision(state, p, CFG, t_end=200.0)
        assert result.status is not SimStatus.COLLIDED
        ws = [s[1] for s in traj.states]
        assert max(ws) > ws[0] + 1e-6  # the gap rises before any later fall

    def test_verdict_invariant_under_common_field_rescaling(self):
        # Multiplying both components of the planar field by a constant
        # only reparametrizes time, so collision verdicts are unchanged;
        # checked with an independent scipy integration of the scaled field.
        p = Params(0.2, 1.1)
        field = reduced_field(p)
        for factor in (0.5, 3.0):
            for rs, expect in (
                (ReducedState(0.0, 1.0), True),
                (ReducedState(0.0, -1.0), False),
            ):
                def f(t, y):
                    return [factor * v for v in field(y[0], y[1])]

                def escape(t, y):
                    return y[0] + 10.0
                escape.terminal = True
                escape.direction = -1

                sol = solve_ivp(
                    f, (0.0, 400.0), list(rs.astuple()), rtol=1e-9, atol=1e-11,
                    events=escape,
                )
                collided = len(sol.t_events[0]) > 0
                assert collided == expect
                assert classify(rs, p).predicts_collision == expect


def _outcome(rs: ReducedState, p: Params):
    """classify and collision_time of a state, or the type of their error."""
    try:
        mc = classify(rs, p)
        return mc, (collision_time(rs, p) if mc.predicts_collision else None)
    except FilcolError as exc:
        return type(exc)


@st.composite
def regime_params(draw) -> Params:
    alpha = draw(st.floats(0.02, 0.98))
    gs = gamma_star(alpha)
    frac = draw(st.floats(0.02, 0.98))
    gamma = draw(st.sampled_from(
        [1.0, 1.0 + frac * (gs - 1.0), gs, gs + 1e-3 + 2.0 * frac]
    ))
    return Params(alpha, gamma)


class TestScaleInvariance:
    # The equations are invariant under (R, z, t) -> (l R, l z, l**2 t).
    # With s = log(l) that maps (theta0, W0) -> (theta0 + s, W0 exp(s)),
    # h0 -> exp(-s) h0 and theta_star -> theta_star + s, and multiplies
    # every collision time by exp(2 s).
    @given(
        p=regime_params(),
        th0=st.floats(-3.0, 3.0),
        w0=st.floats(-2.0, 2.0),
        s=st.floats(-50.0, 300.0),
    )
    @settings(max_examples=300)
    def test_rescaled_twin_has_the_same_verdict_and_scaled_time(self, p, th0, w0, s):
        # A pair is faithful while W0**2 and h0**2 stay normal floats and
        # both energies are finite.
        w_twin = w0 * math.exp(s)
        assume(w0 == 0.0 or min(abs(w0), abs(w_twin)) >= 1e-150)
        here = _outcome(ReducedState(th0, w0), p)
        twin = _outcome(ReducedState(th0 + s, w_twin), p)
        assume(DomainError not in (here, twin))
        if isinstance(here, type) or isinstance(twin, type):
            assert twin == here
            return
        (mc, est), (mc2, est2) = here, twin
        assert mc2.verdict is mc.verdict
        assert (mc2.theta_star is None) == (mc.theta_star is None)
        assert (est2 is None) == (est is None)
        # h0 is resolved to a few ulps of its largest term, mu*exp(-theta0);
        # theta_star and every time but the exact ones inherit that error
        # times kappa = mu*exp(-theta0)/|h0|, which is at most 1e12 off the
        # zero-energy branch.
        kappa = p.mu * math.exp(-th0) / max(abs(mc.h0), 1e-300)
        if mc.theta_star is not None:
            want = mc.theta_star + s
            assert abs(mc2.theta_star - want) <= 1e-9 * max(1.0, abs(want)) + 1e-14 * kappa
        if est is not None:
            assert est2.formula_tag is est.formula_tag
            slack = 0.0 if est.kind is EstimateKind.EXACT else 1e-14 * kappa
            assert rel_err(est2.value, est.value * math.exp(2.0 * s)) < 1e-8 + slack

    def test_theta0_300_twin(self):
        # At alpha 0.2, gamma 1.1 the state (30, 0.5) has h0 = 2.1e-13 > 0
        # and theta_star = 29.46 < 30: it lies right of the separatrix, as
        # does its rescaled twin (0, 0.5 exp(-30)).  The same holds at
        # theta0 = 300, where h0 is 1.2e-130.
        p = Params(0.2, 1.1)
        for th0 in (30.0, 300.0):
            mc = classify(ReducedState(th0, 0.5), p)
            twin = classify(ReducedState(0.0, 0.5 * math.exp(-th0)), p)
            assert mc.verdict is twin.verdict is Verdict.NO_COLLISION_SUBCRITICAL
            assert mc.h0 > 0.0
            assert abs(mc.theta_star - (twin.theta_star + th0)) < 1e-9 * th0


@st.composite
def threshold_states(draw) -> tuple[Params, ReducedState]:
    """A d = 0 state at equal circulation, a mid-subcritical ratio or
    gamma_star, with v = W0*exp(-theta0) spread around v_star, or within
    1e-9 relative of it (of 1e-3, where v_star is 0)."""
    alpha = draw(st.floats(0.02, 0.98))
    ratio = draw(st.sampled_from(["equal", "mid-subcritical", "critical"]))
    gamma = {"equal": 1.0, "critical": gamma_star(alpha)}.get(ratio)
    p = Params(alpha, gamma or mid_subcritical_gamma(alpha))
    law = p.law
    span = max(law.v_star, law.v0, 1e-3)
    if draw(st.booleans()):
        v = law.v_star + span * draw(st.floats(-3.0, 3.0))
    else:
        v = law.v_star + max(law.v_star, 1e-3) * draw(st.floats(-1e-9, 1e-9))
    th0 = draw(st.floats(-6.0, 6.0))
    return p, ReducedState(th0, v * math.exp(th0))


class TestOneThreshold:
    # Below gamma_star the verdict is one threshold on v = W0*exp(-theta0):
    # collision iff W0 > 0 and v >= v_star.
    @given(case=threshold_states(), s=st.floats(-3.0, 3.0))
    # Found with this strategy: the critical bound at v = 1e-3 is 1.4e-12 off
    # the scale law, the rounding of h0 it inherits.  And the gamma = 1 time
    # at z = h0*W0/alpha = 0.01 was 1.2e-11 off, its series threshold too low.
    @example(case=(Params(0.5, 1.599120258544746), ReducedState(0.0, 0.001)), s=1.0)
    @example(case=(Params(0.02, 1.0), ReducedState(0.3, 0.0099 * math.exp(0.3))), s=-2.0)
    @settings(max_examples=100)
    def test_verdict_is_a_function_of_v(self, case, s):
        p, rs = case
        law = p.law
        th0, w0 = rs.theta, rs.w
        if law.regime is Regime.EQUAL_CIRCULATION and w0 == 0.0:
            with pytest.raises(OnSingularLine):
                classify(rs, p)
            return
        v = w0 * math.exp(-th0)
        try:
            mc = classify(rs, p)
        except DomainError:  # no verdict where the energy alpha/|W0| overflows
            assert law.regime is Regime.EQUAL_CIRCULATION and p.alpha / abs(w0) == math.inf
            return
        assert mc.predicts_collision == (w0 > 0.0 and v >= law.v_star)
        span = max(law.v_star, law.v0, 1e-3)
        if abs(v - law.v_star) <= 1e-9 * span:
            return
        # Off the threshold the separatrix rule agrees: W0 > 0, and theta0
        # at or left of theta_star where one is reported (h0 > 0).
        assert mc.predicts_collision == (
            w0 > 0.0 and (mc.theta_star is None or th0 <= mc.theta_star)
        )
        # Clear of the h0 ~ 0 cut, the shifted state keeps the verdict and
        # the formula tag, and its time scales by exp(2*s): to 1e-12, and
        # the rounding of h0, a few ulps of mu*exp(-theta0), times its
        # condition number kappa, which the bounds inherit.
        kappa = p.mu * math.exp(-th0) / abs(mc.h0)
        if kappa >= 1e9:
            return
        twin = ReducedState(th0 + s, w0 * math.exp(s))
        assert classify(twin, p).verdict is mc.verdict
        if mc.predicts_collision:
            est, est2 = collision_time(rs, p), collision_time(twin, p)
            assert est2.formula_tag is est.formula_tag
            assert rel_err(est2.value, est.value * math.exp(2.0 * s)) < 1e-12 + 2e-15 * kappa


@st.composite
def bounded_collisions(draw) -> tuple[Params, ReducedState]:
    """A colliding state on the h0 < 0, h0 > 0 or critical branch, each of
    which gets an upper bound rather than an exact time."""
    alpha = draw(st.floats(0.02, 0.98))
    branch = draw(st.sampled_from(["h0-negative", "h0-positive", "critical"]))
    th0 = draw(st.floats(-1.5, 1.5))
    gs = gamma_star(alpha)
    if branch == "critical":
        p = Params(alpha, gs)
        w0 = draw(st.floats(0.05, 2.0))
    else:
        p = Params(alpha, 1.0 + draw(st.floats(0.02, 0.98)) * (gs - 1.0))
        # Above the zero level's gap h0 < 0, below it h0 > 0.
        w_zero = h0_zero_w(p, th0)
        if branch == "h0-negative":
            w0 = draw(st.floats(0.05, 2.0))
            assume(w0 > w_zero * (1.0 + 1e-6))
        else:
            w0 = draw(st.floats(0.05, 0.999)) * w_zero
            assume(0.05 <= w0 <= 2.0)
    rs = ReducedState(th0, w0)
    assume(classify(rs, p).predicts_collision)
    return p, rs


class TestBoundDominatesOracle:
    @given(case=bounded_collisions())
    @settings(max_examples=100)
    def test_bound_is_at_least_the_oracle_time(self, case):
        p, rs = case
        est = collision_time(rs, p)
        assert est.kind is EstimateKind.UPPER_BOUND
        result, _ = simulate_until_collision(rs, p, CFG, t_end=2.0 * est.value + 20.0)
        assert result.status is SimStatus.COLLIDED
        assert result.time <= est.value


@st.composite
def bounded_states(draw) -> tuple[Params, ReducedState]:
    """A colliding state on the h0 < 0, h0 > 0 or critical branch, drawn by
    v = W0*exp(-theta0) across the branch: from v0 up to 1e3*v0 (h0 < 0),
    between v_star and v0 (h0 > 0), and log-uniform over [1e-4, 1e3] at the
    critical ratio."""
    alpha = draw(st.floats(0.01, 0.99))
    branch = draw(st.sampled_from(["h0-negative", "h0-positive", "critical"]))
    th0 = draw(st.floats(-5.0, 5.0))
    gs = gamma_star(alpha)
    if branch == "critical":
        p = Params(alpha, gs)
        v = 10.0 ** draw(st.floats(-4.0, 3.0))
    else:
        p = Params(alpha, 1.0 + draw(st.floats(1e-3, 0.999)) * (gs - 1.0))
        law = p.law
        if branch == "h0-negative":
            v = law.v0 * (1.0 + 10.0 ** draw(st.floats(-6.0, 3.0)))
        else:
            v = law.v_star + draw(st.floats(1e-6, 1.0 - 1e-6)) * (law.v0 - law.v_star)
    rs = ReducedState(th0, v * math.exp(th0))
    assume(classify(rs, p).predicts_collision)
    return p, rs


class TestBoundDominatesExact:
    @given(case=bounded_states())
    @settings(max_examples=200)
    def test_bound_is_at_least_the_time_to_the_axis(self, case):
        # No integration: the exact time down the state's own level is
        # positive and at most the comparison bound, wherever a bound exists.
        p, rs = case
        mc = classify(rs, p)
        try:
            est = mc.estimate()
        except NumericalFailure:  # the bound's substitution fails at the zero cut
            return
        if est.kind is EstimateKind.EXACT:  # h0 within the zero cut
            assert est.formula_tag is FormulaTag.SUBCRITICAL_H0_ZERO
            return
        assert 0.0 < time_to_axis(p, rs.theta, rs.w) <= est.value


class TestCollisionTime:
    def test_equal_circulation_zero_energy_exact(self):
        p = Params(0.5, 1.0)
        rs = ReducedState(math.log(4.0), 1.0)
        est = collision_time(rs, p)
        assert est.kind is EstimateKind.EXACT
        assert est.formula_tag is FormulaTag.GAMMA1_H0_ZERO
        # dW/dt = -alpha/W integrates to W**2 = W0**2 - 2*alpha*t.
        assert math.isclose(est.value, rs.w**2 / (2.0 * p.alpha), rel_tol=1e-15)
        result, _ = simulate_until_collision(rs, p, CFG, t_end=20.0)
        assert result.status is SimStatus.COLLIDED
        assert rel_err(result.time, est.value) < 1e-5

    def test_equal_circulation_implicit_value(self):
        p = Params(0.5, 1.0)
        rs = ReducedState(0.0, 0.5)
        mc = classify(rs, p)
        assert mc.h0 == -1.0
        est = collision_time(rs, p)
        assert est.kind is EstimateKind.EXACT
        want = 0.5 * math.log(0.5) + 0.5
        assert math.isclose(est.value, want, rel_tol=1e-14)
        result, _ = simulate_until_collision(rs, p, CFG, t_end=10.0)
        assert abs(result.time - want) < 1e-6

    def test_equal_circulation_positive_energy_implicit(self):
        p = Params(0.5, 1.0)
        rs = ReducedState(1.5, 0.2)  # alpha/W0 > 2 e^{-theta0}: h0 > 0
        mc = classify(rs, p)
        assert mc.h0 > 0.0
        est = collision_time(rs, p)
        result, _ = simulate_until_collision(rs, p, CFG, t_end=10.0)
        assert rel_err(result.time, est.value) < 1e-5

    def test_equal_circulation_underflowing_self_induction_has_no_time(self):
        # exp(800) overflows, so the state has no level z = h0*exp(theta0)/mu
        # in floats (nor a time, exp(1600) times a function of v): it is not
        # representable, as at theta0 = -800.
        rs, p = ReducedState(800.0, 0.5), Params(0.5, 1.0)
        with pytest.raises(DomainError, match="not representable"):
            classify(rs, p)
        with pytest.raises(DomainError, match="not representable"):
            collision_time(rs, p)

    def test_noncolliding_state_rejected(self):
        with pytest.raises(RegimeError):
            collision_time(ReducedState(0.0, -1.0), Params(0.5, 1.0))
        with pytest.raises(RegimeError):
            collision_time(ReducedState(0.0, 1.0), Params(0.2, 2.0))
        with pytest.raises(RegimeError):
            collision_time(ReducedState(0.3, 0.0), Params(0.2, gamma_star(0.2)))

    def test_estimate_is_read_from_the_class(self):
        rs, p = ReducedState(0.0, 0.5), Params(0.5, 1.0)
        mc = classify(rs, p)
        assert mc.formula_tag is FormulaTag.GAMMA1_H0_NONZERO
        assert mc.estimate() == collision_time(rs, p)
        # The state and params classified are kept out of eq and repr.
        assert mc.state is rs and mc.params is p
        assert "state" not in repr(mc) and "params" not in repr(mc)
        twin = classify(ReducedState(0.0, 0.5), Params(0.5, 1.0))
        assert twin == mc and twin.state is not rs
        rest = classify(ReducedState(0.0, -0.5), p)
        assert rest.formula_tag is None
        with pytest.raises(RegimeError):
            rest.estimate()

    def test_subcritical_zero_energy_exact_matches_oracle(self):
        p = Params(0.2, mid_subcritical_gamma(0.2))
        rs = ReducedState(0.5, h0_zero_w(p, 0.5))
        est = collision_time(rs, p)
        assert est.formula_tag is FormulaTag.SUBCRITICAL_H0_ZERO
        result, _ = simulate_until_collision(rs, p, CFG, t_end=10.0 * est.value)
        assert result.status is SimStatus.COLLIDED
        assert rel_err(result.time, est.value) < 1e-5

    @pytest.mark.parametrize("tag,make_states", [
        (FormulaTag.SUBCRITICAL_H0_NEGATIVE, "neg"),
        (FormulaTag.SUBCRITICAL_H0_POSITIVE, "pos"),
        (FormulaTag.CRITICAL, "crit"),
    ])
    def test_upper_bounds_dominate_small_sample(self, tag, make_states):
        from filcol.verify import (
            sample_critical,
            sample_subcritical_negative,
            sample_subcritical_positive,
        )

        rng = random.Random(99)
        if make_states == "crit":
            p = Params(0.2, gamma_star(0.2))
            states = sample_critical(p, 10, rng)
        else:
            p = Params(0.2, mid_subcritical_gamma(0.2))
            sampler = (
                sample_subcritical_negative if make_states == "neg"
                else sample_subcritical_positive
            )
            states = sampler(p, 10, rng)
        for rs in states:
            est = collision_time(rs, p)
            assert est.kind is EstimateKind.UPPER_BOUND
            assert est.formula_tag is tag
            result, _ = simulate_until_collision(rs, p, CFG, t_end=2.0 * est.value + 20.0)
            assert result.status is SimStatus.COLLIDED
            assert result.time <= est.value

    def test_critical_bound_stronger_variant_fails(self):
        # Tightening the critical-branch constant by alpha**(-1/4), as it
        # is sometimes printed, breaks domination: measured evidence that
        # the alpha**(3/2) normalization is the correct one.
        p = Params(0.2, gamma_star(0.2))
        rs = ReducedState(0.3, 1.0)
        est = collision_time(rs, p)
        result, _ = simulate_until_collision(rs, p, CFG, t_end=2.0 * est.value + 20.0)
        assert result.time <= est.value
        assert result.time > est.value * p.alpha ** 0.25


class TestExactTimes:
    # Every exact time is the time down the state's own level to the axis.
    @staticmethod
    def _zero_level_classes(n_per_tag=16):
        """Seeded colliding states at gamma = 1 and below gamma_star with W0 =
        v0*exp(theta0) moved by at most 3.2e-13 relative: inside the h0 ~ 0
        cut, so they take the zero-energy tags."""
        rng = random.Random(41)
        found = {FormulaTag.GAMMA1_H0_ZERO: [], FormulaTag.SUBCRITICAL_H0_ZERO: []}
        while min(map(len, found.values())) < n_per_tag:
            alpha = rng.uniform(0.02, 0.98)
            p = Params(alpha, rng.choice((1.0, mid_subcritical_gamma(alpha) + rng.uniform(
                -0.4, 0.4) * (gamma_star(alpha) - 1.0))))
            th0 = rng.uniform(-3.0, 3.0)
            move = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-16.0, -12.5)
            mc = classify(ReducedState(th0, p.law.v0 * math.exp(th0) * (1.0 + move)), p)
            if len(found.get(mc.formula_tag, [None] * n_per_tag)) < n_per_tag:
                found[mc.formula_tag].append(mc)
        return [mc for group in found.values() for mc in group]

    def test_zero_energy_times_on_the_state_level(self):
        # W0**2/(2*alpha) and exp(2*theta0)/(2*m0) took the level as h0 = 0
        # inside the cut, and on these states were up to 1.5e-13 and 1.9e-14
        # off the state's own level.
        for mc in self._zero_level_classes():
            want = quadrature_time(mc.params, mc.state.theta, mc.state.w)
            assert rel_err(mc.estimate().value, want) < 2e-15, (mc, mc.state, mc.params)

    def test_every_exact_estimate_is_the_time_to_the_axis(self):
        rng = random.Random(43)
        classes = self._zero_level_classes(4)
        for _ in range(40):
            p = Params(rng.uniform(0.02, 0.98), 1.0)
            classes.append(classify(ReducedState(rng.uniform(-5.0, 5.0),
                                                 10.0 ** rng.uniform(-5.0, 5.0)), p))
        tags = set()
        for mc in classes:
            est = mc.estimate()
            assert est.kind is EstimateKind.EXACT
            assert est.value == time_to_axis(mc.params, mc.state.theta, mc.state.w)
            tags.add(est.formula_tag)
        assert tags == {FormulaTag.GAMMA1_H0_ZERO, FormulaTag.GAMMA1_H0_NONZERO,
                        FormulaTag.SUBCRITICAL_H0_ZERO}


def decimal_time(tag: FormulaTag, p: Params, th0: float, w0: float, h0: float) -> float:
    """The closed form behind tag at 120 digits.  The bounds take the float h0
    the classifier reports; the gamma = 1 time takes the exact energy."""
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        a, g, th, w, h = (Decimal(v) for v in (p.alpha, p.gamma, th0, w0, h0))
        sg = g.sqrt()
        mu = g + 1 / sg
        if tag is FormulaTag.GAMMA1_H0_NONZERO:
            h = -mu * (-th).exp() + a / w
            z = h * w / a
            return float(a / (h * h) * (-(1 - z).ln() - z))
        if tag is FormulaTag.CRITICAL:
            ah = abs(h)
            m3 = (sg - 1).sqrt() * ah.sqrt() / (a ** Decimal("1.5") * g ** Decimal("0.75"))
            v0 = (mu / ah).sqrt() * (-th / 2).exp()
            g1 = (((v0 + 1) / (v0 - 1)).ln() - 2 * v0 / (v0 * v0 - 1)) / (
                4 * mu.sqrt() * ah ** Decimal("1.5"))
            return float(-2 / m3 * g1)
        assert tag is FormulaTag.SUBCRITICAL_H0_NEGATIVE
        m1 = (a * sg * (a * sg - (sg - 1) * mu)).sqrt() / (a * a * g)
        u0 = mu * (-th).exp() / abs(h)
        return float(-((u0 / (u0 - 1)).ln() - 1 / (u0 - 1)) / (m1 * h * h))


class TestTimesAtTheEdges:
    # Close to h0 = 0 the gamma = 1, subcritical h0 < 0 and critical
    # formulas are differences of nearly equal terms; past a threshold each
    # is summed as a series (dynamics.log_tail's, or the critical bound's).
    @pytest.mark.parametrize("w0", [1e-3, 1e-9, 1e-20, 5e-54])
    def test_gamma1_small_gap(self, w0):
        # h0*W0 -> alpha as W0 -> 0, so alpha - h0*W0 cancels; the argument
        # is formed as mu*exp(-theta0)*W0 instead.
        p = Params(0.5, 1.0)
        est = collision_time(ReducedState(0.0, w0), p)
        assert est.formula_tag is FormulaTag.GAMMA1_H0_NONZERO
        want = decimal_time(est.formula_tag, p, 0.0, w0, 0.0)
        assert rel_err(est.value, want) < 1e-12

    @pytest.mark.parametrize("excess", [1e-2, 5e-3, -2e-3, 1e-4, -1e-4, 1e-7, -1e-7, 1e-10])
    def test_gamma1_near_zero_energy(self, excess):
        # W0 = alpha*exp(theta0)/2 is the zero level; z = h0*W0/alpha is
        # about -excess, and |z| < 0.4 takes log_tail's series.
        p = Params(0.5, 1.0)
        rs = ReducedState(0.3, 0.25 * math.exp(0.3) * (1.0 + excess))
        est = collision_time(rs, p)
        assert est.formula_tag is FormulaTag.GAMMA1_H0_NONZERO
        want = decimal_time(est.formula_tag, p, rs.theta, rs.w, 0.0)
        assert rel_err(est.value, want) < 1e-12

    @pytest.mark.parametrize("alpha", [0.02, 0.2])
    @pytest.mark.parametrize("excess", [1e-2, -1e-2, 5e-2, -0.2, 0.3])
    def test_gamma1_past_the_old_series_threshold(self, alpha, excess):
        # The difference cancels as log(alpha)/z**2: with the series taken
        # only where |z| < 8e-3 it was 1.2e-11 off at alpha 0.02, z = 0.01.
        p = Params(alpha, 1.0)
        rs = ReducedState(0.3, 0.5 * alpha * math.exp(0.3) * (1.0 + excess))
        est = collision_time(rs, p)
        want = decimal_time(est.formula_tag, p, rs.theta, rs.w, 0.0)
        assert rel_err(est.value, want) < 1e-13

    @pytest.mark.parametrize("th0", [-1.0, 0.0, 1.5])
    @pytest.mark.parametrize("excess", [1e-2, 2e-3, 1e-4, 1e-7, 1e-10])
    def test_subcritical_bound_just_below_zero_energy(self, th0, excess):
        # u0 is about 130 at excess 1e-2 and 650 at 2e-3; 1/(u0 - 1) < 0.4
        # takes log_tail's series.
        p = Params(0.2, 1.1)
        rs = ReducedState(th0, h0_zero_w(p, th0) * (1.0 + excess))
        mc = classify(rs, p)
        est = collision_time(rs, p)
        assert est.formula_tag is FormulaTag.SUBCRITICAL_H0_NEGATIVE
        want = decimal_time(est.formula_tag, p, th0, rs.w, mc.h0)
        assert rel_err(est.value, want) < 1e-12

    def test_subcritical_bound_at_h0_minus_1_6e_10(self):
        # Summed as a difference, this bound came out as -485.2.
        p = Params(0.2, 1.1)
        rs = ReducedState(0.0, 0.08973502754105438)
        mc = classify(rs, p)
        assert mc.h0 == pytest.approx(-1.6e-10, rel=0.05)
        est = collision_time(rs, p)
        want = decimal_time(est.formula_tag, p, 0.0, rs.w, mc.h0)
        assert want == pytest.approx(0.03442, rel=1e-4)
        assert rel_err(est.value, want) < 1e-12

    @pytest.mark.parametrize("w0", [1e-2, 2e-3, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_critical_bound_near_the_rest_line(self, w0):
        # v0 grows like 1/W0 (15 at 1e-2, 73 at 2e-3); v0 > 3 takes the
        # series.  At (0, 1e-6) the difference gave 5,874 against 4,793.
        p = Params(0.2, gamma_star(0.2))
        rs = ReducedState(0.0, w0)
        mc = classify(rs, p)
        est = collision_time(rs, p)
        assert est.formula_tag is FormulaTag.CRITICAL
        want = decimal_time(est.formula_tag, p, 0.0, w0, mc.h0)
        assert rel_err(est.value, want) < 1e-12

    @pytest.mark.parametrize("branch, x_lo, x_hi", [
        (FormulaTag.SUBCRITICAL_H0_NEGATIVE, 62.0, 125.0),
        (FormulaTag.CRITICAL, 17.0, 35.0),
    ])
    def test_closed_form_side_of_the_series_thresholds(self, branch, x_lo, x_hi):
        # u0 (subcritical) or v0 (critical) just below the old series
        # thresholds 125 and 35, where a closed form was taken; both now
        # take their series there.
        rng = random.Random(5)
        for _ in range(60):
            alpha, th0 = rng.uniform(0.05, 0.95), rng.uniform(-1.5, 1.5)
            x = rng.uniform(x_lo, x_hi)
            if branch is FormulaTag.CRITICAL:
                p = Params(alpha, gamma_star(alpha))
                h0 = -p.mu * math.exp(-th0) / (x * x)
            else:
                p = Params(alpha, 1.0 + rng.uniform(0.1, 0.9) * (gamma_star(alpha) - 1.0))
                h0 = -p.mu * math.exp(-th0) / x
            d0 = p.alpha * p.sqrt_gamma / (h0 + p.mu * math.exp(-th0))
            rs = ReducedState(th0, math.sqrt(d0 * d0 - p.offset2 * math.exp(2.0 * th0)))
            mc = classify(rs, p)
            est = collision_time(rs, p)
            assert est.formula_tag is branch
            want = decimal_time(branch, p, th0, rs.w, mc.h0)
            assert rel_err(est.value, want) < 1e-12, (alpha, th0, rs.w)

    def test_gamma1_time_across_the_old_series_switch(self):
        # z = h0*W0/alpha log-uniform in 1e-3 < |z| < 0.9, either side of the
        # old switch |z| = 0.25, where the closed form was 1.6e-14 off.
        rng = random.Random(23)
        worst = 0.0
        for _ in range(200):
            p = Params(rng.uniform(0.02, 0.98), 1.0)
            th0 = rng.uniform(-1.5, 1.5)
            z = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, math.log10(0.9))
            w0 = p.alpha * (1.0 - z) * math.exp(th0) / p.mu
            est = collision_time(ReducedState(th0, w0), p)
            assert est.formula_tag is FormulaTag.GAMMA1_H0_NONZERO
            worst = max(worst, rel_err(est.value, decimal_time(est.formula_tag, p, th0, w0, 0.0)))
        assert worst < 2e-15

    @pytest.mark.parametrize("branch, x_lo, x_hi, bound", [
        # u0 either side of the old switch 125 (the old forms were 2.5e-14 off).
        (FormulaTag.SUBCRITICAL_H0_NEGATIVE, 40.0, 400.0, 1.2e-14),
        # v0 either side of the switch 3 and of the old one 35 (3.9e-13 off).
        (FormulaTag.CRITICAL, 1.5, 100.0, 1e-14),
    ])
    def test_bounds_across_the_series_switches(self, branch, x_lo, x_hi, bound):
        # h0 = -mu*exp(-theta0)/x, with x = u0 (subcritical) or v0**2
        # (critical) log-uniform in [x_lo, x_hi].
        rng = random.Random(29)
        worst = 0.0
        for _ in range(200):
            alpha, th0 = rng.uniform(0.05, 0.95), rng.uniform(-1.5, 1.5)
            x = math.exp(rng.uniform(math.log(x_lo), math.log(x_hi)))
            if branch is FormulaTag.CRITICAL:
                p, x = Params(alpha, gamma_star(alpha)), x * x
            else:
                p = Params(alpha, 1.0 + rng.uniform(0.1, 0.9) * (gamma_star(alpha) - 1.0))
            rs = ReducedState(th0, level_w(th0, p, -p.mu * math.exp(-th0) / x))
            mc = classify(rs, p)
            est = mc.estimate()
            assert est.formula_tag is branch
            worst = max(worst, rel_err(est.value, decimal_time(branch, p, th0, rs.w, mc.h0)))
        assert worst < bound

    def test_time_that_underflows_is_a_numerical_failure(self):
        # alpha/h0**2 underflows to 0: the difference of closed forms gave
        # -0.0 at W0 = 1e-300, and -2e-320 at W0 = 1e-160, where the time is
        # the subnormal 7.3205e-318.
        p = Params(0.5, 1.0)
        with pytest.raises(NumericalFailure):
            classify(ReducedState(0.0, 1e-300), p).estimate()
        est = classify(ReducedState(0.0, 1e-160), p).estimate()
        assert est.value == pytest.approx(7.32054641e-318, rel=1e-5)

    @pytest.mark.parametrize("alpha, w0", [(0.625, 5.643185526345413e-54), (0.2, 1e-7)])
    def test_critical_energy_at_rounding_has_no_bound(self, alpha, w0):
        # h0 is 0.0 and -9.8e-13 here, within 1e-12*mu*exp(-theta0) of zero,
        # where the bound diverges; a rescaled twin can round h0 to 0.0.
        p = Params(alpha, gamma_star(alpha))
        rs = ReducedState(0.0, w0)
        assert classify(rs, p).verdict is Verdict.ASYMMETRIC_COLLISION
        with pytest.raises(NumericalFailure):
            collision_time(rs, p)

    @pytest.mark.parametrize("alpha, gamma, th0, w0", [
        # The gamma = 1 time, exp(2*theta0) times a function of v, overflows.
        (0.5, 1.0, 400.0, 1.3058e173),
    ])
    def test_estimate_outside_the_float_range_is_a_numerical_failure(
        self, alpha, gamma, th0, w0
    ):
        rs, p = ReducedState(th0, w0), Params(alpha, gamma)
        mc = classify(rs, p)
        assert mc.predicts_collision
        with pytest.raises(NumericalFailure):
            mc.estimate()
        with pytest.raises(NumericalFailure):
            collision_time(rs, p)

    @pytest.mark.parametrize("alpha, gamma, th0, w0, tag", [
        # h0**2 underflows to 0, but the level z = h0*exp(theta0)/mu does not.
        (0.05, 1.0256164239019379, 350.0, 2.1850498746957718e150,
         FormulaTag.SUBCRITICAL_H0_NEGATIVE),
        # The time is a float; g1_w0, below -1.8e308, is not.
        (0.05, 1.0, 332.0, 3.8344934526689277e142, FormulaTag.GAMMA1_H0_NONZERO),
    ])
    def test_far_estimate_is_read_from_the_level(self, alpha, gamma, th0, w0, tag):
        rs, p = ReducedState(th0, w0), Params(alpha, gamma)
        mc = classify(rs, p)
        assert mc.verdict is (Verdict.HEAD_ON_COLLISION if p.law.c == 0.0
                              else Verdict.ASYMMETRIC_COLLISION)
        assert mc.formula_tag is tag
        assert h0_error(p, th0, w0, mc.h0) < 1e-14
        est = mc.estimate()
        exact = closed_form_time(p, th0, w0)
        if est.kind is EstimateKind.EXACT:
            assert est.value == time_to_axis(p, th0, w0)
            assert rel_err(est.value, float(exact)) < 1e-13
            assert est.constants == {"g1_w0": None}
        else:
            # (u/mu)**2*g1(u0)/(m1*z**2) in 40 digits, from the 40-digit energy.
            with mpmath.workdps(40):
                h, self_induction = energy_40(p, th0, w0)
                sg = mpmath.sqrt(mpmath.mpf(gamma))
                asq, mu, offset = alpha * sg, gamma + 1 / sg, sg - 1
                m1 = mpmath.sqrt(asq * (asq - offset * mu)) / (alpha * asq * sg)
                u0 = self_induction / abs(h)
                y = u0 / (u0 - 1)
                g1 = -(mpmath.log(y) - (y - 1)) / (y - 1) ** 2 / (u0 - 1) ** 2
                bound = g1 / (m1 * h * h)
            assert rel_err(est.value, float(bound)) < 1e-12
            assert est.value >= exact
        assert collision_time(rs, p) == est

    def test_critical_band_positive_energy_has_no_bound(self):
        # 0.9e-9 below gamma_star, K > 0: the ratio is subcritical, and
        # h0 is +8.0e-9 here with theta0 right of the separatrix.  The
        # critical bound (531.03 if taken with |h0|) would be no bound: the
        # integrator has not collided by 600.  W rises from the first step,
        # so the oracle stops there, undecided; before the rise rule it ran
        # on to t_end and called the state SURVIVED.
        p = Params(0.2, gamma_star(0.2) - 0.9e-9)
        rs = ReducedState(0.0, 1e-6)
        mc = classify(rs, p)
        assert mc.verdict is Verdict.NO_COLLISION_SUBCRITICAL
        assert mc.h0 == pytest.approx(8.0e-9, rel=0.05)
        assert rs.theta > mc.theta_star
        with pytest.raises(RegimeError):
            collision_time(rs, p)
        result, traj = simulate_until_collision(rs, p, CFG, t_end=600.0)
        assert result.status is SimStatus.INCONCLUSIVE and traj.stop == "w-rose"
        assert traj.stats.attempts < 10
        assert integrate(rs, p, 600.0, CFG).outcome.value == "reached-t-end"


class TestCorridor:
    def test_slopes_and_ordering(self):
        p = Params(0.2, 2.0)
        cor = apriori_corridor(ReducedState(0.0, 1.0), p)
        assert cor.lower_slope <= cor.upper_slope < 0.0
        assert cor.theta_lo < cor.theta_hi

    def test_confines_trajectory_and_forces_descent(self):
        p = Params(0.2, 2.0)
        rs = ReducedState(0.0, 1.0)
        cor = apriori_corridor(rs, p)
        traj = integrate(rs, p, 50.0, CFG)
        for t, s in zip(traj.times, traj.states):
            assert cor.lower_bound(rs.w, t) - 1e-9 <= s[1] <= cor.upper_bound(rs.w, t) + 1e-9
        w50 = traj.state_final[1]
        assert w50 < rs.w - 50.0 * abs(axis_energy(cor.theta_hi, p))

    def test_angle_window_contains_trajectory(self):
        p = Params(0.2, 2.0)
        rs = ReducedState(0.0, 1.0)
        cor = apriori_corridor(rs, p)
        traj = integrate(rs, p, 50.0, CFG)
        ths = [s[0] for s in traj.states]
        assert min(ths) >= cor.theta_lo - 1e-9
        assert max(ths) <= cor.theta_hi + 1e-9

    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            apriori_corridor(ReducedState(0.0, 1.0), Params(0.2, 1.1))
        with pytest.raises(RegimeError):
            apriori_corridor(ReducedState(0.0, 1.0), Params(0.2, gamma_star(0.2)))

    @pytest.mark.parametrize("theta0", [-800.0])
    def test_unrepresentable_energy_is_a_domain_error(self, theta0):
        # The same error classify raises for the state, not a bare OverflowError.
        rs, p = ReducedState(theta0, 0.5), Params(0.2, 3.0)
        with pytest.raises(DomainError):
            classify(rs, p)
        with pytest.raises(DomainError):
            apriori_corridor(rs, p)

    def test_far_state_has_a_corridor(self):
        # exp(800) overflows, but the level z = h0*exp(400)/mu is a float: h0
        # is the true energy, and the corridor is built on it.
        rs, p = ReducedState(400.0, 0.5), Params(0.2, 3.0)
        mc = classify(rs, p)
        assert mc.verdict is Verdict.GLOBAL_PASS_THROUGH
        assert h0_error(p, 400.0, 0.5, mc.h0) < 1e-14
        cor = apriori_corridor(rs, p)
        assert cor.lower_slope < cor.upper_slope < 0.0
        assert cor.theta_lo < 400.0 < cor.theta_hi


class TestCertificate:
    @pytest.mark.parametrize("full,gamma", [
        (FullState(1.0, 0.6, 1.1, 0.0), 2.0),    # d > 0, crosses the contact angle
        (FullState(0.8, 0.6, 1.4, 0.0), 2.0),    # d < 0
        (FullState(2.0, 1.0, 1.0, 0.0), 2.0),    # d > 0, wide hyperbola
        (FullState(1.0, 0.5, 2.0, 0.0), 1.0),    # d < 0, equal circulations
    ])
    def test_certified_bound_holds_along_trajectory(self, full, gamma):
        p = Params(0.2 if gamma != 1.0 else 0.5, gamma)
        hs = reduce_state(full, p)
        assert isinstance(hs, HyperbolicState)
        cert = no_collision_certificate(hs, p)
        assert cert.min_separation > 0.0
        traj = integrate(hs, p, 100.0, CFG)
        min_seen = min(
            hyperbolic_separation(s[0], s[1], hs.d, p.gamma) for s in traj.states
        )
        assert min_seen >= cert.min_separation * (1.0 - 1e-6)

    @given(case=nonzero_d_states())
    @settings(max_examples=200)
    def test_certificate_never_exceeds_an_orbit_separation(self, case):
        # The orbit runs to t = 10 or for 2,000 accepted points, whichever
        # comes first: near contact it turns fast, at up to 1e5 steps per
        # unit time.
        p, s = case
        hs = reduce_state(s, p)
        cert = no_collision_certificate(hs, p)
        points = itertools.count()
        traj = integrate(hs, p, 10.0, CFG,
                         lambda y: "budget" if next(points) == 2000 else None)
        min_seen = min(
            hyperbolic_separation(y[0], y[1], hs.d, p.gamma) for y in traj.states
        )
        assert min_seen >= cert.min_separation * (1.0 - 1e-6)

    def test_coplanar_start_right_of_its_leftmost_crossing(self):
        # Found by the orbit property.  W' > 0 at this coplanar start, so the
        # orbit turns to smaller angles and its separation falls from 0.0607
        # to 0.0578 by t = 0.044: the state's own separation is no bound.
        p = Params(0.5, 2.0)
        hs = reduce_state(FullState(1.0, 0.75, 1.0606601717798214, 0.75), p)
        cert = no_collision_certificate(hs, p)
        traj = integrate(hs, p, 0.05, CFG)
        min_seen = min(
            hyperbolic_separation(y[0], y[1], hs.d, p.gamma) for y in traj.states
        )
        assert min_seen < 0.058 < hyperbolic_separation(hs.theta, hs.w, hs.d, p.gamma)
        assert min_seen >= cert.min_separation * (1.0 - 1e-6)

    def test_monotone_toward_divergence(self):
        # Larger energy levels sit closer to the contact configuration.
        p = Params(0.2, 2.0)
        seps = []
        for w in (1.0, 0.6, 0.35, 0.2, 0.1, 0.05):
            hs = HyperbolicState(theta=1.0, w=w, d=0.5)
            seps.append(no_collision_certificate(hs, p).min_separation)
        assert all(b <= a + 1e-12 for a, b in zip(seps, seps[1:]))

    def test_d_zero_state_is_a_config_error(self):
        # It raised AttributeError for the missing d.
        with pytest.raises(ConfigInvalid):
            no_collision_certificate(ReducedState(0.0, 0.5), Params(0.2, 1.1))

    def test_coplanar_start_certifies_current_separation(self):
        p = Params(0.2, 2.0)
        hs = reduce_state(FullState(2.0, 0.0, 1.0, 0.0), p)
        cert = no_collision_certificate(hs, p)
        assert math.isclose(cert.min_separation, 1.0, rel_tol=1e-9)

    # The certificate as a 400-point scan down from theta0 and bisection to
    # adjacent floats: (leftmost crossing found, separation bound).
    @staticmethod
    def scan_certificate(hs, p):
        energy = hyperbolic_energy(p, hs.d)
        h0 = energy(hs.theta, hs.w)

        def gap(theta):
            try:
                return h0 - energy(theta, 0.0)
            except Divergent:
                return -math.inf

        prev = hs.theta
        for k in range(1, 401):
            theta = max(hs.theta * (1.0 - k / 400) ** 2, hs.theta * 1e-12)
            if gap(theta) > 0.0:
                break
            prev = theta
        lo, hi = theta, prev
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if gap(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return lo, p.alpha * p.sqrt_gamma / (h0 - hyperbolic_kinetic(lo, hs.d, p.gamma))

    def assert_matches_scan(self, hs, p):
        lo, reference = self.scan_certificate(hs, p)
        assert rel_err(no_collision_certificate(hs, p).min_separation, reference) <= 1e-13
        return lo

    @given(case=nonzero_d_states())
    @settings(max_examples=200)
    def test_matches_the_scan_and_bisection(self, case):
        p, s = case
        self.assert_matches_scan(reduce_state(s, p), p)

    def test_matches_the_scan_past_the_contact_angle(self):
        # d > 0 starts right of the contact angle theta_c, where the coplanar
        # separation vanishes; most of their levels end left of it.
        rng = random.Random(17)
        passed = 0
        for _ in range(300):
            p = Params(rng.uniform(0.05, 0.95), rng.uniform(1.2, 4.0))
            theta_c = math.atanh(1.0 / p.sqrt_gamma)
            hs = HyperbolicState(theta_c + rng.uniform(0.05, 2.0), rng.uniform(-2.0, 2.0),
                                 math.exp(rng.uniform(-3.0, 1.0)))
            passed += self.assert_matches_scan(hs, p) < theta_c
        assert passed > 150

    @pytest.mark.parametrize("r1,z1,r2,z2,alpha,gamma", [
        (1.0, 0.75, 1.0606601717798214, 0.75, 0.5, 2.0),  # right of its leftmost crossing
        (2.0, 0.0, 1.0, 0.0, 0.2, 2.0),
        (1.0, -0.3, 1.1, -0.3, 0.2, 2.0),
        (0.8, 1.0, 1.4, 1.0, 0.2, 2.0),
        (1.0, 0.0, 2.0, 0.0, 0.5, 1.0),
    ])
    def test_matches_the_scan_at_a_coplanar_start(self, r1, z1, r2, z2, alpha, gamma):
        p = Params(alpha, gamma)
        self.assert_matches_scan(reduce_state(FullState(r1, z1, r2, z2), p), p)

    def test_coplanar_starts_match_the_scan(self):
        rng = random.Random(19)
        for p, s in nonzero_d_sample(100, 19):
            z = rng.uniform(-2.0, 2.0)
            self.assert_matches_scan(reduce_state(FullState(s.r1, z, s.r2, z), p), p)

    def test_level_edge_between_two_doubling_probes(self):
        # The level's gap > 0 window (1.20, 1.51) lies between the doubling
        # probes at 1.60 and 1.07; left of it the level is feasible again on
        # (0.49, 1.20), across the contact angle 0.71.  Bracketing by the
        # probes alone gave 0.0311, 77% below the edge's 0.1349.
        p = Params(0.4957023161348462, 2.6957276242150003)
        hs = reduce_state(FullState(0.49850749093280394, -1.4226865239538173,
                                    0.7959748234280667, 1.3741271030478495), p)
        lo = self.assert_matches_scan(hs, p)
        assert 1.5 < lo < hs.theta
        assert math.isclose(no_collision_certificate(hs, p).min_separation, 0.134908, rel_tol=1e-5)

    def test_energy_evaluations_per_certificate(self, monkeypatch):
        # The search's cost, counted, so that a slower search fails here
        # without timing anything.  On this sample the search takes 25.1
        # energy evaluations a certificate (at most 65); the 400-point scan
        # and bisection took 96.7 (at most 317).
        calls = collections.Counter()
        factory = dynamics.hyperbolic_energy

        def counting(p, d):
            energy = factory(p, d)

            def counted(theta, w):
                calls["energy"] += 1
                return energy(theta, w)

            return counted

        monkeypatch.setattr(dynamics, "hyperbolic_energy", counting)
        counts = []
        for p, s in nonzero_d_sample(2000, 23):
            hs = reduce_state(s, p)
            calls.clear()
            no_collision_certificate(hs, p)
            counts.append(calls["energy"])
        assert statistics.mean(counts) <= 30.0
        assert max(counts) <= 80


class TestLastPositive:
    """The root helper: the largest float with f > 0 in a sign-change bracket."""

    @staticmethod
    def run(f, lo, hi, f_hi=None):
        seen = []

        def g(x):
            seen.append(x)
            return f(x)

        x = _last_positive(g, lo, f(lo), hi, f(hi) if f_hi is None else f_hi)
        return x, seen

    @pytest.mark.parametrize("f,lo,hi", [
        (lambda x: 2.0 - x * x, 0.0, 3.0),
        (lambda x: math.exp(-x) - 0.1, 0.0, 50.0),
        (lambda x: math.cos(x), 0.0, 3.0),
        (lambda x: 2.0 + x - x ** 3, 1.0, 2.0),
    ])
    def test_largest_float_with_f_positive(self, f, lo, hi):
        x, seen = self.run(f, lo, hi)
        assert lo <= x < hi
        assert f(x) > 0.0 >= f(math.nextafter(x, math.inf))
        assert len(seen) < 40

    def test_minus_infinity_at_hi_is_bisected(self):
        # A pole at hi, as the gap has at the d > 0 contact angle.
        f = lambda x: 1.0 - 1.0 / (2.0 - x) if x < 2.0 else -math.inf
        x, seen = self.run(f, 0.0, 2.0, -math.inf)
        assert seen[0] == 1.0
        assert f(x) > 0.0 >= f(math.nextafter(x, math.inf))

    def test_zero_at_hi_is_bisected(self):
        # A coplanar start: f(hi) = 0 with the crossing at hi itself.
        f = lambda x: 1.5 - x
        x, seen = self.run(f, 1.0, 1.5)
        assert seen[0] == 1.25
        assert x == math.nextafter(1.5, 0.0)

    def test_step_function(self):
        c = 0.7
        x, seen = self.run(lambda x: 1.0 if x < c else -1.0, 0.0, 1.0)
        assert x == math.nextafter(c, 0.0)
        assert len(seen) < 100

    def test_rounding_noise_near_the_root(self):
        # (1 - x)**3 expanded: about 1e-16 of noise over 1e-5 around x = 1.
        f = lambda x: 1.0 - ((x - 3.0) * x + 3.0) * x
        signs = [f(1.0 + k * 1e-8) > 0.0 for k in range(-500, 500)]
        assert sum(a != b for a, b in zip(signs, signs[1:])) > 10
        x, seen = self.run(f, 0.5, 1.5)
        assert f(x) > 0.0 >= f(math.nextafter(x, math.inf))
        assert len(seen) < 100


class TestPositiveNearPeak:
    """The window search of the certificate: f > 0 near a peak between probes."""

    def test_finds_a_window_between_probes(self):
        f = lambda x: 1e-4 - (x - 0.7) ** 2  # f > 0 on (0.69, 0.71)
        probes = [(x, f(x)) for x in (1.0, 0.9, 0.5, 0.0)]
        x, f_x, b, f_b = _positive_near_peak(f, probes)
        assert f_x == f(x) > 0.0 >= f_b == f(b)
        assert 0.69 < x < b

    def test_no_window_below_zero(self):
        f = lambda x: -1e-3 - (x - 0.7) ** 2
        assert _positive_near_peak(f, [(x, f(x)) for x in (1.0, 0.9, 0.5, 0.0)]) is None

    def test_peak_at_the_last_probe_is_not_bracketed(self):
        f = lambda x: -x
        assert _positive_near_peak(f, [(x, f(x)) for x in (1.0, 0.9, 0.5)]) is None
