"""Regime analysis for the coaxial filament pair.

The circulation ratio gamma splits the d = 0 dynamics into four regimes
around a critical ratio gamma_star(alpha), the unique value at which
self-induction and interaction balance on the coplanar line W = 0.  The
motion is invariant under (theta, W, t) -> (theta + s, W*e**s, t*e**(2s)),
so one threshold on v = W0*exp(-theta0) decides below gamma_star:

  gamma = 1                 head-on collision iff W0 > 0 (v_star = 0);
  1 < gamma < gamma_star    asymmetric collision iff W0 > 0 and v >= v_star,
                            that is, the energy is nonpositive or theta0
                            lies left of a separatrix theta_star;
  gamma = gamma_star        asymmetric collision iff W0 > 0 (W0 = 0 rests);
  gamma > gamma_star        no collision ever: the heavier ring threads the
                            lighter one and the axial gap decreases without
                            bound inside an a-priori linear corridor.

`classify` compares v with ``Params.v_star``, which `dynamics` forms with
the regime once per Params from the equal-circulation test and the
sign of K = alpha**2*gamma - offset2*mu**2; the same walk over the state
picks a colliding state's collision-time formula.  h0 = mu*z*exp(-theta0)
is read from the level z (``dynamics._on_level``, a function of v alone),
and every time is exp(2*theta0)/mu**2 times a function of z.  This module computes
gamma_star itself, for reporting, by bracketed bisection with Newton
polish, and the separatrix in closed form; it classifies initial states,
takes exact collision times from ``dynamics.time_to_axis``, evaluates the
comparison-principle upper bounds, builds the corridor, and certifies d != 0
states collision-free by minimizing the separation over their energy
level set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from . import dynamics
from .dynamics import HyperbolicState, Params, ReducedState, Regime, hyperbolic_kinetic, quartic
from .errors import (
    ConfigInvalid, Divergent, DomainError, NumericalFailure, OnSingularLine, RegimeError
)

__all__ = [
    "Verdict",
    "MotionClass",
    "EstimateKind",
    "FormulaTag",
    "CollisionTimeEstimate",
    "LinearCorridor",
    "NoCollisionCertificate",
    "gamma_star",
    "quartic",
    "theta_star",
    "axis_energy",
    "classify",
    "collision_time",
    "apriori_corridor",
    "no_collision_certificate",
]

class Verdict(Enum):
    HEAD_ON_COLLISION = "head-on-collision"
    ASYMMETRIC_COLLISION = "asymmetric-collision"
    NO_COLLISION_GAMMA1 = "no-collision-gamma1"
    NO_COLLISION_SUBCRITICAL = "no-collision-subcritical"
    GLOBAL_PASS_THROUGH = "global-pass-through"
    EQUILIBRIUM_REST = "equilibrium-rest"


class EstimateKind(Enum):
    EXACT = "exact"
    UPPER_BOUND = "upper-bound"


class FormulaTag(Enum):
    GAMMA1_H0_ZERO = "gamma1-h0-zero"
    GAMMA1_H0_NONZERO = "gamma1-h0-nonzero"
    SUBCRITICAL_H0_ZERO = "subcritical-h0-zero"
    SUBCRITICAL_H0_NEGATIVE = "subcritical-h0-negative"
    SUBCRITICAL_H0_POSITIVE = "subcritical-h0-positive"
    CRITICAL = "critical"


class CollisionTimeEstimate(NamedTuple):
    kind: EstimateKind
    value: float
    formula_tag: FormulaTag
    constants: dict[str, float | None]


@dataclass(frozen=True, init=False)
class MotionClass:
    """Classification of an initial state with its supporting quantities.

    A colliding state's ``formula_tag`` names its collision-time formula
    (None otherwise); ``estimate`` evaluates it on the state and params
    classified, which are kept out of eq and repr.
    """

    verdict: Verdict
    h0: float
    gamma_star: float
    theta_star: float | None
    formula_tag: FormulaTag | None
    state: ReducedState = field(compare=False, repr=False)
    params: Params = field(compare=False, repr=False)

    def __init__(self, verdict, h0, gamma_star, theta_star, formula_tag, state, params):
        # One dict update: a frozen dataclass's own __init__ makes a call per
        # field, which for these seven took about three times as long.
        self.__dict__.update(verdict=verdict, h0=h0, gamma_star=gamma_star, theta_star=theta_star,
                             formula_tag=formula_tag, state=state, params=params)

    @property
    def predicts_collision(self) -> bool:
        return self.formula_tag is not None

    def estimate(self) -> CollisionTimeEstimate:
        """Collision time of a colliding state: exact, or an upper bound.

        Exact values come from quadrature of the energy-decoupled equations,
        upper bounds from comparison solutions (README, "known discrepancies").
        A constant outside the float range is reported as None.  RegimeError
        if the state does not collide; NumericalFailure where the time is not
        a positive float.
        """
        tag = self.formula_tag
        if tag is None:
            raise RegimeError(f"state does not collide: {self.verdict.value}")
        try:
            kind, value, constants = _formula(self)
        except (ZeroDivisionError, OverflowError, ValueError):
            value, constants = math.inf, {}
        if not 0.0 < value < math.inf:
            raise NumericalFailure(f"the {tag.value} estimate leaves the float range at this state")
        constants = {name: c if math.isfinite(c) else None for name, c in constants.items()}
        return CollisionTimeEstimate(kind, value, tag, constants)


@dataclass(frozen=True)
class LinearCorridor:
    """Linear bounds W0 + lower_slope*t <= W(t) <= W0 + upper_slope*t."""

    lower_slope: float
    upper_slope: float
    theta_lo: float
    theta_hi: float

    def lower_bound(self, w0: float, t: float) -> float:
        return w0 + self.lower_slope * t

    def upper_bound(self, w0: float, t: float) -> float:
        return w0 + self.upper_slope * t


@dataclass(frozen=True)
class NoCollisionCertificate:
    """Positive lower bound on the separation over an energy level set."""

    min_separation: float


# --------------------------------------------------------------------------
# Critical ratio
# --------------------------------------------------------------------------

def _quartic_prime(eta: float, alpha: float) -> float:
    return ((-4.0 * eta + 3.0) * eta + 2.0 * alpha) * eta - 1.0


def _bisect(f, lo: float, hi: float, width: float) -> tuple[float, float]:
    """Shrink a sign-change bracket [lo, hi] (f(lo) > 0 > f(hi)) to width."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def gamma_star(alpha: float) -> float:
    """Critical circulation ratio for a given interaction strength.

    The square of the unique root in (1, inf) of the balance quartic;
    bracketed bisection to width 1e-13 followed by three Newton polish
    steps leaves a residual at round-off level.  Values are memoised per
    alpha.
    """
    if not (isinstance(alpha, (int, float)) and 0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    return _gamma_star(float(alpha))


@functools.lru_cache(maxsize=256)
def _gamma_star(alpha: float) -> float:
    """gamma_star for a validated alpha; a pure function of one float."""
    lo, hi = _bisect(lambda e: quartic(e, alpha), 1.0 + 1e-12, 10.0, 1e-13)
    eta = 0.5 * (lo + hi)
    for _ in range(3):
        deriv = _quartic_prime(eta, alpha)
        if deriv == 0.0:
            break
        eta -= quartic(eta, alpha) / deriv
    return eta * eta


# The regimes and colliding branches, bound to module names once, as an Enum
# attribute lookup is slow per call.
_EQUAL, _SUBCRITICAL, _CRITICAL, _SUPERCRITICAL = Regime  # its members, in order
_G1_H0_ZERO, _G1_H0_NONZERO, _SUB_H0_ZERO, _SUB_H0_NEG, _SUB_H0_POS, _CRIT = FormulaTag


# --------------------------------------------------------------------------
# Separatrix
# --------------------------------------------------------------------------

def theta_star(p: Params, h0: float) -> float:
    """Separatrix angle for a positive-energy level in the subcritical regime.

    The axial-gap derivative on the level h0 changes sign exactly once,
    at theta_star: negative to the left, positive to the right, so only
    initial angles at or left of it can feed a monotone collision.  It
    vanishes at y* = mu*exp(-theta_star) = h0/(rho - 1), where rho**3 =
    alpha**2*gamma/(offset2*mu**2) > 1; rho - 1 is the record's
    ``rho_minus_1``, formed so that nothing cancels.
    """
    if p.regime is not _SUBCRITICAL:
        raise RegimeError(
            f"need gamma strictly inside (1, gamma_star={_gamma_star(p.alpha)}), got {p.gamma}"
        )
    if not 0.0 < h0 < math.inf:
        raise DomainError(f"theta_star needs a finite h0 > 0, got {h0}")
    return math.log(p.mu) + math.log(p.rho_minus_1) - math.log(h0)


def axis_energy(theta: float, p: Params) -> float:
    """Energy of the coplanar state (theta, 0); defined for gamma > 1."""
    if p.regime is _EQUAL:
        raise RegimeError("the coplanar line is singular for gamma = 1")
    return (-p.mu + p.alpha * p.sqrt_gamma / p.offset) * math.exp(-theta)


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------

def classify(rs0: ReducedState, p: Params) -> MotionClass:
    """Four-way regime classification of a d = 0 initial state, in one walk.

    The regime and the threshold are ``p.regime`` and ``p.v_star``: below
    gamma_star a state collides iff W0 > 0 and v = W0*exp(-theta0) >=
    v_star, and above it never.  h0 = mu*z/u, read from the level z that
    ``time_to_axis`` reads, and theta_star are reported only; the sign of z
    with its zero cut (``dynamics.level_sign``) picks a colliding state's
    formula tag.  DomainError where h0 is not a float.
    """
    th0, w0 = rs0.theta, rs0.w
    regime = p.regime
    gs = _gamma_star(p.alpha)
    if regime is _EQUAL and w0 == 0.0:
        raise OnSingularLine("W = 0 is excluded for gamma = 1")
    try:
        u, _, z = dynamics._on_level(p, th0, w0)
        # v as W0*exp(-theta0): W0/u may round to the other side of v_star.
        h0, v = p.mu * z / u, w0 * math.exp(-th0)
    except (NumericalFailure, OverflowError):
        h0 = math.nan
    if not math.isfinite(h0):
        raise DomainError(f"state ({th0!r}, {w0!r}) is not representable: no energy in floats")
    if regime is _SUPERCRITICAL:
        return MotionClass(Verdict.GLOBAL_PASS_THROUGH, h0, gs, None, None, rs0, p)
    sign = dynamics.level_sign(z)
    ts = theta_star(p, h0) if regime is _SUBCRITICAL and sign > 0 else None
    if not (w0 > 0.0 and v >= p.v_star):
        if regime is _EQUAL:
            verdict = Verdict.NO_COLLISION_GAMMA1
        elif regime is _CRITICAL and w0 == 0.0:
            verdict = Verdict.EQUILIBRIUM_REST
        else:
            verdict = Verdict.NO_COLLISION_SUBCRITICAL
        return MotionClass(verdict, h0, gs, ts, None, rs0, p)
    verdict = Verdict.ASYMMETRIC_COLLISION
    if regime is _EQUAL:
        verdict, branch = Verdict.HEAD_ON_COLLISION, _G1_H0_NONZERO if sign else _G1_H0_ZERO
    elif regime is _CRITICAL:
        branch = _CRIT
    else:
        branch = (_SUB_H0_NEG, _SUB_H0_ZERO, _SUB_H0_POS)[sign + 1]
    return MotionClass(verdict, h0, gs, ts, branch, rs0, p)


# --------------------------------------------------------------------------
# Collision times and bounds
# --------------------------------------------------------------------------

def collision_time(rs0: ReducedState, p: Params) -> CollisionTimeEstimate:
    """Collision time of a colliding state: ``classify(rs0, p).estimate()``."""
    return classify(rs0, p).estimate()


def _formula(mc: MotionClass) -> tuple[EstimateKind, float, dict[str, float]]:
    """The kind, time and constants of the collision-time formula mc names.
    Every exact time (W0**2/(2*alpha), the implicit formula in g1_w0 and
    exp(2*theta0)/(2*m0)) is the time down the state's own level to the axis;
    every bound is (u/mu)**2, u = exp(theta0), times a function of that level
    z (``dynamics._on_level``): u0 = 1/|z| and v0 = 1/sqrt(|z|), and 1 + z
    gives u0 - 1 and v0 - 1.  A constant may leave the float range."""
    branch, th0, w0, p = mc.formula_tag, mc.state.theta, mc.state.w, mc.params
    alpha, mu, asq = p.alpha, p.mu, p.alpha * p.sqrt_gamma
    constants = {}
    if branch is _SUB_H0_ZERO:
        constants = {"m0": mu * mu * math.sqrt(p.k) / (alpha * alpha * p.gamma)}
    elif branch is not _G1_H0_ZERO:
        u, opz, z = dynamics._on_level(p, th0, w0)
        s = u / mu  # a time is s*(s*T)
        if branch is _G1_H0_NONZERO:  # alpha - h0*W0 = mu*exp(-theta0)*W0 = mu*v
            v = w0 / u
            constants = {"g1_w0": s * (s * (alpha * math.log(mu * v) / z / z + mu * v / z))}
        elif branch is _SUB_H0_POS:
            t = s * (s * (2.0 * asq / (3.0 * math.sqrt(z))))
            m2 = math.sqrt(mu * z) / math.sqrt(u) * mu ** 1.5 / asq
            return EstimateKind.UPPER_BOUND, t, {"m2": m2}
        elif branch is _SUB_H0_NEG:  # u0/(u0 - 1) = 1/(1 + z)
            m1 = math.sqrt(asq * (asq - p.offset * mu)) / (alpha * alpha * p.gamma)
            t_star = s * (s * (-dynamics.log_tail(1.0 / opz) / opz / opz / m1))
            return EstimateKind.UPPER_BOUND, t_star, {"m1": m1, "u0": -1.0 / z, "t_star": t_star}
        else:  # critical: on the band's K = 0 level z < 0 wherever W0 != 0
            if dynamics.level_sign(z) >= 0:
                raise NumericalFailure(f"critical-ratio energy {mc.h0} is not below zero: no bound")
            r = math.sqrt(-z)  # 1/v0; v0**2 - 1 = (1 + z)/|z|
            if r < 1.0 / 3.0:  # 2*(artanh(r) - r/(1 - r**2)) cancels as r**3
                g1_v0 = -2.0 * z * r * (dynamics._artanh_tail(r) - 1.0 + z / opz)
            else:
                g1_v0 = math.log1p(2.0 * r * (1.0 + r) / opz) - 2.0 * r / opz
            ah = -mu * z  # |h0|*u
            m3 = math.sqrt(p.offset * ah) / (alpha ** 1.5 * p.gamma ** 0.75)  # m3*sqrt(u)
            g1_v0 /= 4.0 * math.sqrt(mu) * ah * math.sqrt(ah)  # g1_v0/u**1.5
            root_u = math.sqrt(u)
            return EstimateKind.UPPER_BOUND, s * (s * (-2.0 * mu * mu * g1_v0 / m3)), {
                "m3": m3 / root_u, "v0": 1.0 / r, "g1_v0": g1_v0 * u * root_u}
    return EstimateKind.EXACT, dynamics.time_to_axis(p, th0, w0), constants


# --------------------------------------------------------------------------
# Supercritical corridor
# --------------------------------------------------------------------------

def apriori_corridor(rs0: ReducedState, p: Params) -> LinearCorridor:
    """Linear corridor confining W(t) in the pass-through regime.

    Conservation pins theta(t) into [theta_tilde, theta_hi], where
    theta_tilde solves H(theta, 0) = H0 and theta_hi makes the self-
    induction term alone exceed |H0|.  The axial-gap derivative then lies
    between -mu*exp(-theta_lo) and the (negative) coplanar energy at
    theta_hi, giving two lines that squeeze W(t) and force W -> -inf.
    """
    if p.regime is not _SUPERCRITICAL:
        raise RegimeError(
            f"corridor needs gamma > gamma_star={_gamma_star(p.alpha)}, got {p.gamma}"
        )
    mu = p.mu
    h0 = classify(rs0, p).h0
    # The coplanar energy and h0 are both negative in this regime.
    theta_tilde = math.log(axis_energy(0.0, p) / h0)
    theta_lo = theta_tilde - 1.0
    theta_hi = max(math.log(mu / abs(h0)), theta_lo + 1e-6)
    lower = -mu * math.exp(-theta_lo)
    upper = axis_energy(theta_hi, p)
    return LinearCorridor(
        lower_slope=lower, upper_slope=upper, theta_lo=theta_lo, theta_hi=theta_hi
    )


# --------------------------------------------------------------------------
# d != 0 no-collision certificate
# --------------------------------------------------------------------------

def _last_positive(f, lo: float, f_lo: float, hi: float, f_hi: float) -> float:
    """The largest float x in [lo, hi) with f(x) > 0, given f(lo) = f_lo > 0
    >= f(hi) = f_hi and one crossing between them.

    Anderson-Bjorck regula falsi (BIT 13, 1973) shrinks the bracket to
    adjacent floats: after two steps onto one side it scales the other end's
    value by 1 - f(x)/f(replaced end), or by 1/2 where that is not positive.
    Where the secant point rounds onto an end, as when one end value dwarfs
    the other or f_hi = 0 at a coplanar start, the float next to that end is
    tried; a step after a failed try is a midpoint, as is every step while an
    end value is not finite (f_hi is -inf at the d > 0 contact angle).
    """
    side = 0  # +1 after a step that replaced lo, -1 after one that replaced hi
    nudged = False  # the last step tried the float next to an end
    while True:
        x = 0.5 * (lo + hi)
        if x <= lo or x >= hi:
            return lo
        if math.isfinite(f_lo) and math.isfinite(f_hi):
            s = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            if lo < s < hi:
                x, nudged = s, False
            elif not nudged:
                x, nudged = math.nextafter(hi, lo) if s >= hi else math.nextafter(lo, hi), True
            else:
                nudged = False
        fx = f(x)
        if fx > 0.0:
            if side > 0:
                m = 1.0 - fx / f_lo
                f_hi *= m if m > 0.0 else 0.5
            lo, f_lo, side = x, fx, 1
        else:
            if side < 0:
                m = 1.0 - fx / f_hi if f_hi else 0.0
                f_lo *= m if m > 0.0 else 0.5
            hi, f_hi, side = x, fx, -1


def no_collision_certificate(hs0: HyperbolicState, p: Params) -> NoCollisionCertificate:
    """Certify a d != 0 state collision-free with a separation lower bound.

    Along the energy level of hs0 the separation alpha*sqrt(gamma)/(H0 - K)
    is increasing in the hyperbolic angle (K, the self-induction part, is
    increasing), so its minimum over the level set sits at the smallest
    feasible angle: the leftmost W = 0 crossing of the level curve.  A
    search down from theta0 in doubling steps, the first theta0/4, brackets
    it and ``_last_positive`` closes the bracket, in about 10 energy
    evaluations; right of the d > 0 contact angle one more, at the coplanar
    saddle, tells whether the level ends before that angle.  Both evaluate
    the chart's own energy closure (``dynamics.hyperbolic_energy``, one set
    of formulas for both signs of d) at W = 0; they keep no energy formula of
    their own.  The bound is strictly positive because the energy diverges at
    the contact configuration.
    """
    if not isinstance(hs0, HyperbolicState):
        raise ConfigInvalid(f"the certificate needs a HyperbolicState (d != 0), got {hs0!r}")
    d = hs0.d
    energy = dynamics.hyperbolic_energy(p, d)
    h0 = energy(hs0.theta, hs0.w)
    asq = p.alpha * p.sqrt_gamma
    theta0 = hs0.theta

    def gap(theta: float) -> float:
        """h0 minus the energy of the coplanar point at this angle."""
        try:
            return h0 - energy(theta, 0.0)
        except Divergent:
            return -math.inf

    # gap(theta0) <= 0, and the kinetic part falls to -inf at the chart
    # origin, so a crossing always exists.  For d < 0, and below the d > 0
    # contact angle theta_c (tanh(theta_c) = gamma**-1/2, gap = -inf, crossed
    # by the level at |W| > 0), gap has one crossing.  Between theta_c and
    # theta0 it rises to one maximum, at the coplanar saddle theta_m if that
    # lies left of theta0: the level ends in (theta_m, theta0) where
    # gap(theta_m) > 0, and otherwise the search starts at theta_c.  A
    # coplanar start (gap(theta0) = 0) may cross W = 0 again further left,
    # where its orbit goes; where it does not, the root closes on theta0 from
    # below.
    theta_c = math.atanh(1.0 / p.sqrt_gamma) if d > 0.0 and p.sqrt_gamma > 1.0 else math.inf
    hi, g_hi = theta0, gap(theta0)
    lo, g_lo = hi, g_hi
    if theta0 > theta_c:
        theta_m = dynamics._coplanar_saddle(p)
        if theta_m < theta0 and (g_m := gap(theta_m)) > 0.0:
            lo, g_lo = theta_m, g_m
        else:
            lo, g_lo = theta_c, -math.inf
    top = lo
    floor, step = top * 1e-12, top * 0.25
    while not g_lo > 0.0:
        if lo == floor:
            raise NumericalFailure("level-set search found no boundary crossing")
        hi, g_hi = lo, g_lo
        lo = max(top - step, floor)
        g_lo = gap(lo)
        step *= 2.0

    # The lo side slightly undershoots the crossing, keeping the bound
    # conservative.
    lo = _last_positive(gap, lo, g_lo, hi, g_hi)
    return NoCollisionCertificate(asq / (h0 - hyperbolic_kinetic(lo, d, p.gamma)))
