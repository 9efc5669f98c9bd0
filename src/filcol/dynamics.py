"""Core dynamics of two coaxial circular vortex filaments.

A pair of circular filaments sharing a symmetry axis is described by radii
and axial positions (R1, z1, R2, z2).  Under the localized-induction
interaction with opposite-signed circulations (ratio gamma = |G1/G2| >= 1,
interaction strength alpha in (0,1), time rescaled by the second filament's
circulation) the motion obeys a four-dimensional ODE system that conserves

    d = gamma * R1**2 - R2**2.

On the invariant surface d = 0 the system reduces to a planar Hamiltonian
system in (theta, W) = (log R1, z1 - z2); for d != 0 a hyperbolic-angle
chart gives another planar Hamiltonian system whose energy diverges at the
contact configuration, certifying that those pairs can never collide.

This module defines the state containers, both reduced charts, all vector
fields and Hamiltonians, the reduction/inversion maps, and a residual check
that the circular ansatz turns the underlying filament PDE exactly into the
four-dimensional ODE system.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Union

from .errors import (DomainError, Divergent, InversionFailure, NumericalFailure,
                     OnSingularLine, SeparationZero)

__all__ = [
    "Params",
    "Regime",
    "FullState",
    "ReducedState",
    "HyperbolicState",
    "Derivative",
    "conserved_d",
    "reduce_state",
    "hyperbolic_radii",
    "hyperbolic_separation",
    "hyperbolic_kinetic",
    "quartic",
    "k_sign",
    "level_sign",
    "monotone_approach",
    "log_tail",
    "time_to_axis",
    "ansatz_residual",
    "full_field",
    "reduced_field",
    "hyperbolic_field",
    "reduced_energy",
    "hyperbolic_energy",
]

#: Time derivatives, one component per state coordinate.
Derivative = tuple[float, ...]


def _require_finite(name: str, value: float) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return v


def _derived():
    """A field formed from (alpha, gamma) at construction: no argument, and not
    part of eq, hash or repr."""
    return field(init=False, repr=False, compare=False)


class Regime(Enum):
    """The d = 0 regimes, split at equal circulation and at gamma_star."""

    EQUAL_CIRCULATION = "equal-circulation"
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


@dataclass(frozen=True, slots=True)
class Params:
    """Model constants, and every number the model draws from them.

    alpha -- interaction strength from the localized-induction truncation,
             required in (0, 1).
    gamma -- circulation ratio after sign normalization, required >= 1
             (the ratio < 1 case is handled by renaming the filaments; see
             ``cli._Frame``).

    The other fields are formed once, at construction:
    mu     -- self-induction coefficient gamma + gamma**-1/2 of the axial gap.
    offset -- sqrt(gamma) - 1, formed as (gamma - 1)/(sqrt(gamma) + 1) so nothing
             cancels; 0 at equal circulation.  offset2 = offset**2.
    regime, c, k -- the d = 0 regime: equal circulation where sqrt(gamma) == 1
             (gamma = 1 as the arithmetic sees it, one ulp above too), else
             drawn from ``k_sign``; c = offset2*mu**2 and
             K = alpha**2*gamma - c (0 in the critical band, < 0 above it), so
             a2g = c + K.
    v_star -- a state collides iff W0 > 0 and v = W0*exp(-theta0) >= v_star =
             offset*sqrt(rho - 1), rho**3 = a2g/c (rho_minus_1, formed so that
             nothing cancels): 0 at equal circulation and at the critical
             ratio, inf above it.
    v0     -- h0 > 0 iff |v| < v0 = sqrt(max(K, 0))/mu; v_star < v0 where K > 0.
    """

    alpha: float
    gamma: float
    sqrt_gamma: float = _derived()
    mu: float = _derived()
    offset: float = _derived()
    offset2: float = _derived()
    regime: Regime = _derived()
    c: float = _derived()
    k: float = _derived()
    rho_minus_1: float = _derived()
    v_star: float = _derived()
    v0: float = _derived()

    def __post_init__(self) -> None:
        a = _require_finite("alpha", self.alpha)
        g = _require_finite("gamma", self.gamma)
        if not 0.0 < a < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {a}")
        if g < 1.0:
            raise DomainError(f"gamma must be >= 1, got {g}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "gamma", g)
        sqg = math.sqrt(g)
        equal, mu = sqg == 1.0, g + 1.0 / sqg
        offset = 0.0 if equal else (g - 1.0) / (sqg + 1.0)
        c = offset * offset * mu * mu
        k = a * a * g - c
        rho_minus_1 = v_star = 0.0
        if equal:
            regime = Regime.EQUAL_CIRCULATION
        else:
            sign = k_sign(self)
            if sign > 0:
                regime = Regime.SUBCRITICAL
                r_minus_1 = k / c
                rho = (1.0 + r_minus_1) ** (1.0 / 3.0)
                rho_minus_1 = r_minus_1 / (rho * rho + rho + 1.0)
                v_star = offset * math.sqrt(rho_minus_1)
            elif sign < 0:
                regime, v_star = Regime.SUPERCRITICAL, math.inf
            else:
                regime, k = Regime.CRITICAL, 0.0
        derived = dict(sqrt_gamma=sqg, mu=mu, offset=offset, offset2=offset * offset,
                       regime=regime, c=c, k=k, rho_minus_1=rho_minus_1, v_star=v_star,
                       v0=math.sqrt(max(k, 0.0)) / mu)
        for name, value in derived.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class FullState:
    """Radii and axial positions (R1, z1, R2, z2) of the two filaments.

    Radii must be positive.  Overlapping configurations (equal radii and
    equal axial positions) are representable but rejected by the vector
    field, which is singular there.
    """

    r1: float
    z1: float
    r2: float
    z2: float

    def __post_init__(self) -> None:
        r1 = _require_finite("r1", self.r1)
        r2 = _require_finite("r2", self.r2)
        _require_finite("z1", self.z1)
        _require_finite("z2", self.z2)
        if r1 <= 0.0 or r2 <= 0.0:
            raise DomainError(f"radii must be positive, got r1={r1}, r2={r2}")

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.r1, self.z1, self.r2, self.z2)


@dataclass(frozen=True)
class ReducedState:
    """(theta, W) = (log R1, z1 - z2) chart of the d = 0 reduction.

    For gamma = 1 the line W = 0 is excluded from the phase space; that
    constraint is gamma-dependent and enforced by the operations.
    """

    theta: float
    w: float

    def __post_init__(self) -> None:
        _require_finite("theta", self.theta)
        _require_finite("w", self.w)

    def astuple(self) -> tuple[float, float]:
        return (self.theta, self.w)


@dataclass(frozen=True)
class HyperbolicState:
    """Hyperbolic-angle chart of a d != 0 configuration.

    R1 = sqrt(|d|/gamma) f1(theta) and R2 = sqrt(|d|) f2(theta), where the
    pair (f1, f2) is (cosh, sinh) for d > 0 and (sinh, cosh) for d < 0.
    Each is the other's derivative, so both branches share one set of
    formulas for the radii, the separation, the field and the energy.
    Either way theta > 0 and gamma*R1**2 - R2**2 = d holds identically.
    """

    theta: float
    w: float
    d: float

    def __post_init__(self) -> None:
        th = _require_finite("theta", self.theta)
        _require_finite("w", self.w)
        d = _require_finite("d", self.d)
        if d == 0.0:
            raise DomainError("HyperbolicState requires d != 0")
        if th <= 0.0:
            raise DomainError(f"hyperbolic angle must be positive, got {th}")

    def astuple(self) -> tuple[float, float]:
        return (self.theta, self.w)


# --------------------------------------------------------------------------
# Full four-dimensional system
# --------------------------------------------------------------------------

def full_field(p: Params) -> Callable[[float, float, float, float], Derivative]:
    """Return the (R1, z1, R2, z2) vector field with constants bound."""
    alpha, gamma = p.alpha, p.gamma

    def field(r1: float, z1: float, r2: float, z2: float) -> Derivative:
        w = z1 - z2
        dr = r1 - r2
        sep2 = dr * dr + w * w
        if sep2 == 0.0:
            raise SeparationZero("filaments overlap; interaction is singular")
        den = sep2 * math.sqrt(sep2)
        aw = alpha * w / den
        ar = alpha * dr / den
        return (
            -r2 * aw,
            -gamma / r1 + r2 * ar,
            -gamma * r1 * aw,
            1.0 / r2 + gamma * r1 * ar,
        )

    return field


def conserved_d(s: FullState, p: Params) -> float:
    """The conserved combination gamma*R1**2 - R2**2."""
    return p.gamma * s.r1 * s.r1 - s.r2 * s.r2


# --------------------------------------------------------------------------
# Reduction and inversion
# --------------------------------------------------------------------------

def reduce_state(s: FullState, p: Params) -> Union[ReducedState, HyperbolicState]:
    """Dispatch a full state to the d = 0 or d != 0 planar chart.

    d is treated as zero where |d| <= 1e-9 * gamma*R1**2, decided on R2/R1
    before d is formed, so that no square can underflow or overflow:
    (R, z) -> (lam*R, lam*z) keeps the chart.  DomainError where a nonzero
    d is not a normal float.
    """
    w = s.z1 - s.z2
    q = s.r2 / s.r1
    if abs(p.gamma - q * q) <= 1e-9 * p.gamma:
        return ReducedState(theta=math.log(s.r1), w=w)
    d = conserved_d(s, p)
    if not math.isfinite(d):
        raise DomainError(f"d = gamma*R1**2 - R2**2 is not representable: R1 = {s.r1!r}, "
                          f"R2 = {s.r2!r} at gamma = {p.gamma!r}")
    if abs(d) < sys.float_info.min:
        raise DomainError(f"d = gamma*R1**2 - R2**2 is nonzero, but {d!r} is not a normal float "
                          f"(|d| >= {sys.float_info.min!r}): R1 = {s.r1!r}, R2 = {s.r2!r}")
    if d > 0.0:
        theta = math.asinh(s.r2 / math.sqrt(d))
    else:
        theta = math.asinh(s.r1 * math.sqrt(p.gamma / -d))
    hs = HyperbolicState(theta=theta, w=w, d=d)
    r1b, r2b = hyperbolic_radii(hs, p)
    if abs(r1b - s.r1) > 1e-9 * s.r1 or abs(r2b - s.r2) > 1e-9 * s.r2:
        raise InversionFailure(
            f"radii ({s.r1}, {s.r2}) inconsistent with hyperbola d={d}: "
            f"round-trip gave ({r1b}, {r2b})"
        )
    return hs


def _chart_pair(d: float):
    """(f1, f2) of the d != 0 chart: (cosh, sinh) for d > 0, else (sinh, cosh)."""
    return (math.cosh, math.sinh) if d > 0.0 else (math.sinh, math.cosh)


def hyperbolic_radii(hs: HyperbolicState, p: Params) -> tuple[float, float]:
    """Map a hyperbolic-chart state back to the radii (R1, R2)."""
    f1, f2 = _chart_pair(hs.d)
    ad = abs(hs.d)
    return (math.sqrt(ad / p.gamma) * f1(hs.theta), math.sqrt(ad) * f2(hs.theta))


def hyperbolic_separation(theta: float, w: float, d: float, gamma: float) -> float:
    """Inter-filament distance sqrt((R1-R2)**2 + W**2) in the d != 0 chart."""
    f1, f2 = _chart_pair(d)
    base = math.sqrt(abs(d) / gamma) * (f1(theta) - math.sqrt(gamma) * f2(theta))
    return math.hypot(base, w)


# --------------------------------------------------------------------------
# d = 0 planar system
# --------------------------------------------------------------------------

def reduced_field(p: Params) -> Callable[[float, float], Derivative]:
    """Return the (theta, W) vector field of the d = 0 reduction.

    Equal circulation (``Params.regime``) is an exact branch: the radial-offset
    term drops out and the W = 0 line is excluded (OnSingularLine), together
    with the |W| whose cube underflows to 0.
    """
    alpha = p.alpha
    if p.regime is Regime.EQUAL_CIRCULATION:

        def field_g1(theta: float, w: float) -> Derivative:
            aw = abs(w)
            aw3 = aw * aw * aw
            if aw3 == 0.0:
                raise OnSingularLine(
                    f"|W|**3 is 0 at W = {w!r} (zero, or underflowed below "
                    "|W| of about 1.4e-108); W = 0 is excluded for gamma = 1"
                )
            return (-alpha * w / aw3, -2.0 * math.exp(-theta))

        return field_g1

    sqg = p.sqrt_gamma
    mu = p.mu
    c2 = p.offset2
    asq = alpha * sqg

    def field(theta: float, w: float) -> Derivative:
        e2 = math.exp(2.0 * theta)
        d2 = c2 * e2 + w * w
        d3 = d2 * math.sqrt(d2)
        return (-asq * w / d3, -mu * math.exp(-theta) + asq * c2 * e2 / d3)

    return field


def reduced_energy(p: Params) -> Callable[[float, float], float]:
    """Return the conserved energy of the d = 0 system as a callable."""
    alpha = p.alpha
    if p.regime is Regime.EQUAL_CIRCULATION:

        def energy_g1(theta: float, w: float) -> float:
            if w == 0.0:
                raise Divergent("energy diverges on W = 0 for gamma = 1")
            return -2.0 * math.exp(-theta) + alpha / abs(w)

        return energy_g1

    sqg = p.sqrt_gamma
    mu = p.mu
    c2 = p.offset2

    def energy(theta: float, w: float) -> float:
        d2 = c2 * math.exp(2.0 * theta) + w * w
        return -mu * math.exp(-theta) + alpha * sqg / math.sqrt(d2)

    return energy


def quartic(eta: float, alpha: float) -> float:
    """-eta**4 + eta**3 + alpha*eta**2 - eta + 1, whose root in (1, inf)
    squared gives the critical circulation ratio."""
    return (((-eta + 1.0) * eta + alpha) * eta - 1.0) * eta + 1.0


def k_sign(p: Params) -> int:
    """Sign of K = alpha**2*gamma - offset2*mu**2, or 0 where rounding cannot
    decide it: the sign ``Params`` draws the d = 0 regime from.

    With eta = sqrt(gamma), K = quartic(eta)*(alpha*eta**2 + (eta - 1)*
    (eta**3 + 1))/eta**2 and the second factor is positive, so K > 0 (1)
    below gamma_star and K < 0 (-1) above it.  Horner's eight roundings and
    the rounding of sqrt(gamma) move the computed quartic by at most
    12*2**-53*(eta**4 + eta**3 + alpha*eta**2 + eta + 1); within that bound
    the sign is undecided (0), and that is the critical band.
    """
    eta, alpha = math.sqrt(p.gamma), p.alpha
    q = quartic(eta, alpha)
    if math.isinf(q):  # eta > ~1.2e77, where the bound is inf too: far above gamma_star
        return -1
    bound = 12.0 * 2.0 ** -53 * ((((eta + 1.0) * eta + alpha) * eta + 1.0) * eta + 1.0)
    if abs(q) <= bound:
        return 0
    return 1 if q > 0.0 else -1


def _artanh_tail(t: float) -> float:
    """(artanh(t) - t)/t**3 as 18 terms of its series, for |t| <= 1/3: the one copy."""
    t2 = t * t
    return sum(t2 ** j / (2 * j + 3) for j in range(18))


def log_tail(y: float) -> float:
    """(log(y) - x)/x**2, x = y - 1, for y > 0 (-1/2 at y = 1).  It cancels as x -> 0:
    where |x| < 0.4 it is 2*x*S(t)/(2 + x)**3 - 1/(2 + x), t = x/(2 + x), S = ``_artanh_tail``,
    else it divides by x twice.  Within 9e-16 of 40 digits on [1e-300, 1e300]."""
    x = y - 1.0
    if abs(x) >= 0.4:
        return (math.log(y) - x) / x / x
    d = 2.0 + x
    return 2.0 * x / d ** 3 * _artanh_tail(x / d) - 1.0 / d


def _on_level(p: Params, theta: float, w: float) -> tuple[float, float, float]:
    """(u, 1 + z, z) on the level of the d = 0 state (theta, w): u = exp(theta),
    1 + z = m(u)/mu = sa/(mu*delta) and z = (K - mu**2*v**2)/(mu*delta*(sa + mu*delta)),
    with v = W/u, delta = D/u, sa = sqrt(a2g).  Neither m = mu + h*u nor m/mu - 1 is
    formed: near the critical rest line z lives in W**2, below D's rounding.  z = h*u/mu,
    a function of v, is the one source of h0 = mu*z/u (on the band's own K = 0 level in
    the critical band).  sa is alpha*sqrt(gamma) where c + K cancels (K < 0), and z =
    sa/(mu*delta) - 1 where K = -inf (gamma above about 5e102) or mu*v overflows.
    NumericalFailure where u leaves the float range."""
    mu, k = p.mu, p.k
    sa = math.sqrt(p.c + k) if k >= 0.0 else p.alpha * p.sqrt_gamma
    try:
        u = math.exp(theta)
        v = w / u
        delta = math.hypot(p.offset, v)
        mud = mu * delta
        if k > -math.inf and mud < math.inf:
            z = (k / mud - mu * v * (v / delta)) / (sa + mud)
        else:
            z = sa / mud - 1.0
    except (OverflowError, ZeroDivisionError) as exc:
        raise NumericalFailure(f"the state ({theta!r}, {w!r}) has no level in floats") from exc
    return u, sa / mud, z


def level_sign(z: float) -> int:
    """The sign of the level z = h0*exp(theta)/mu (``_on_level``), 0 for a NaN z and
    within the one zero-energy cut |z| <= 1e-12: |h0| <= 1e-12*mu*exp(-theta)."""
    if not abs(z) > 1e-12:
        return 0
    return 1 if z > 0.0 else -1


def monotone_approach(p: Params, theta: float, w: float) -> bool:
    """Whether W rises with s over (0, u], u = exp(theta), on the W > 0 branch of
    the level of the d = 0 state (theta, w), so that the run from it falls to the
    axis with W falling.  On the level d(W**2)/ds = 2*s*(a2g*mu/m**3 - offset2),
    m = mu + h*s, positive on (0, u) exactly where it is at u: with z = m(u)/mu - 1
    (``_on_level``), c*z*(3 + 3*z + z**2) < K.  It holds for every h < 0 once K >= 0
    and at equal circulation (c = 0), fails on the critical rest line (K = 0,
    W = 0), and is theta < theta_star on an h > 0 level.  A NaN z gives False."""
    z = _on_level(p, theta, w)[2]
    return p.c * z * (3.0 + z * (3.0 + z)) < p.k


def time_to_axis(p: Params, theta: float, w: float) -> float:
    """Time from the d = 0 state (theta, w), W >= 0, to the axis along the W > 0
    branch of its own energy level, in closed form (README, "Library", integrate),
    on every such branch that reaches the axis (K >= 0), W rising first or not.

    v = W/u, u = exp(theta), obeys dv/dtau = g(v) = sa/r - mu, r = hypot(offset, v),
    sa = sqrt(a2g), and the time is u**2*[G(v_f) - G(v)]/g(v)**2, G(v) = sa*asinh(v/offset)
    - mu*v, G' = g, g(v_f) = 0 at v_f = sqrt(K)/mu.  With r_f = sa/mu and a = (v_f - v)*
    (v_f + v)/(v_f*r + v*r_f), the bracket is sa*asinh(a) - mu*(v_f - v) and mu/g =
    r*(r_f + r)/((v_f + v)*(v_f - v)).  Where |a| <= 3/4 its O(a) terms cancel, and it is
    read through b = a/g and (asinh(a) - a)/a**3 = (2*S(a/s1)/s1 - 1)/s1**2, s1 = 1 +
    hypot(1, a), S = ``_artanh_tail``.  At equal circulation G = alpha*log(v) - 2*v and the
    time is -(W**2/alpha)*log_tail(y), y = mu*exp(-theta)*W/alpha (mu*h*(h*W)/alpha, h =
    exp(-theta/2), where exp(-theta) is subnormal or 0; W/(mu*exp(-theta)) where y overflows;
    log(y) + 1, log(y) = log(mu/alpha) + log(W) - theta, where y is subnormal or 0).  Within
    2.5e-15 of a 40-digit reference on 4,000 random states of every branch.  Finite and >= 0
    (0.0 only where it underflows), or NumericalFailure.
    """
    if not w >= 0.0:
        raise NumericalFailure(f"the time to the axis needs W >= 0, got {w!r}")
    try:
        if p.c == 0.0:  # equal circulation, where mu = gamma + 1
            mu, e = p.mu, math.exp(-theta)
            if e < sys.float_info.min:  # subnormal e keeps few digits: two normal halves
                h = math.exp(-0.5 * theta)
                y = mu * h * (h * w) / p.alpha
            else:
                y = mu * e * w / p.alpha
            if y < sys.float_info.min:  # y - 1 rounds to -1: log_tail(y) = log(y) + 1
                t = -(w * (math.log(mu / p.alpha) + math.log(w) - theta + 1.0)) * (w / p.alpha)
            else:
                t = -(w * log_tail(y)) * (w / p.alpha) if y < math.inf else w / mu / e
        else:
            mu, u = p.mu, math.exp(theta)
            sa, v_f, v = math.sqrt(p.c + p.k), math.sqrt(p.k) / mu, w / u  # K < 0: ValueError
            r, r_f, vp, vm = math.hypot(p.offset, v), sa / mu, v_f + v, v_f - v
            den = v_f * r + v * r_f
            a = vm * (vp / den)
            if abs(a) <= 0.75:
                s1 = 1.0 + math.hypot(1.0, a)
                x = a * (2.0 * _artanh_tail(a / s1) / s1 - 1.0) / s1 / s1  # (asinh(a) - a)/a**2
                b = r / den * (r_f + r) / mu
                big_t = b * (v_f * r / vp + sa * b * x)
            else:
                asinh_a = math.asinh(max(a, -sys.float_info.max))  # where a overflows, vm >> it
                mu_g = r / vp * ((r_f + r) / vm)
                big_t = mu_g * (mu_g * ((r_f * asinh_a - vm) / mu))
            t = u * (u * big_t)
    except (OverflowError, ZeroDivisionError, ValueError):
        t = math.nan
    if not 0.0 <= t < math.inf:
        raise NumericalFailure(f"no time to the axis from ({theta!r}, {w!r}) in floats")
    return t


# --------------------------------------------------------------------------
# d != 0 planar system
# --------------------------------------------------------------------------

def hyperbolic_field(p: Params, d: float) -> Callable[[float, float], Derivative]:
    """Return the (theta, W) vector field of the d != 0 chart.

    One closure serves both signs of d: the chart's pair (f1, f2) is bound
    once, and f1' = f2, f2' = f1 on either branch.
    """
    if d == 0.0:
        raise DomainError("hyperbolic chart requires d != 0")
    alpha = p.alpha
    gamma = p.gamma
    sqg = p.sqrt_gamma
    ad = abs(d)
    sqrt_ad = math.sqrt(ad)
    g32 = gamma * sqg
    f1, f2 = _chart_pair(d)

    def field(theta: float, w: float) -> Derivative:
        a, b = f1(theta), f2(theta)
        base = a - sqg * b
        s2 = (ad / gamma) * base * base + w * w
        s3 = s2 * math.sqrt(s2)
        dth = -alpha * sqg * w / s3
        dw = (
            -(g32 / a + 1.0 / b) / sqrt_ad
            + alpha * ad * (b - sqg * a) * base / (sqg * s3)
        )
        return (dth, dw)

    return field


def hyperbolic_kinetic(theta: float, d: float, gamma: float) -> float:
    """Self-induction part of the d != 0 energy (strictly increasing in theta)."""
    th2 = math.tanh(0.5 * theta)
    g32 = gamma * math.sqrt(gamma)
    if d > 0.0:
        return (2.0 * g32 * math.atan(th2) + math.log(th2)) / math.sqrt(d)
    return (g32 * math.log(th2) + 2.0 * math.atan(th2)) / math.sqrt(-d)


def hyperbolic_energy(p: Params, d: float) -> Callable[[float, float], float]:
    """Return the conserved energy of the d != 0 system as a callable.

    The interaction part diverges as the state approaches the contact
    configuration, which is what rules collisions out on d != 0.  Like the
    field, one closure serves both signs of d through the chart's pair.
    """
    if d == 0.0:
        raise DomainError("hyperbolic chart requires d != 0")
    gamma = p.gamma
    sqg = p.sqrt_gamma
    asq = p.alpha * sqg
    scale = math.sqrt(abs(d) / gamma)
    f1, f2 = _chart_pair(d)

    def energy(theta: float, w: float) -> float:
        if theta <= 0.0:
            raise DomainError(f"hyperbolic energy needs theta > 0, got {theta}")
        s = math.hypot(scale * (f1(theta) - sqg * f2(theta)), w)
        if s == 0.0:
            raise Divergent("energy diverges at the contact configuration")
        return hyperbolic_kinetic(theta, d, gamma) + asq / s

    return energy


def _coplanar_saddle(p: Params) -> float:
    """The d > 0 chart's equilibrium on W = 0 right of the contact angle, or inf.

    There W' = -dE(theta, 0)/dtheta has the sign of -P(t), with t = tanh(theta)
    > gamma**-1/2, sqg = sqrt(gamma), g32 = gamma*sqg and, whatever d,
    P(t) = (g32*t + 1)*(sqg*t - 1)**2 - alpha*gamma*t*(sqg - t).  P < 0 at the
    contact angle and P'' > 0 right of it, so E(theta, 0) falls to one
    minimum, the saddle, and rises after it; Newton's method from t = 1 falls
    onto P's one root there from the right.
    """
    sqg, ag = p.sqrt_gamma, p.alpha * p.gamma
    g32, t = p.gamma * sqg, 1.0
    while True:
        u = sqg * t - 1.0
        f = (g32 * t + 1.0) * u * u - ag * t * (sqg - t)
        if not f > 0.0:
            break
        step = f / ((g32 * u + 2.0 * sqg * (g32 * t + 1.0)) * u - ag * (sqg - 2.0 * t))
        t -= step
        if step <= t * 1e-13:
            break
    return math.atanh(t) if t < 1.0 else math.inf


# --------------------------------------------------------------------------
# Ansatz consistency
# --------------------------------------------------------------------------

def _cross(a: tuple[float, float, float], b: tuple[float, float, float]):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def ansatz_residual(
    s: FullState, p: Params, n_samples: int = 16, xi0: float = 0.0
) -> float:
    """Max-norm mismatch between the filament PDE and the circular ODE ansatz.

    Samples the curve parameter at n_samples points offset by xi0, evaluates
    the PDE right-hand side on the circular configuration in closed form,
    and compares against the velocity induced through the ansatz by the
    four-dimensional system.  The reduction is exact, so the residual is
    round-off only (< 1e-10 for any valid state).
    """
    if n_samples < 4:
        raise DomainError(f"n_samples must be >= 4, got {n_samples}")
    alpha = p.alpha
    beta = -p.gamma
    r1, z1, r2, z2 = s.r1, s.z1, s.r2, s.z2
    dr1, dz1, dr2, dz2 = full_field(p)(r1, z1, r2, z2)

    worst = 0.0
    for k in range(n_samples):
        xi = xi0 + 2.0 * math.pi * k / n_samples
        c, sn = math.cos(xi), math.sin(xi)

        x = (r1 * c, r1 * sn, z1)
        y = (r2 * c, r2 * sn, z2)
        x_xi = (-r1 * sn, r1 * c, 0.0)
        x_xixi = (-r1 * c, -r1 * sn, 0.0)
        y_xi = (-r2 * sn, r2 * c, 0.0)
        y_xixi = (-r2 * c, -r2 * sn, 0.0)

        diff = (x[0] - y[0], x[1] - y[1], x[2] - y[2])
        dist2 = diff[0] * diff[0] + diff[1] * diff[1] + diff[2] * diff[2]
        if dist2 == 0.0:
            raise SeparationZero("filaments overlap; interaction is singular")
        dist3 = dist2 * math.sqrt(dist2)

        self_x = _cross(x_xi, x_xixi)
        inter_x = _cross(y_xi, diff)
        x_t = tuple(
            beta * self_x[i] / r1 ** 3 - alpha * inter_x[i] / dist3
            for i in range(3)
        )

        ndiff = (-diff[0], -diff[1], -diff[2])
        self_y = _cross(y_xi, y_xixi)
        inter_y = _cross(x_xi, ndiff)
        y_t = tuple(
            self_y[i] / r2 ** 3 - alpha * beta * inter_y[i] / dist3
            for i in range(3)
        )

        ansatz_x = (dr1 * c, dr1 * sn, dz1)
        ansatz_y = (dr2 * c, dr2 * sn, dz2)
        for i in range(3):
            worst = max(worst, abs(x_t[i] - ansatz_x[i]), abs(y_t[i] - ansatz_y[i]))
    return worst
