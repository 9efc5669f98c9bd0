"""Shared helpers for the test suite."""

from __future__ import annotations

import math
import random

import mpmath
from hypothesis import settings
from hypothesis import strategies as st

from filcol import FullState, Params

# Property tests draw the same examples on every run and replay none from
# an example database, so every run checks the same cases.
settings.register_profile("filcol", derandomize=True, database=None, deadline=None)
settings.load_profile("filcol")


def rel_err(measured: float, expected: float) -> float:
    return abs(measured - expected) / max(abs(expected), 1e-300)


def level_w(theta: float, p, h0: float) -> float:
    """W > 0 on the d = 0 energy level h0 at angle theta.

    From h0 = -mu*exp(-theta) + alpha*sqrt(gamma)/D: a = h0 + mu*exp(-theta)
    = alpha*sqrt(gamma)/D and W = sqrt(bracket)/a with the level bracket
    alpha**2*gamma - offset2*exp(2*theta)*a**2 = a**2*W**2, clamped at 0.
    """
    a = h0 + p.mu * math.exp(-theta)
    bracket = p.alpha ** 2 * p.gamma - p.offset2 * math.exp(2.0 * theta) * a * a
    return math.sqrt(max(bracket, 0.0)) / a


def w_falls_all_the_way(p, theta: float, w: float) -> bool:
    """Whether W falls all the way to the axis from the d = 0 state (theta, w):
    W > 0 and v = w*exp(-theta) >= v_star, outside the band where W rises first
    (the fact the collision oracle reads).  Compared in logs, so that v may
    overflow; a NaN state gives False."""
    if not w > 0.0:
        return False
    if p.v_star == 0.0:
        return not math.isnan(theta)
    return math.log(w) - theta >= math.log(p.v_star)


def quadrature_time(p, theta, w, critical=False):
    """int_0^u a2g*s ds/(m**2*sqrt(K - offset2*h*s*(2*mu + h*s))), m = mu + h*s,
    to 40 digits on the own level of the float state (theta, w), u =
    exp(theta): h = sqrt(a2g)/D - mu/u.  At the critical ratio the level is
    formed with K = 0 exactly: a2g = offset2*mu**2."""
    with mpmath.workdps(40):
        c2, mu = mpmath.mpf(p.offset2), mpmath.mpf(p.mu)
        a2g = c2 * mu * mu if critical else mpmath.mpf(p.alpha) ** 2 * mpmath.mpf(p.gamma)
        k, u, w = a2g - c2 * mu * mu, mpmath.exp(mpmath.mpf(theta)), mpmath.mpf(w)
        h = mpmath.sqrt(a2g / (c2 * u * u + w * w)) - mu / u

        def integrand(v):
            s = v * v
            m = mu + h * s
            return 2 * a2g * v ** 3 / (m * m * mpmath.sqrt(k - c2 * h * s * (2 * mu + h * s)))

        return mpmath.quad(integrand, [0, mpmath.sqrt(u) / 2, mpmath.sqrt(u)])


def closed_form_time(p, theta, w):
    """The time to the axis on the own level of the float state (theta, w),
    from the closed form in mpmath, whose exponents do not overflow: with v =
    W/u, -(W**2/alpha)*(log(y) - x)/x**2, x = y - 1, y = mu*v/alpha, at equal
    circulation, else (a2g/h**2)*[F(m) - F(mu)], F(m) = -artanh(q/sqrt(a2g))/
    sqrt(a2g) + mu*q/(a2g*m), on the law's level (K = 0 in the critical band).
    At the state, with delta = sqrt(offset2 + v**2), m = sqrt(a2g)/delta, q =
    m*v and 1 - q/sqrt(a2g) = offset2/(delta*(delta + v)), so artanh takes no
    digits as q/sqrt(a2g) nears 1.  Its terms cancel to O(z**2), so the digits
    grow with |log z|: a pass whose z is not resolved to 30 digits is repeated
    with the digits that z asks for."""
    dps = 64
    while True:
        with mpmath.workdps(dps):
            u, w_mp = mpmath.exp(mpmath.mpf(theta)), mpmath.mpf(w)
            mu, v = mpmath.mpf(p.mu), w_mp / u
            if p.c == 0.0:
                y = mu * v / p.alpha
                small = y - 1
                if not small:  # the zero level: (log(y) - x)/x**2 -> -1/2
                    return w_mp ** 2 / (2 * p.alpha)
                t = -(w_mp ** 2 / p.alpha) * (mpmath.log(y) - small) / small ** 2
            else:
                c2 = mpmath.mpf(p.offset) ** 2
                k2 = mpmath.mpf(p.alpha) ** 2 * p.gamma - c2 * mu * mu if p.k else 0
                a2g = c2 * mu * mu + k2
                sa, delta = mpmath.sqrt(a2g), mpmath.sqrt(c2 + v * v)
                small = (k2 - mu * mu * v * v) / (mu * delta * (sa + mu * delta))
                gap = c2 / (delta * (delta + v))  # 1 - q/sa at the state
                f_state = -mpmath.log((2 - gap) / gap) / (2 * sa) + mu * v / a2g
                k = mpmath.sqrt(k2)
                f_rest = -mpmath.atanh(k / sa) / sa + k / a2g
                t = (u / (small * mu)) ** 2 * a2g * (f_state - f_rest)
            if small and abs(small) > mpmath.mpf(10) ** (30 - dps // 2):
                return t
            need = 64 + 2 * int(-mpmath.log10(abs(small))) if small else 2 * dps
        dps = max(need, dps + 16)


def energy_40(p, theta: float, w: float):
    """The d = 0 energy of the float state (theta, w) to 40 digits, with mu and
    offset formed from the float gamma in mpmath: the true level of the state."""
    with mpmath.workdps(40):
        theta, w = mpmath.mpf(theta), mpmath.mpf(w)
        sg = mpmath.sqrt(mpmath.mpf(p.gamma))
        mu = p.gamma + 1 / sg
        d = mpmath.sqrt((sg - 1) ** 2 * mpmath.exp(2 * theta) + w * w)
        return -mu * mpmath.exp(-theta) + p.alpha * sg / d, mu * mpmath.exp(-theta)


def h0_error(p, theta: float, w: float, h0: float) -> float:
    """|h0 - H|/max(|H|, mu*exp(-theta)), H the 40-digit energy of the state."""
    h, self_induction = energy_40(p, theta, w)
    return float(abs(h0 - h) / max(abs(h), self_induction))


def _nonzero_d_state(uniform, coin) -> tuple[Params, FullState]:
    p = Params(uniform(0.02, 0.98), uniform(1.0, 4.0))
    r1 = math.exp(uniform(-2.0, 2.0))
    ratio = uniform(0.01, 0.99)
    r2 = p.sqrt_gamma * r1 * (ratio if coin() else 1.0 / ratio)
    z1, z2 = uniform(-2.0, 2.0), uniform(-2.0, 2.0)
    return p, FullState(r1, z1, r2, z2)


@st.composite
def nonzero_d_states(draw) -> tuple[Params, FullState]:
    """A full state whose conserved d = gamma*R1**2 - R2**2 has the drawn
    sign, with |d| at least 2% of gamma*R1**2, so that it takes the d != 0
    chart."""
    return _nonzero_d_state(lambda lo, hi: draw(st.floats(lo, hi)), lambda: draw(st.booleans()))


def nonzero_d_sample(n: int, seed: int) -> list[tuple[Params, FullState]]:
    """n states of the ``nonzero_d_states`` distribution, drawn by a seeded
    ``random.Random``: a fixed sample to average over."""
    rng = random.Random(seed)
    return [_nonzero_d_state(rng.uniform, lambda: rng.random() < 0.5) for _ in range(n)]


def linspace(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def log_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mx = sum(lx) / n
    my = sum(ly) / n
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den
