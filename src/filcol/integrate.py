"""Adaptive embedded-pair integration with stop rules and invariant monitoring.

A Dormand-Prince 5(4) pair (FSAL) advances the system that the initial
state's type names: the full system for a FullState, the d = 0 reduction for
a ReducedState, the d != 0 chart for a HyperbolicState.  The error-per-step
is controlled in a mixed max norm with per-component scale
abs_tol + rel_tol*max(|y|, |y_new|); the step-size controller is the
standard proportional rule with safety 0.9 and growth clamp [0.2, 5.0].
Each attempt is straight-line scalar code for the state's fixed dimension:
one stepper for the 2-D (theta, W) charts and one for the 4-D full system,
with the vector field called on scalars.  A caller may pass one stop
predicate, checked at the initial point and at every accepted point: it
names the rule that holds there, or returns None.  The run ends at the
first point where a rule holds; nothing is interpolated.  The conserved
quantity of the chosen system (d for the full system, the energy for the
planar charts) is kept with the run and its drift computed on read, so any
run doubles as a conservation audit, and every run counts its attempts,
rejections and field evaluations in ``Trajectory.stats``.

Finite-time blow-up (the collision singularity) is not integrated into.
``simulate_until_collision`` owns the stop rules of a d = 0 run.  It
stops at the first accepted point where the separation D =
sqrt(offset2*exp(2*theta) + W**2) has fallen to a quarter of its initial
value on a branch of the energy level that reaches D = 0, and adds the
closed-form time to the axis (``dynamics.time_to_axis``) from that state,
along its own level; it stops a run undecided where W rises first, and,
when asked, at its survival witness, a point on a branch of the level that
provably never returns to the axis.  A run that meets the singularity any other way ends by step
collapse: the controller drives the step below the floor and the run ends
with outcome StepCollapsed at the last representable time before the
singularity, never with a NaN state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable

from . import dynamics
from .dynamics import FullState, HyperbolicState, Params, ReducedState, Regime
from .errors import (
    ConfigInvalid,
    FilcolError,
    InvalidInitialState,
    NumericalFailure,
    StepLimitExceeded,
)

__all__ = [
    "SystemKind",
    "IntegrationConfig",
    "Outcome",
    "IntegrationStats",
    "Trajectory",
    "integrate",
    "SimStatus",
    "CollisionResult",
    "simulate_until_collision",
]


class SystemKind(Enum):
    FULL = "full"
    REDUCED = "reduced"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class IntegrationConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 10_000_000
    h_init: float = 1e-4
    h_min: float = 1e-14

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ConfigInvalid("rel_tol and abs_tol must be positive and finite")
        if self.max_steps <= 0:
            raise ConfigInvalid("max_steps must be positive")
        if not (0.0 < self.h_min < self.h_init):
            raise ConfigInvalid("need 0 < h_min < h_init")


#: The settings and the collision oracle's horizon where a caller gives none;
#: the CLI's defaults and the verify battery's are read from these too.
DEFAULT_CONFIG = IntegrationConfig()
DEFAULT_T_END = 200.0


class Outcome(Enum):
    REACHED_T_END = "reached-t-end"
    EVENT_TERMINATED = "event-terminated"
    STEP_COLLAPSED = "step-collapsed"


@dataclass(frozen=True)
class IntegrationStats:
    """Work counts of one integration run.

    Every attempt is accepted or rejected.  f_evals is one evaluation at
    the start plus six per attempt (FSAL); an attempt cut short by a field
    that raises is counted in full.
    """

    attempts: int = 0
    rejections: int = 0
    accepted: int = 0
    f_evals: int = 0


@dataclass
class Trajectory:
    """Dense record of one integration run.

    times/states hold every accepted point (strictly increasing times);
    stop names the stop rule that ended the run at its last point, if one
    did; invariant is the monitored invariant's name, function and initial
    value; stats counts the work the run took.
    """

    system: SystemKind
    times: list[float]
    states: list[tuple[float, ...]]
    stop: str | None
    invariant: tuple[str, Callable[..., float], float] = field(repr=False, compare=False)
    outcome: Outcome
    stats: IntegrationStats = field(default_factory=IntegrationStats)

    @cached_property
    def drift(self) -> dict[str, float]:
        """The invariant's max absolute deviation from its initial value over
        the accepted points (inf where it cannot be evaluated), on first read."""
        name, inv, inv0 = self.invariant
        drift = 0.0
        for y in self.states[1:]:
            try:
                dev = abs(inv(*y) - inv0)
            except _FIELD_ERRORS:
                dev = math.inf
            if dev > drift:
                drift = dev
        return {name: drift}

    @property
    def t_final(self) -> float:
        return self.times[-1]

    @property
    def state_final(self) -> tuple[float, ...]:
        return self.states[-1]


# Dormand-Prince 5(4) tableau (FSAL: the seventh stage is f at the new point).
# _Aij weights stage j in the argument of stage i, _Bj are the fifth-order
# propagation weights (the argument of stage 7) and _Ej = b_j - bhat_j
# weight the embedded error estimate.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B2, _B3, _B4, _B5, _B6 = 35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = (
    b - bh
    for b, bh in zip(
        (_B1, _B2, _B3, _B4, _B5, _B6, 0.0),
        (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40),
    )
)

# What a field or energy evaluation raises at a point it cannot take.
_FIELD_ERRORS = (FilcolError, ValueError, ZeroDivisionError, OverflowError)


# The fixed-dimension steppers make one Dormand-Prince attempt of size h
# from state y with FSAL derivative k1.  Both tuples are unpacked to scalars
# (a, b for (theta, W); a, b, c, d for (R1, z1, R2, z2)), the field is called
# with scalars, and the result is (y_new, k7, err_norm): the fifth-order
# state, the field there, and the max over components of the embedded error
# estimate relative to abs_tol + rel_tol*max(|y|, |y_new|).  A field that
# raises or a non-finite y_new or k7 gives err_norm = inf, so the controller
# backs off instead of propagating a NaN state.  Every stage sum adds its
# terms left to right in tableau order with the zero weights kept:
# 0.0 * inf is nan, so a non-finite stage always reaches y_new.  The norm
# takes |x| and the maxima with conditional expressions, not abs() and
# max() calls, and gives their values bit for bit (a signed zero or a NaN
# component never replaces the 0.0 it starts from).


def _step_2d(f, h, y, k1, abs_tol, rel_tol):
    a, b = y
    k1a, k1b = k1
    try:
        k2a, k2b = f(
            a + h * (_A21 * k1a),
            b + h * (_A21 * k1b),
        )
        k3a, k3b = f(
            a + h * (_A31 * k1a + _A32 * k2a),
            b + h * (_A31 * k1b + _A32 * k2b),
        )
        k4a, k4b = f(
            a + h * (_A41 * k1a + _A42 * k2a + _A43 * k3a),
            b + h * (_A41 * k1b + _A42 * k2b + _A43 * k3b),
        )
        k5a, k5b = f(
            a + h * (_A51 * k1a + _A52 * k2a + _A53 * k3a + _A54 * k4a),
            b + h * (_A51 * k1b + _A52 * k2b + _A53 * k3b + _A54 * k4b),
        )
        k6a, k6b = f(
            a + h * (_A61 * k1a + _A62 * k2a + _A63 * k3a + _A64 * k4a + _A65 * k5a),
            b + h * (_A61 * k1b + _A62 * k2b + _A63 * k3b + _A64 * k4b + _A65 * k5b),
        )
        a1 = a + h * (_B1 * k1a + _B2 * k2a + _B3 * k3a + _B4 * k4a + _B5 * k5a + _B6 * k6a)
        b1 = b + h * (_B1 * k1b + _B2 * k2b + _B3 * k3b + _B4 * k4b + _B5 * k5b + _B6 * k6b)
        k7 = f(a1, b1)
    except _FIELD_ERRORS:
        return y, k1, math.inf
    y_new = (a1, b1)
    k7a, k7b = k7
    finite = math.isfinite
    if not (finite(a1) and finite(b1) and finite(k7a) and finite(k7b)):
        return y_new, k7, math.inf
    ea = h * (_E1 * k1a + _E2 * k2a + _E3 * k3a + _E4 * k4a + _E5 * k5a + _E6 * k6a + _E7 * k7a)
    sa, sa1 = (a if a >= 0.0 else -a), (a1 if a1 >= 0.0 else -a1)
    ea = (ea if ea >= 0.0 else -ea) / (abs_tol + rel_tol * (sa if sa >= sa1 else sa1))
    eb = h * (_E1 * k1b + _E2 * k2b + _E3 * k3b + _E4 * k4b + _E5 * k5b + _E6 * k6b + _E7 * k7b)
    sb, sb1 = (b if b >= 0.0 else -b), (b1 if b1 >= 0.0 else -b1)
    eb = (eb if eb >= 0.0 else -eb) / (abs_tol + rel_tol * (sb if sb >= sb1 else sb1))
    err = ea if ea > 0.0 else 0.0
    return y_new, k7, eb if eb > err else err


def _step_4d(f, h, y, k1, abs_tol, rel_tol):
    a, b, c, d = y
    k1a, k1b, k1c, k1d = k1
    try:
        k2a, k2b, k2c, k2d = f(
            a + h * (_A21 * k1a),
            b + h * (_A21 * k1b),
            c + h * (_A21 * k1c),
            d + h * (_A21 * k1d),
        )
        k3a, k3b, k3c, k3d = f(
            a + h * (_A31 * k1a + _A32 * k2a),
            b + h * (_A31 * k1b + _A32 * k2b),
            c + h * (_A31 * k1c + _A32 * k2c),
            d + h * (_A31 * k1d + _A32 * k2d),
        )
        k4a, k4b, k4c, k4d = f(
            a + h * (_A41 * k1a + _A42 * k2a + _A43 * k3a),
            b + h * (_A41 * k1b + _A42 * k2b + _A43 * k3b),
            c + h * (_A41 * k1c + _A42 * k2c + _A43 * k3c),
            d + h * (_A41 * k1d + _A42 * k2d + _A43 * k3d),
        )
        k5a, k5b, k5c, k5d = f(
            a + h * (_A51 * k1a + _A52 * k2a + _A53 * k3a + _A54 * k4a),
            b + h * (_A51 * k1b + _A52 * k2b + _A53 * k3b + _A54 * k4b),
            c + h * (_A51 * k1c + _A52 * k2c + _A53 * k3c + _A54 * k4c),
            d + h * (_A51 * k1d + _A52 * k2d + _A53 * k3d + _A54 * k4d),
        )
        k6a, k6b, k6c, k6d = f(
            a + h * (_A61 * k1a + _A62 * k2a + _A63 * k3a + _A64 * k4a + _A65 * k5a),
            b + h * (_A61 * k1b + _A62 * k2b + _A63 * k3b + _A64 * k4b + _A65 * k5b),
            c + h * (_A61 * k1c + _A62 * k2c + _A63 * k3c + _A64 * k4c + _A65 * k5c),
            d + h * (_A61 * k1d + _A62 * k2d + _A63 * k3d + _A64 * k4d + _A65 * k5d),
        )
        a1 = a + h * (_B1 * k1a + _B2 * k2a + _B3 * k3a + _B4 * k4a + _B5 * k5a + _B6 * k6a)
        b1 = b + h * (_B1 * k1b + _B2 * k2b + _B3 * k3b + _B4 * k4b + _B5 * k5b + _B6 * k6b)
        c1 = c + h * (_B1 * k1c + _B2 * k2c + _B3 * k3c + _B4 * k4c + _B5 * k5c + _B6 * k6c)
        d1 = d + h * (_B1 * k1d + _B2 * k2d + _B3 * k3d + _B4 * k4d + _B5 * k5d + _B6 * k6d)
        k7 = f(a1, b1, c1, d1)
    except _FIELD_ERRORS:
        return y, k1, math.inf
    y_new = (a1, b1, c1, d1)
    k7a, k7b, k7c, k7d = k7
    finite = math.isfinite
    if not (
        finite(a1) and finite(b1) and finite(c1) and finite(d1)
        and finite(k7a) and finite(k7b) and finite(k7c) and finite(k7d)
    ):
        return y_new, k7, math.inf
    ea = h * (_E1 * k1a + _E2 * k2a + _E3 * k3a + _E4 * k4a + _E5 * k5a + _E6 * k6a + _E7 * k7a)
    sa, sa1 = (a if a >= 0.0 else -a), (a1 if a1 >= 0.0 else -a1)
    ea = (ea if ea >= 0.0 else -ea) / (abs_tol + rel_tol * (sa if sa >= sa1 else sa1))
    eb = h * (_E1 * k1b + _E2 * k2b + _E3 * k3b + _E4 * k4b + _E5 * k5b + _E6 * k6b + _E7 * k7b)
    sb, sb1 = (b if b >= 0.0 else -b), (b1 if b1 >= 0.0 else -b1)
    eb = (eb if eb >= 0.0 else -eb) / (abs_tol + rel_tol * (sb if sb >= sb1 else sb1))
    ec = h * (_E1 * k1c + _E2 * k2c + _E3 * k3c + _E4 * k4c + _E5 * k5c + _E6 * k6c + _E7 * k7c)
    sc, sc1 = (c if c >= 0.0 else -c), (c1 if c1 >= 0.0 else -c1)
    ec = (ec if ec >= 0.0 else -ec) / (abs_tol + rel_tol * (sc if sc >= sc1 else sc1))
    ed = h * (_E1 * k1d + _E2 * k2d + _E3 * k3d + _E4 * k4d + _E5 * k5d + _E6 * k6d + _E7 * k7d)
    sd, sd1 = (d if d >= 0.0 else -d), (d1 if d1 >= 0.0 else -d1)
    ed = (ed if ed >= 0.0 else -ed) / (abs_tol + rel_tol * (sd if sd >= sd1 else sd1))
    err = ea if ea > 0.0 else 0.0
    err = eb if eb > err else err
    err = ec if ec > err else err
    return y_new, k7, ed if ed > err else err

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _make_field(y0, p: Params):
    """The system y0's type names, its vector field, and its monitored
    invariant's name and function."""
    if isinstance(y0, FullState):
        gamma = p.gamma
        return (SystemKind.FULL, dynamics.full_field(p), "d",
                lambda r1, z1, r2, z2: gamma * r1 * r1 - r2 * r2)
    if isinstance(y0, ReducedState):
        return SystemKind.REDUCED, dynamics.reduced_field(p), "H", dynamics.reduced_energy(p)
    if isinstance(y0, HyperbolicState):
        d = y0.d
        return (SystemKind.HYPERBOLIC, dynamics.hyperbolic_field(p, d), "H",
                dynamics.hyperbolic_energy(p, d))
    raise InvalidInitialState(f"initial state must be a state dataclass, got {y0!r}")


def integrate(
    y0,
    p: Params,
    t_end: float,
    cfg: IntegrationConfig = DEFAULT_CONFIG,
    stop: Callable[[tuple[float, ...]], str | None] | None = None,
) -> Trajectory:
    """Advance y0 to t_end, or to the first point where a stop rule holds,
    or to step collapse.

    The system is the one y0's type names (FullState, ReducedState or
    HyperbolicState).  ``stop``, checked at y0 and at every accepted point,
    returns the name of the rule that holds there, or None; the first point
    where one holds is the run's last point, and its name is
    ``Trajectory.stop``.  t_end must exceed ``cfg.h_min``, the step floor,
    so that a run takes at least one step; a run that reaches its horizon
    ends at exactly t_end, its last step taking whatever is left once the
    remainder would fall below the floor.  Returns a Trajectory; raises
    InvalidInitialState when y0 or t_end is rejected and StepLimitExceeded
    when max_steps attempts are exhausted.
    """
    if not (isinstance(t_end, (int, float)) and math.isfinite(t_end) and t_end > 0.0):
        raise InvalidInitialState(f"t_end must be a positive finite real, got {t_end}")
    if t_end <= cfg.h_min:
        raise InvalidInitialState(f"t_end must exceed h_min = {cfg.h_min}, got {t_end}")
    system, f, inv_name, inv = _make_field(y0, p)
    y = y0.astuple()
    step = _step_4d if system is SystemKind.FULL else _step_2d
    try:
        k1 = f(*y)
        inv0 = inv(*y)
    except _FIELD_ERRORS as exc:
        raise InvalidInitialState(f"initial state rejected: {exc}") from exc
    if not all(math.isfinite(v) for v in k1):
        raise InvalidInitialState(f"vector field not finite at initial state {y}")

    abs_tol, rel_tol, h_min, max_steps = cfg.abs_tol, cfg.rel_tol, cfg.h_min, cfg.max_steps
    times = [0.0]
    states = [y]
    t = 0.0
    floor = max(h_min, 4.0 * math.ulp(t))
    h = min(cfg.h_init, t_end)
    attempts = rejections = 0
    why = None if stop is None else stop(y)
    outcome = None if why is None else Outcome.EVENT_TERMINATED

    while outcome is None:
        rem = t_end - t
        if rem <= 0.0:
            outcome = Outcome.REACHED_T_END
            break
        if h < floor:
            outcome = Outcome.STEP_COLLAPSED
            break
        # A step that would leave less than the floor to go takes all of it.
        h_step = rem if h >= rem - floor else h

        attempts += 1
        if attempts > max_steps:
            raise StepLimitExceeded(f"exceeded {max_steps} step attempts at t={t}")

        y_new, k7, err_norm = step(f, h_step, y, k1, abs_tol, rel_tol)
        if err_norm > 1.0:
            rejections += 1
            factor = _SAFETY * err_norm ** -0.2 if err_norm < math.inf else _MIN_FACTOR
            if factor < _MIN_FACTOR:
                factor = _MIN_FACTOR
            h = h_step * factor
            continue

        # Accepted.  t + rem can round short of t_end: the last step lands on it.
        t = t_end if h_step == rem else t + h_step
        floor = max(h_min, 4.0 * math.ulp(t))
        y = y_new
        k1 = k7
        times.append(t)
        states.append(y)
        if stop is not None:
            why = stop(y)
            if why is not None:
                outcome = Outcome.EVENT_TERMINATED
                break
        factor = _SAFETY * err_norm ** -0.2 if err_norm > 0.0 else _MAX_FACTOR
        if factor > _MAX_FACTOR:  # err_norm <= 1 puts it at or above _SAFETY
            factor = _MAX_FACTOR
        h = h_step * factor

    return Trajectory(
        system=system,
        times=times,
        states=states,
        stop=why,
        invariant=(inv_name, inv, inv0),
        outcome=outcome,
        stats=IntegrationStats(
            attempts=attempts,
            rejections=rejections,
            accepted=attempts - rejections,
            f_evals=1 + 6 * attempts,
        ),
    )


# --------------------------------------------------------------------------
# Collision-aware driver
# --------------------------------------------------------------------------


class SimStatus(Enum):
    COLLIDED = "collided"
    SURVIVED = "survived"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CollisionResult:
    """Verdict of a collision-oracle run.  ``time`` is the collision time
    for a collided run, else the time the run ended; ``remaining_time`` is
    the closed-form part of a collision time (0.0 unless collided), the
    rest having been integrated."""

    status: SimStatus
    time: float
    remaining_time: float = 0.0

    @property
    def collided(self) -> bool:
        return self.status is SimStatus.COLLIDED


#: Fraction of the initial separation at which a colliding run stops.
_KAPPA = 0.25


def simulate_until_collision(
    rs0: ReducedState,
    p: Params,
    cfg: IntegrationConfig = DEFAULT_CONFIG,
    t_end: float = DEFAULT_T_END,
    *,
    survival_witness: bool = False,
) -> tuple[CollisionResult, Trajectory]:
    """Integrate the reduced system and decide collided/survived.

    The run stops at the first accepted point where the separation has
    fallen to _KAPPA of its initial value on a branch of the energy level
    that reaches the axis (the "separation-below" rule).  It collided if,
    on the stop point's own level, W falls with s all the way to the axis
    (``dynamics.monotone_approach`` of the stop state).  The collision time
    is the stop point's time plus the closed-form time to the axis from the
    stop state (``dynamics.time_to_axis``), reported as ``remaining_time``;
    where that time cannot be formed in floats the run is inconclusive.  A
    run that ends by step collapse on such a branch collided too where the
    time left is below ``cfg.h_min``, the step floor.  A run that reaches
    t_end survived.  With ``survival_witness`` the "survival-witness" rule
    is watched too, and a run it stops survived at the witness time: from
    there the rings only separate.  A run stopped where W rose (the
    "w-rose" rule: an orbit that reaches the singularity after a rise is no
    collision in the defined sense), or by any other stop, such as step
    collapse off an armed branch, is inconclusive.  The rules are armed from
    ``p.regime``: the separation and rise rules unless the ratio is
    supercritical, and the witness's W = 0 edge at equal circulation.
    Raises ConfigInvalid for a state that is not a ReducedState.
    """
    if not isinstance(rs0, ReducedState):
        raise ConfigInvalid(f"the collision driver needs a ReducedState (d = 0), got {rs0!r}")
    regime = p.regime
    armed, equal = regime is not Regime.SUPERCRITICAL, regime is Regime.EQUAL_CIRCULATION
    c2 = p.offset2
    th0, w0 = rs0.theta, rs0.w
    try:
        # At gamma = 1, offset2 = 0 and D = |W|: exp(theta) alone may overflow.
        thr2 = _KAPPA * _KAPPA * ((c2 * math.exp(2.0 * th0) if c2 else 0.0) + w0 * w0)
        witness = survival_witness and (
            equal or dynamics.level_sign(dynamics._on_level(p, th0, w0)[2]) < 0
        )
    except _FIELD_ERRORS as exc:
        raise InvalidInitialState(f"initial state rejected: {exc}") from exc
    slack = 1e-9 * (1.0 + abs(w0))
    w_witness = 0.0 if equal else -slack
    w_last = w0

    def stop(y):
        """The rule that holds at y: "w-rose", "separation-below",
        "survival-witness" or None.

        The rise rule holds where W exceeds the previous accepted point's W
        by more than slack = 1e-9*(1 + |W0|).  Checked first, it leaves no
        separation stop after a rise.

        The separation rule holds where W > 0 and D**2 = offset2*exp(2*theta)
        + W**2 is at most (_KAPPA*D0)**2 (a NaN D**2 counts as reached).  On
        the run's energy level h0 the bracket at s = exp(theta) is K -
        offset2*h0*s*(2*mu + h0*s) = a**2*W**2 with a = h0 + mu/s > 0, so it
        is nonnegative at the state itself.  It is monotone in s (its slope
        is -2*offset2*h0*m(s) with m(s) = mu + h0*s = a*s > 0), so its
        minimum over (0, u] is the smaller of K and a**2*W**2: the W > 0
        branch reaches the axis exactly where K >= 0.  The rule is armed
        unless the record's regime is supercritical; the critical band,
        where the sign of K is undecided, is armed.

        The survival witness holds where W is at most -slack; at equal
        circulation (the record's regime) where W <= 0, as every W < 0 falls.
        On level h0, with m(s) = mu + h0*s, W**2 = s**2*bracket(s)/m(s)**2
        and D = alpha*sqrt(gamma)*s/m(s), while dtheta/dt =
        -alpha*sqrt(gamma)*W/D**3 > 0 where W < 0.  With h0 <= 0, m does not
        rise and the bracket does not fall as s grows (its slope is
        -2*offset2*h0*m), so on the W < 0 branch |W| and D only grow: it
        never returns to W = 0, nor to the axis.  At equal circulation,
        dW/dt = -2*exp(-theta) < 0 whatever h0.  So the witness is armed
        once, from rs0: at equal circulation, or where the level of rs0, the
        one ``time_to_axis`` reads, lies below the zero-energy cut
        (``dynamics.level_sign``).  K < 0 puts every level below zero, so
        every supercritical run is armed.  Neither theta_star nor gamma_star enters.
        """
        nonlocal w_last
        th, w = y
        if armed:
            if w > w_last + slack:
                return "w-rose"
            w_last = w
            if w > 0.0:
                u = math.exp(th) if c2 else 0.0
                if not c2 * u * u + w * w > thr2:
                    return "separation-below"
        if witness and w <= w_witness:
            return "survival-witness"
        return None

    traj = integrate(rs0, p, t_end, cfg, stop)
    if traj.outcome is Outcome.REACHED_T_END or traj.stop == "survival-witness":
        return CollisionResult(SimStatus.SURVIVED, traj.t_final), traj
    inconclusive = CollisionResult(SimStatus.INCONCLUSIVE, traj.t_final), traj
    theta, w = traj.state_final
    if traj.stop == "w-rose" or not (w > 0.0 and armed):  # a separation stop is neither
        return inconclusive
    try:
        if not dynamics.monotone_approach(p, theta, w):
            return inconclusive
        t_rem = dynamics.time_to_axis(p, theta, w)
    except NumericalFailure:  # the stop point's level has no time in floats
        return inconclusive
    if traj.outcome is Outcome.STEP_COLLAPSED and not t_rem < cfg.h_min:
        return inconclusive
    return CollisionResult(SimStatus.COLLIDED, traj.t_final + t_rem, t_rem), traj
