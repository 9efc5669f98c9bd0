"""Adaptive embedded-pair integration with stop rules and invariant monitoring.

A Dormand-Prince 5(4) pair (FSAL) advances the system that the initial
state's type names: the full system for a FullState, the d = 0 reduction for
a ReducedState, its scalar flow in Sundman time for a FlowState, the d != 0
chart for a HyperbolicState.  The error-per-step
is controlled in a mixed max norm with per-component scale
abs_tol + rel_tol*max(|y|, |y_new|); the step-size controller is the
standard proportional rule with safety 0.9 and growth clamp [0.2, 5.0].
Each attempt is straight-line scalar code for the state's fixed dimension,
with the vector field called on scalars; one template builds the 2-D (theta,
W), the 3-D (v, theta, t) and the 4-D steppers, with the same term order and
zero weights.  The 3-D attempt carries the flow's rule itself and calls the
(theta, W) chart closure once per stage.  A caller may pass one stop
predicate, checked at the initial point and at every accepted point: it
names the rule that holds there, or returns None.  The run ends at the first point where a rule holds; nothing is
interpolated.  The conserved quantity of the chosen system (d for the full
system, the energy for the planar charts and the flow) is kept with the run
and its drift computed on read, so any run doubles as a conservation audit,
and every run counts its attempts, rejections and field evaluations in
``Trajectory.stats``.

The collision oracle (``simulate_until_collision`` for one d = 0 state,
``oracle_verdicts`` for a set sharing one Params) runs on the flow of
v = W*exp(-theta) in Sundman time (``dynamics.FlowState``).  By the scale
law a state's verdict depends on v alone, and v moves monotonically, so the
rules are facts of v (``_Oracle``), one set for every run: W rose (``w-rose``)
where the path met |v| < v_star, the rings separate for good
(``survival-witness``) once v < 0 where g(v) < 0 or at equal circulation,
and a run collided where the separation has fallen to a quarter of its start
with K >= 0 and v > 0 (``separation-below``), at that time plus the
closed-form time to the axis (``dynamics.time_to_axis``) from there.  Every
state whose v lies on one run's path is read off that run; a one-state run
that reaches its horizon is finished in the (theta, W) chart, so that its
trajectory ends at t_end, and so is one whose start the flow's field
rejects.  The collision singularity itself is never integrated into: a run that the
controller cannot continue ends by step collapse, undecided, never with a
NaN state.
"""

from __future__ import annotations

import linecache
import math
import sys
from bisect import insort
from dataclasses import astuple, dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Callable

from . import dynamics
from .dynamics import FlowState, FullState, HyperbolicState, Params, ReducedState, Regime
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
    "oracle_verdicts",
    "oracle_groups",
]


class SystemKind(Enum):
    FULL = "full"
    REDUCED = "reduced"
    FLOW = "flow"
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


#: The settings and the collision oracle's physical horizon where a caller gives
#: none; the CLI's defaults and the verify battery's are read from these too.
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
    the start plus six per attempt (FSAL) in each ``integrate`` call; an
    attempt cut short by a field that raises is counted in full.  A
    collision-oracle run that the (theta, W) chart finishes at its horizon
    counts both calls, and one whose start the flow's field rejects counts
    that one evaluation too; a start rule's one-point run counts none.
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
# (a, b for (theta, W); a, b, c for the flow's (v, theta, t); a, b, c, d for
# (R1, z1, R2, z2)), the field is called with scalars, and the result is
# (y_new, k7, err_norm): the fifth-order state, the field there, and the max
# over components of the embedded error estimate relative to
# abs_tol + rel_tol*max(|y|, |y_new|).  A field that raises or a non-finite
# y_new or k7 gives err_norm = inf, so the controller backs off instead of
# propagating a NaN state.  Every stage sum adds its terms left to right in
# tableau order with the zero weights kept: 0.0 * inf is nan, so a non-finite
# stage always reaches y_new.  The norm takes |x| and the maxima with
# conditional expressions, not abs() and max() calls, and gives their values
# bit for bit (a signed zero or a NaN component never replaces the 0.0 it
# starts from).
#
# The flow's stepper carries the flow's rule (``FlowState``): f is the chart
# closure of ``dynamics.reduced_field``, called once per stage at theta = 0,
# and no stage argument is formed for t, which no rate reads.


def _attempt(n: int):
    """The stepper ``_step_<n>d`` of an n-component state and ``_rate_<n>d``, its
    field at one point (for the first k1): straight-line source written from the
    tableau's names (_Aij, _Bj, _Ej) and one field rule, compiled in this
    module's globals, and registered with ``linecache`` so that tracebacks and
    ``inspect.getsource`` show it."""
    cs, name = "abcd"[:n], f"_step_{n}d"

    def each(fmt: str, sep: str = ", ") -> str:  # fmt once per component c
        return sep.join(fmt.format(c=c) for c in cs)

    def stage(w: str, m: int, c: str) -> str:  # h * (w1 * k1c + ... + wm * kmc)
        return "h * (" + " + ".join(f"{w}{j} * k{j}{c}" for j in range(1, m + 1)) + ")"

    def field(k: str, args: list[str], pad: str) -> list[str]:  # k = the field at args
        if n != 3:
            return [f"{pad}{k} = f(" + "".join(f"\n{pad}    {x}," for x in args) + f"\n{pad})"]
        v, theta, _ = args
        return [f"{pad}v = {v}", f"{pad}dth, dw = f(0.0, v)",
                f"{pad}{k} = dw - v * dth, dth, math.exp(2.0 * ({theta}))"]

    src = [f"def {name}(f, h, y, k1, abs_tol, rel_tol):",
           f"    {each('{c}')} = y", f"    {each('k1{c}')} = k1", "    try:"]
    for i in range(2, 7):
        src += field(each(f"k{i}{{c}}"), [f"{c} + {stage(f'_A{i}', i - 1, c)}" for c in cs],
                     " " * 8)
    src += [f"        {c}1 = {c} + {stage('_B', 6, c)}" for c in cs]
    src += field("k7", [f"{c}1" for c in cs], " " * 8)
    src += ["    except _FIELD_ERRORS:",
            "        return y, k1, math.inf", f"    y_new = ({each('{c}1')})",
            f"    {each('k7{c}')} = k7", "    finite = math.isfinite",
            f"    if not ({each('finite({c}1)', ' and ')} and {each('finite(k7{c})', ' and ')}):",
            "        return y_new, k7, math.inf"]
    for c in cs:
        src += [f"    e{c} = {stage('_E', 7, c)}",
                f"    s{c}, s{c}1 = ({c} if {c} >= 0.0 else -{c}),"
                f" ({c}1 if {c}1 >= 0.0 else -{c}1)",
                f"    e{c} = (e{c} if e{c} >= 0.0 else -e{c})"
                f" / (abs_tol + rel_tol * (s{c} if s{c} >= s{c}1 else s{c}1))"]
    src += ["    err = ea if ea > 0.0 else 0.0"]
    src += [f"    err = e{c} if e{c} > err else err" for c in cs[1:-1]]
    src += [f"    return y_new, k7, e{cs[-1]} if e{cs[-1]} > err else err", "",
            f"def _rate_{n}d(f, y):", f"    {each('{c}')} = y", *field("k", list(cs), "    "),
            "    return k"]
    text, filename = "\n".join(src) + "\n", f"<filcol.integrate.{name}>"
    linecache.cache[filename] = (len(text), None, text.splitlines(keepends=True), filename)
    namespace: dict = {}
    exec(compile(text, filename, "exec"), globals(), namespace)
    return namespace[name], namespace[f"_rate_{n}d"]


#: Each dimension's stepper and its field at one point.
_STEPPERS = {n: _attempt(n) for n in (2, 3, 4)}
_step_2d, _step_3d, _step_4d = (step for step, _ in _STEPPERS.values())

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
    if isinstance(y0, FlowState):
        energy, exp = dynamics.reduced_energy(p), math.exp
        # The chart closure (see _step_3d); h = exp(-theta)*g(v), g(v) the energy at theta = 0.
        return (SystemKind.FLOW, dynamics.reduced_field(p), "H",
                lambda v, theta, t: energy(0.0, v) * exp(-theta))
    if isinstance(y0, HyperbolicState):
        d = y0.d
        return (SystemKind.HYPERBOLIC, dynamics.hyperbolic_field(p, d), "H",
                dynamics.hyperbolic_energy(p, d))
    raise InvalidInitialState(f"initial state must be a state dataclass, got {y0!r}")


def _check_horizon(t_end, cfg: IntegrationConfig, largest: float) -> None:
    """Reject a horizon that is not a real in (cfg.h_min, largest]."""
    if not (isinstance(t_end, (int, float)) and 0.0 < t_end <= largest):
        kind = "finite real" if largest < math.inf else "real or inf"
        raise InvalidInitialState(f"t_end must be a positive {kind}, got {t_end}")
    if t_end <= cfg.h_min:
        raise InvalidInitialState(f"t_end must exceed h_min = {cfg.h_min}, got {t_end}")


def integrate(
    y0,
    p: Params,
    t_end: float,
    cfg: IntegrationConfig = DEFAULT_CONFIG,
    stop: Callable[[tuple[float, ...]], str | None] | None = None,
) -> Trajectory:
    """Advance y0 to t_end, or to the first point where a stop rule holds,
    or to step collapse.

    The system is the one y0's type names (FullState, ReducedState, FlowState
    or HyperbolicState); a FlowState's independent variable is Sundman time.
    ``stop``, checked at y0 and at every accepted point, returns the name of
    the rule that holds there, or None; the first point
    where one holds is the run's last point, and its name is
    ``Trajectory.stop``.  t_end must exceed ``cfg.h_min``, the step floor,
    so that a run takes at least one step; it may be inf, for a run that only
    a stop rule or step collapse ends.  A run that reaches its horizon
    ends at exactly t_end, its last step taking whatever is left once the
    remainder would fall below the floor.  Returns a Trajectory; raises
    InvalidInitialState when y0 or t_end is rejected and StepLimitExceeded
    when max_steps attempts are exhausted.
    """
    _check_horizon(t_end, cfg, math.inf)
    system, f, inv_name, inv = _make_field(y0, p)
    y = y0.astuple()
    step, rate = _STEPPERS[len(y)]
    try:
        k1 = rate(f, y)
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
_LOG_KAPPA = math.log(_KAPPA)
#: The status a rule that holds at a node's start gives it.
_RULE_STATUS = {"survival-witness": SimStatus.SURVIVED, "w-rose": SimStatus.INCONCLUSIVE}


def _scaled(x: float, e: float) -> float:
    """x*exp(e) for x >= 0, inf (or 0.0 for x = 0) where exp(e) overflows."""
    return x * math.exp(e) if e < 709.0 else (math.inf if x else 0.0)


class _Oracle:
    """The d = 0 collision oracle of one Params, on the flow of v (``FlowState``).

    Node i is the state (th0[i], W0[i]), with v[i] = W0*exp(-theta0).  Every
    rule reads v alone, with g(v) = sa/r(v) - mu, r(v) = hypot(offset, v) and
    sa = alpha*sqrt(gamma):
    - "survival-witness": v < 0 where g(v) < 0, or v < 0 at equal
      circulation.  v then only falls, exp(-theta) with it, and the rings
      separate for good.
    - "w-rose" (below gamma_star): dW/dt has the sign of g(v) - sa*v**2/r**3 =
      sa*offset2/r**3 - mu, positive exactly where |v| < v_star; so W rose once
      a node's path met that band: at its start, or at a point past -v_star, or
      past v = 0, which a rising run may step over.  No slack is needed.
    - "separation-below" (unless supercritical; the critical band is armed):
      v > 0 and D <= _KAPPA*D0, with log D = theta + log r(v).  The node
      collided, at the time of that point plus ``dynamics.time_to_axis`` from it.
    - "reached-t-end": the node's own time has reached t_end, undecided; it
      survived at t_end.
    Those that hold at a node's start decide it with no run (``at_start``).  The
    others move with v: where g(v) > 0 up, else down from v >= 0 (toward v0, or
    to -inf where the ratio is supercritical).  One run per moving group starts
    at its first node's (v, theta0, 0).  Every other node starts where
    the run passes its v, at (theta_n, t_n) interpolated linearly between the
    accepted points around it, which only its separation level, its horizon
    and its time read; by the scale law it is then at theta0 + theta - theta_n
    and its time is exp(2*(theta0 - theta_n))*(t - t_n).  The run's stop rule
    walks its nodes with a pointer in v order and keeps the separation levels
    and horizons in sorted lists, next due last, so a point costs O(1) but for
    the nodes it starts or decides.  A node the run never reaches, and every
    undecided node of a run that fails (its step budget spent, say), runs on
    its own, with the whole config (``solo``).
    """

    def __init__(self, p: Params, states, cfg: IntegrationConfig, t_end: float) -> None:
        _check_horizon(t_end, cfg, sys.float_info.max)
        for rs in states:
            if not isinstance(rs, ReducedState):
                raise ConfigInvalid(
                    f"the collision driver needs a ReducedState (d = 0), got {rs!r}")
        self.p, self.cfg, self.t_end = p, cfg, t_end
        self.states = states
        self.equal = p.regime is Regime.EQUAL_CIRCULATION
        self.rise_armed = p.regime is Regime.SUBCRITICAL
        self.sep_armed = p.regime is not Regime.SUPERCRITICAL
        self.sa, self.mu, self.offset = p.alpha * p.sqrt_gamma, p.mu, p.offset
        self.th0 = [rs.theta for rs in states]
        try:
            self.v = [rs.w * math.exp(-rs.theta) for rs in states]
        except OverflowError as exc:
            raise InvalidInitialState(f"initial state rejected: {exc}") from exc
        if not all(map(math.isfinite, self.v)):
            raise InvalidInitialState("initial state rejected: v = W0*exp(-theta0) is not finite")
        self.result: list = [None] * len(states)  # (CollisionResult, reason) per node

    def g(self, v: float) -> float:
        r = math.hypot(self.offset, v)
        return self.sa / r - self.mu if r > 0.0 else math.inf

    def rises(self, v: float) -> bool:
        r = math.hypot(self.offset, v)
        return self.sa * self.p.offset2 > self.mu * (r * r * r)

    def start_rule(self, v: float) -> str | None:
        """The rule that decides a node at its start, or None."""
        if v < 0.0 and (self.equal or self.g(v) < 0.0):
            return "survival-witness"
        if self.rise_armed and self.rises(v):
            return "w-rose"
        return None

    def groups(self) -> list[list[int]]:
        """The nodes decided at their start, then each moving group in run order:
        g > 0 from the lowest v up, then g < 0 (where v >= 0, as the witness
        decides the rest) from the highest down; a node at a rest point of g
        runs alone."""
        decided, up, down, alone = [], [], [], []
        for i, v in enumerate(self.v):
            g = self.g(v)
            if self.start_rule(v) is not None:
                decided.append(i)
            elif g > 0.0:
                up.append(i)
            elif g < 0.0:
                down.append(i)
            else:
                alone.append([i])
        up.sort(key=self.v.__getitem__)
        down.sort(key=self.v.__getitem__, reverse=True)
        return [decided] + [grp for grp in (up, down) if grp] + alone

    def at_start(self, i: int) -> str | None:
        """Record and name the rule that decides node i at its start, or None."""
        rule = self.start_rule(self.v[i])
        if rule is not None:
            self.result[i] = (CollisionResult(_RULE_STATUS[rule], 0.0), rule)
        return rule

    def decide(self) -> list:
        """Every node's (CollisionResult, reason); raises the failure of the first
        node, in the order given, whose own run fails."""
        decided, *runs = self.groups()
        for i in decided:
            self.at_start(i)
        for order in runs:
            if len(order) > 1:
                try:
                    self.run(order)
                except FilcolError:  # its undecided nodes run alone, below
                    pass
        for i, result in enumerate(self.result):
            if result is None:  # a lone node, or one no shared run decided
                self.solo(i)
        return self.result

    def solo(self, i: int) -> Trajectory:
        """Decide node i by a run of its own and return it: where a start rule
        decides it, one (theta, W) point with no field call, H0 = g(v0)*exp(-theta0);
        else the flow's run, or, where the flow's field rejects the start (gamma = 1
        and |v0| below about 1.4e-108, or exp(2*theta0) overflowing), the chart's run
        with no rule to t_end (SURVIVED there, else INCONCLUSIVE), counting that call."""
        if (rule := self.at_start(i)) is not None:
            energy = dynamics.reduced_energy(self.p)
            h0 = energy(0.0, self.v[i]) * math.exp(-self.th0[i])
            return Trajectory(SystemKind.REDUCED, [0.0], [self.states[i].astuple()], rule,
                              ("H", energy, h0), Outcome.EVENT_TERMINATED)
        try:
            return self.run([i])
        except InvalidInitialState:  # the flow's field at v0, one call
            pass
        traj = integrate(self.states[i], self.p, self.t_end, self.cfg)
        status = SimStatus.SURVIVED if traj.outcome is Outcome.REACHED_T_END else (
            SimStatus.INCONCLUSIVE)
        self.result[i] = (CollisionResult(status, traj.t_final), traj.outcome.value)
        traj.stats = replace(traj.stats, f_evals=traj.stats.f_evals + 1)
        return traj

    def run(self, order: list[int]) -> Trajectory:
        """One flow run from order[0], deciding every node of order it passes (the
        rest stay undecided); returns the run."""
        p, th0, vs, result, t_end = self.p, self.th0, self.v, self.result, self.t_end
        up = self.g(vs[order[0]]) > 0.0
        equal, rise_armed, sep_armed = self.equal, self.rise_armed, self.sep_armed
        offset, log, hypot, inf = self.offset, math.log, math.hypot, math.inf
        starts: dict[int, tuple[float, float]] = {}
        live: dict[int, None] = {}  # started and undecided, in start order
        sep: list = [(-inf, -1)]  # (log separation level, node), the highest last
        horizon: list = [(-inf, -1)]  # (-t at the node's horizon, node), the soonest last
        climbing: list[int] = []  # live nodes with v < 0 on a rising run
        prev, last = None, ""  # the previous accepted point; the last rule that held
        k, n = 0, len(order)
        upcoming = vs[order[0]]  # v of the next node to start

        def finish(i: int, status: SimStatus, reason: str, y) -> None:
            nonlocal last
            v, theta, t = y
            theta_n, t_n = starts[i]
            t, rem = _scaled(t - t_n, 2.0 * (th0[i] - theta_n)), 0.0
            if reason == "separation-below":
                theta += th0[i] - theta_n
                try:
                    rem = dynamics.time_to_axis(p, theta, v * math.exp(theta))
                except (NumericalFailure, OverflowError):  # no time in floats from there
                    rem = inf
                if t + rem < inf:
                    t, status = t + rem, SimStatus.COLLIDED
                else:
                    rem = 0.0
            elif reason == "reached-t-end":
                t = t_end
            result[i] = (CollisionResult(status, t, rem), reason)
            live.pop(i, None)
            last = reason

        def stop(y):
            nonlocal k, prev, upcoming
            v, theta, t = y
            while v >= upcoming if up else v <= upcoming:
                i = order[k]
                k += 1
                upcoming = vs[order[k]] if k < n else (inf if up else -inf)
                if prev is None:
                    starts[i] = theta_n, t_n = theta, t
                else:
                    s = (vs[i] - prev[0]) / (v - prev[0])
                    starts[i] = theta_n, t_n = (prev[1] + s * (theta - prev[1]),
                                                prev[2] + s * (t - prev[2]))
                live[i] = None
                insort(horizon, (-t_n - _scaled(t_end, 2.0 * (theta_n - th0[i])), i))
                if sep_armed:
                    insort(sep, (theta_n + log(hypot(offset, vs[i])) + _LOG_KAPPA, i))
                if rise_armed and vs[i] < 0.0:
                    climbing.append(i)
            prev = y
            while -horizon[-1][0] <= t:
                i = horizon.pop()[1]
                if i in live:
                    finish(i, SimStatus.SURVIVED, "reached-t-end", y)
            if climbing and (v >= 0.0 or self.rises(v)):
                for i in climbing:
                    if i in live:
                        finish(i, SimStatus.INCONCLUSIVE, "w-rose", y)
                climbing.clear()
            if v < 0.0 and live and (equal or self.g(v) < 0.0):
                for i in list(live):
                    finish(i, SimStatus.SURVIVED, "survival-witness", y)
            if v > 0.0 and sep[-1][0] > -inf:
                level = theta + log(hypot(offset, v))
                while sep[-1][0] >= level:
                    i = sep.pop()[1]
                    if i in live:
                        finish(i, SimStatus.INCONCLUSIVE, "separation-below", y)
            return last if k == n and not live else None

        traj = integrate(FlowState(vs[order[0]], th0[order[0]]), p, math.inf, self.cfg, stop)
        for i in list(live):  # the run ended by step collapse
            finish(i, SimStatus.INCONCLUSIVE, traj.outcome.value, traj.state_final)
        return traj


def oracle_groups(p: Params, states) -> list[list[int]]:
    """The indices of the states ``oracle_verdicts`` decides at their start, then
    one list per shared run, each in the order its run passes them.  Verdicts of a
    subset made of whole lists are those of the full set."""
    return _Oracle(p, states, DEFAULT_CONFIG, DEFAULT_T_END).groups()


def oracle_verdicts(
    p: Params,
    states,
    cfg: IntegrationConfig = DEFAULT_CONFIG,
    t_end: float = DEFAULT_T_END,
) -> list[tuple[SimStatus, str]]:
    """The collision oracle's status, and the rule or outcome that decided it,
    for every d = 0 state of a set that shares p (see ``_Oracle`` for the rules).

    Each state's verdict is that of ``simulate_until_collision`` on it alone: one
    flow run passes every state of its group, and decides each as the state's
    own run would.  t_end is each state's own
    physical horizon, and cfg.max_steps bounds each state's own run: a shared
    run that spends it leaves its undecided states to runs of their own.
    Raises ConfigInvalid for a state that is not a ReducedState,
    InvalidInitialState for one whose v overflows, and otherwise what the
    first state, in the order given, whose own run fails raises.
    """
    results = _Oracle(p, states, cfg, t_end).decide()
    return [(result.status, reason) for result, reason in results]


def simulate_until_collision(
    rs0: ReducedState,
    p: Params,
    cfg: IntegrationConfig = DEFAULT_CONFIG,
    t_end: float = DEFAULT_T_END,
) -> tuple[CollisionResult, Trajectory]:
    """Integrate the d = 0 state rs0 on the flow of v and decide collided/survived.

    The oracle's one-state case (``oracle_verdicts``; rules in ``_Oracle``).
    The run starts at (v0, theta0, 0) and stops at the first point, the start
    included, where a rule holds: at the separation stop it collided, at the
    time of that point plus the closed-form time to the axis from it, reported
    as ``remaining_time`` (inconclusive where that time is not a float); at the
    survival witness it survived; where W rose it is inconclusive.  A run still undecided at t_end survived there; one that
    ends by step collapse is inconclusive.  The Trajectory is the run with
    W = v*exp(theta) in place of v, its stop the rule that ended it.  At the
    horizon the flow's points past t_end are dropped and the (theta, W)
    chart, with no rule, carries the run from the last point before t_end to
    t_end itself (stop None, outcome REACHED_T_END); its stats add that run's
    counts.  A start rule's verdict is one point with no field call, and a start
    the flow's field rejects runs in the chart (``_Oracle.solo``).  Raises
    ConfigInvalid for a state that is not a ReducedState, and
    InvalidInitialState for one whose v is not finite or that the chart rejects.
    """
    oracle = _Oracle(p, [rs0], cfg, t_end)
    flow = oracle.solo(0)
    result, reason = oracle.result[0]
    if flow.system is SystemKind.REDUCED:  # a start rule's point, or the chart's run
        return result, flow
    times = [t for _, _, t in flow.states]
    states = [(rs0.theta, rs0.w)] + [(theta, v * math.exp(theta))
                                     for v, theta, _ in flow.states[1:]]
    outcome, stop, stats = flow.outcome, flow.stop, flow.stats
    if reason == "reached-t-end":
        j = len(times) - 1
        while not t_end - times[j] > cfg.h_min:
            j -= 1
        tail = integrate(ReducedState(*states[j]), p, t_end - times[j], cfg)
        tail_times = [times[j] + s for s in tail.times[1:]]
        if tail.outcome is Outcome.REACHED_T_END:
            tail_times[-1] = t_end  # t_j + (t_end - t_j) may round off t_end
        kept = [m for m, t in enumerate(tail_times) if t < t_end or m == len(tail_times) - 1]
        times = times[:j + 1] + [tail_times[m] for m in kept]
        states = states[:j + 1] + [tail.states[m + 1] for m in kept]
        outcome, stop = tail.outcome, None
        stats = IntegrationStats(*map(sum, zip(astuple(stats), astuple(tail.stats))))
    traj = Trajectory(system=SystemKind.REDUCED, times=times, states=states, stop=stop,
                      invariant=("H", dynamics.reduced_energy(p), flow.invariant[2]),
                      outcome=outcome, stats=stats)
    return result, traj
