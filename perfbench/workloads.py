"""The three benchmark workloads: seeded inputs, the op, and its output check.

Each workload makes its inputs from the seed alone, with its own
``random.Random``; the package sees only the generated inputs.  An op is
one call into the workload's entry point.  ``check`` returns None for a
correct output and a one-line reason otherwise; an op whose call raised or
whose output fails its check counts as failed.

A timed run cycles through ``cycle`` distinct inputs.  Repeat r of an input
goes through ``jitter(inp, r)``, which moves it by about 1e-12 so that no
result can be reused from an earlier repeat, without changing the work.

Why these workloads:

* regime-map -- the closed-form layers (``dynamics.reduce_state`` and
  ``analysis``) do all the work and ``integrate`` does none.  A memoised
  ``gamma_star`` or a faster ``theta_star`` shows here and only here.
* oracle-grid -- the reduced 2-D Dormand-Prince loop, the event location,
  the collision witness and the process pool do nearly all the work;
  ``analysis`` is under 1%.
* trajectory -- the same integrator in 4-D and without events, with the
  dense record and the drift monitor, behind the CLI and its JSON artefact.
  A change tuned to the 2-D event path that slows these paths shows here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

REGIMES = ("gamma1", "subcritical", "critical", "supercritical")

# Thresholds of the conservation check in ``filcol verify``.
DRIFT_LIMITS = {"full": ("d", 1e-9), "hyperbolic": ("H", 1e-8)}

JITTER = 1e-12


def gamma_star_ref(alpha: float) -> float:
    """Critical ratio from the balance quartic, computed independently.

    The square of the root in (1, 10) of -x^4 + x^3 + alpha*x^2 - x + 1,
    by bisection to round-off and two Newton steps.
    """

    def q(x):
        return (((-x + 1.0) * x + alpha) * x - 1.0) * x + 1.0

    lo, hi = 1.0, 10.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if q(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(2):
        x -= q(x) / (((-4.0 * x + 3.0) * x + 2.0 * alpha) * x - 1.0)
    return x * x


def energy_ref(alpha: float, gamma: float, theta: float, w: float) -> float:
    """Energy of the d = 0 planar system for gamma > 1, from its formula."""
    sqg = math.sqrt(gamma)
    mu = gamma + 1.0 / sqg
    c2 = (sqg - 1.0) ** 2
    return -mu * math.exp(-theta) + alpha * sqg / math.sqrt(c2 * math.exp(2.0 * theta) + w * w)


def regime_gamma(rng: random.Random, regime: str, gs: float) -> float:
    if regime == "gamma1":
        return 1.0
    if regime == "subcritical":
        return 1.0 + rng.uniform(0.05, 0.95) * (gs - 1.0)
    if regime == "critical":
        return gs
    return gs + rng.uniform(0.05, 2.0)


def stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi], in order."""
    return [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]


def signed_gap(rng: random.Random) -> float:
    """Axial gap W0 with |W0| log-uniform in [0.02, 2].

    The regimes differ most near the coplanar line, and a log-uniform gap
    sends about half of the subcritical states to the H0 > 0 (theta_star)
    branch, against a sixth for a uniform one.
    """
    return math.exp(rng.uniform(math.log(0.02), math.log(2.0))) * rng.choice((-1.0, 1.0))


def raised(out) -> str | None:
    """The failure reason when the op raised, else None."""
    return f"{type(out).__name__}: {out}" if isinstance(out, Exception) else None


class RegimeMap:
    """Full states (R1, z1, R2, z2) through reduce, classify and time/certify."""

    batch = 256
    cycle = 32768
    tail_percentile = 99.9
    warm_up_ops = 256
    trace_ops_per_second = 1500.0
    trace_quantum = 256
    n_alphas = 4
    d_nonzero_share = 0.25

    def __init__(self, fc, seed) -> None:
        self.fc = fc
        self.rng = random.Random(f"regime-map/{seed}")
        # A regime diagram is drawn at a few alpha values; one per stratum
        # keeps the set, and with it the cost mix, close from seed to seed.
        self.alphas = stratified(self.rng, 0.05, 0.95, self.n_alphas)
        self.gamma_stars = {a: gamma_star_ref(a) for a in self.alphas}
        self.seen_alphas: set[float] = set()
        self.tally = {"ops": 0, "alpha_repeat": 0, "d_nonzero": 0, "theta_star": 0}

    def _input(self, regime, d_nonzero, p, r1, r2, z2, w):
        state = self.fc.dynamics.FullState(r1, z2 + w, r2, z2)
        return (regime, d_nonzero, p, state, math.hypot(r1 - r2, w))

    def inputs(self, n: int) -> list:
        rng, Params = self.rng, self.fc.dynamics.Params
        out = []
        for _ in range(n):
            alpha = rng.choice(self.alphas)
            regime = rng.choice(REGIMES)
            gamma = regime_gamma(rng, regime, self.gamma_stars[alpha])
            theta, w = rng.uniform(-2.0, 2.0), signed_gap(rng)
            d_nonzero = rng.random() < self.d_nonzero_share
            ratio = rng.choice((rng.uniform(0.5, 0.9), rng.uniform(1.1, 1.6))) if d_nonzero else 1.0
            r1 = math.exp(theta)
            out.append(self._input(regime, d_nonzero, Params(alpha, gamma),
                                   r1, math.sqrt(gamma) * r1 * ratio, rng.uniform(-1.0, 1.0), w))
        return out

    def jitter(self, inp, r: int):
        # Scaling both radii keeps d = gamma*R1^2 - R2^2 zero where it was.
        regime, d_nonzero, p, s, _ = inp
        f = 1.0 + r * JITTER
        return self._input(regime, d_nonzero, p, s.r1 * f, s.r2 * f, s.z2, s.z1 - s.z2)

    def op(self, inp):
        _, _, p, state, _ = inp
        dyn, ana = self.fc.dynamics, self.fc.analysis
        rs = dyn.reduce_state(state, p)
        if isinstance(rs, dyn.HyperbolicState):
            return rs, ana.no_collision_certificate(rs, p)
        mc = ana.classify(rs, p)
        return rs, mc, (ana.collision_time(rs, p) if mc.predicts_collision else None)

    def check(self, inp, out) -> str | None:
        regime, d_nonzero, p, state, sep0 = inp
        t = self.tally
        t["ops"] += 1
        t["alpha_repeat"] += p.alpha in self.seen_alphas
        self.seen_alphas.add(p.alpha)
        t["d_nonzero"] += d_nonzero
        if reason := raised(out):
            return reason
        if d_nonzero:
            if len(out) != 2:
                return "d != 0 state was not sent to the certificate"
            sep = out[1].min_separation
            if not 0.0 < sep <= sep0 * (1.0 + 1e-12):
                return f"certificate separation {sep!r} outside (0, {sep0!r}]"
            return None
        if len(out) != 3:
            return "d = 0 state was sent to the certificate"
        _, mc, est = out
        t["theta_star"] += mc.theta_star is not None
        w0 = state.z1 - state.z2
        collides = mc.predicts_collision
        if regime in ("gamma1", "critical") and collides != (w0 > 0.0):
            return f"{regime}: verdict {mc.verdict.value} but W0 = {w0!r}"
        if regime == "supercritical" and collides:
            return f"supercritical state predicted to collide: {mc.verdict.value}"
        if regime == "subcritical":
            h0 = energy_ref(p.alpha, p.gamma, math.log(state.r1), w0)
            if h0 < -1e-9 * (1.0 + abs(h0)) and collides != (w0 > 0.0):
                return f"subcritical H0 = {h0!r} < 0: verdict {mc.verdict.value}, W0 = {w0!r}"
        if collides != (est is not None):
            return "collision estimate missing or unexpected"
        if est is not None and not (math.isfinite(est.value) and est.value > 0.0):
            return f"collision estimate {est.value!r} is not finite and positive"
        return None

    def shares(self) -> dict:
        n = max(1, self.tally["ops"])
        return {
            "alphas": self.alphas,
            "alpha_repeat_share": self.tally["alpha_repeat"] / n,
            "d_nonzero_share": self.tally["d_nonzero"] / n,
            "theta_star_share": self.tally["theta_star"] / n,
        }


class OracleGrid:
    """n x n classifier_oracle_grid calls, one seeded alpha and regime each."""

    batch = 1
    # The cycle holds every regime at one alpha from each of 12 equal strata
    # of alpha_range.
    cycle = 48
    tail_percentile = 75.0
    warm_up_ops = 1
    trace_ops_per_second = 0.8
    trace_quantum = len(REGIMES)
    # Criterion 04's nodes: an even-n linspace over [-2, 2] in theta0 and
    # W0, so no node lies on W0 = 0 (excluded at gamma = 1) or near it.
    # Nodes at W0 -> 0+ on the critical ratio collide after the fixed
    # 200-unit oracle horizon, and the oracle then reports a disagreement
    # that comes from its horizon, not from the classifier (ROADMAP item 3).
    n = 4
    nodes = tuple(-2.0 + 4.0 * k / 3 for k in range(4))
    alpha_range = (0.05, 0.95)

    def __init__(self, fc, seed, workers: int) -> None:
        self.fc = fc
        self.workers = workers
        self.rng = random.Random(f"oracle-grid/{seed}")
        self.count = 0
        self.tallies = {r: {} for r in REGIMES}
        self.failed_nodes = 0

    def inputs(self, n: int) -> list:
        strata = self.cycle // len(REGIMES)
        out = []
        for _ in range(n):
            if self.count % self.cycle == 0:
                alphas = stratified(self.rng, *self.alpha_range, strata)
                self.rng.shuffle(alphas)  # so that any prefix spans the range
                self._alphas = [a for a in alphas for _ in REGIMES]
            regime = REGIMES[self.count % len(REGIMES)]
            alpha = self._alphas[self.count % self.cycle]
            self.count += 1
            gamma = regime_gamma(self.rng, regime, gamma_star_ref(alpha))
            out.append((regime, self.fc.dynamics.Params(alpha, gamma), self.nodes, self.nodes))
        return out

    def jitter(self, inp, r: int):
        regime, p, thetas, ws = inp
        d = r * JITTER
        return (regime, p, tuple(t + d for t in thetas), tuple(w + d for w in ws))

    def op(self, inp, workers: int | None = None):
        _, p, thetas, ws = inp
        return self.fc.verify.classifier_oracle_grid(
            p, thetas, ws, workers=self.workers if workers is None else workers
        )

    def check(self, inp, out) -> str | None:
        regime = inp[0]
        nodes = self.n * self.n
        if (reason := raised(out)) or len(out) != nodes:
            self.failed_nodes += nodes
            return reason or f"grid returned {len(out)} nodes"
        tally = self.tallies[regime]
        bad = 0
        for row in out:
            tally[row[5]] = tally.get(row[5], 0) + 1
            if not row[6]:
                bad += 1
                tally["disagree"] = tally.get("disagree", 0) + 1
        self.failed_nodes += bad
        return f"{bad} classifier/oracle disagreements" if bad else None

    def oracle_counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for tally in self.tallies.values():
            for k, v in tally.items():
                total[k] = total.get(k, 0) + v
        return total

    def shares(self) -> dict:
        return {"status_tallies_per_regime": self.tallies, "failed_nodes": self.failed_nodes}


def flag(name: str, value: float) -> str:
    # The --name=value form: argparse takes a separate "-5.9e-05" for an option.
    return f"--{name}={value!r}"


class TrajectoryRuns:
    """In-process ``filcol simulate`` calls, each writing a JSON artefact."""

    batch = 1
    cycle = 500
    tail_percentile = 95.0
    warm_up_ops = 3
    trace_ops_per_second = 20.0
    trace_quantum = 20  # one round of the system mix
    # Out of every 20 ops: 9 full 4-D runs, 8 hyperbolic (d != 0) runs and
    # 3 colliding auto runs.
    mix = ("full",) * 9 + ("hyperbolic",) * 8 + ("auto",) * 3
    gamma_below_one_share = 0.25

    def __init__(self, fc, seed, tmpdir: str) -> None:
        self.fc = fc
        self.rng = random.Random(f"trajectory/{seed}")
        self.output = os.path.join(tmpdir, "simulate.json")
        self.sink = io.StringIO()
        self.count = 0
        self.tally = {"ops": 0, "full": 0, "hyperbolic": 0, "auto": 0, "gamma_lt1": 0}
        self.artifact_bytes = 0

    def _full_state(self, gamma: float) -> dict[str, float]:
        # d is kept away from 0, and the pair starts at least 0.5 apart: a pair
        # started closer with nearly equal radii can lock into a tight
        # co-orbit that takes 1e4-6e4 steps over t_end = 50 (0.5-3 s, one op
        # in several hundred), which would make a run's time depend on how
        # many of them it drew.
        rng = self.rng
        while True:
            r1, r2 = math.exp(rng.uniform(-0.5, 0.5)), math.exp(rng.uniform(-0.5, 0.5))
            w = rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0))
            d = gamma * r1 * r1 - r2 * r2
            if abs(d) >= 0.1 * max(gamma * r1 * r1, r2 * r2) and math.hypot(r1 - r2, w) >= 0.5:
                break
        z2 = rng.uniform(-1.0, 1.0)
        return {"r1": r1, "z1": z2 + w, "r2": r2, "z2": z2}

    def _colliding_reduced(self, alpha: float, below_one: bool) -> tuple[float, dict[str, float]]:
        rng = self.rng
        if not below_one:
            # gamma = 1 collides iff W0 > 0.
            return 1.0, {"theta0": rng.uniform(-0.5, 1.0), "w0": rng.uniform(0.2, 1.5)}
        # Renamed frame: a subcritical ratio with H0 < 0 and W0 > 0 collides.
        # The CLI maps the input (1/gamma, theta0) to (gamma, theta0 + log(sqrt(1/gamma))).
        gamma = 1.0 + rng.uniform(0.2, 0.8) * (gamma_star_ref(alpha) - 1.0)
        while True:
            theta, w = rng.uniform(-0.5, 1.0), rng.uniform(0.2, 1.5)
            if energy_ref(alpha, gamma, theta, w) < -1e-3:
                break
        return 1.0 / gamma, {"theta0": theta + 0.5 * math.log(gamma), "w0": w}

    def _input(self, kind, below_one, alpha, gamma, state):
        t_end = 200.0 if kind == "auto" else 50.0
        argv = ["simulate", flag("alpha", alpha), flag("gamma", gamma), f"--system={kind}",
                f"--output={self.output}", flag("t-end", t_end),
                *(flag(k, v) for k, v in state.items())]
        return (kind, below_one, alpha, gamma, state, argv)

    def inputs(self, n: int) -> list:
        out = []
        rng = self.rng
        for _ in range(n):
            kind = self.mix[self.count % len(self.mix)]
            self.count += 1
            alpha = rng.uniform(0.05, 0.4)
            below_one = rng.random() < self.gamma_below_one_share
            if kind == "auto":
                gamma, state = self._colliding_reduced(alpha, below_one)
            else:
                gamma = rng.uniform(0.5, 0.95) if below_one else rng.uniform(1.0, 2.0)
                state = self._full_state(gamma)
            out.append(self._input(kind, below_one, alpha, gamma, state))
        return out

    def jitter(self, inp, r: int):
        kind, below_one, alpha, gamma, state, _ = inp
        moved = {k: v + r * JITTER for k, v in state.items()}
        return self._input(kind, below_one, alpha, gamma, moved)

    def op(self, inp):
        self.sink.seek(0)
        self.sink.truncate()
        with contextlib.redirect_stderr(self.sink):
            try:
                return self.fc.cli.main(inp[-1])
            except SystemExit as exc:  # argparse rejected the arguments
                return exc.code

    def check(self, inp, out) -> str | None:
        kind, below_one = inp[:2]
        t = self.tally
        t["ops"] += 1
        t[kind] += 1
        t["gamma_lt1"] += below_one
        if reason := raised(out):
            return reason
        if out != 0:
            return f"exit code {out}: {self.sink.getvalue().strip()[-200:]}"
        self.artifact_bytes += os.path.getsize(self.output)
        try:
            with open(self.output, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"artefact does not parse: {exc}"
        if payload.get("command") != "simulate":
            return "artefact is not a simulate record"
        if len(payload["times"]) != payload["integration"]["n_points"]:
            return "artefact point count mismatch"
        if below_one != bool(payload.get("gamma_normalized")):
            return "gamma < 1 input not normalized by renaming"
        status = payload["outcome"]["status"]
        if kind == "auto":
            return None if status == "collided" else f"colliding auto run ended {status}"
        if status != "reached-t-end":
            return f"{kind} run ended {status}"
        name, limit = DRIFT_LIMITS[kind]
        drift = payload["drift"][name]
        return None if drift < limit else f"{kind} drift {name} = {drift!r} >= {limit}"

    def shares(self) -> dict:
        n = max(1, self.tally["ops"])
        return {
            "full_share": self.tally["full"] / n,
            "hyperbolic_share": self.tally["hyperbolic"] / n,
            "auto_share": self.tally["auto"] / n,
            "gamma_lt1_share": self.tally["gamma_lt1"] / n,
        }
