"""Re-derivation battery: check every closed-form constant against the integrator.

Each check recomputes one analytic claim (threshold value, exact collision
time, comparison bound, corridor, certificate, ansatz exactness,
conservation) and validates it against the adaptive integrator.  Where a
commonly printed constant disagrees with direct quadrature of the same
equation, the check reports both variants with the measured time so the
discrepancy is visible rather than silently resolved (see README, "known
discrepancies").

The battery backs the ``filcol verify`` CLI command.  ``CHECKS`` maps each
check's name to its function, and every check takes (alpha, cfg, samples,
grid); the acceptance test suite calls the same functions with heavier
sizes and its own seeds.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import signal
import threading
import time
from multiprocessing.connection import Connection
from typing import Iterable, Sequence

from . import analysis, dynamics
from .analysis import Verdict, classify, collision_time, gamma_star
from .dynamics import FullState, Params, ReducedState
from .errors import ConfigInvalid
from .integrate import (
    DEFAULT_CONFIG,
    DEFAULT_T_END,
    IntegrationConfig,
    Outcome,
    SimStatus,
    integrate,
    simulate_until_collision,
)

__all__ = [
    "CHECKS",
    "run_battery",
    "classifier_oracle_grid",
    "classify_node",
    "worker_count",
    "sample_subcritical_negative",
    "sample_subcritical_positive",
    "sample_critical",
    "mid_subcritical_gamma",
    "h0_zero_w",
]

_SEED = 20240817


def _cpus() -> tuple[int, ...]:
    """The CPUs this process may run on, sorted; empty where the platform cannot say."""
    return tuple(sorted(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else ()


def worker_count() -> int:
    """Parallel workers for grid sweeps: one per CPU of the process's CPU set,
    which ``taskset`` narrows; where the platform cannot say, one per CPU."""
    return len(_cpus()) or os.cpu_count() or 1


def mid_subcritical_gamma(alpha: float) -> float:
    """A ratio halfway into (1, gamma_star)."""
    return 1.0 + 0.5 * (gamma_star(alpha) - 1.0)


def h0_zero_w(p: Params, theta0: float) -> float:
    """The W > 0 value putting (theta0, W) on the zero-energy level."""
    v0 = p.v0
    if not v0 > 0.0:
        raise ConfigInvalid("zero-energy level exists only below gamma_star")
    return v0 * math.exp(theta0)


# --------------------------------------------------------------------------
# Regime samplers (deterministic, used by both verify and the test suite)
# --------------------------------------------------------------------------

def sample_subcritical_negative(
    p: Params, n: int, rng: random.Random
) -> list[ReducedState]:
    """Colliding states with strictly negative energy, W0 > 0."""
    energy = dynamics.reduced_energy(p)
    out: list[ReducedState] = []
    while len(out) < n:
        th0 = rng.uniform(-1.5, 1.5)
        w0 = rng.uniform(0.2, 2.5)
        if energy(th0, w0) < -1e-6 * (1.0 + p.mu * math.exp(-th0)):
            out.append(ReducedState(th0, w0))
    return out


def sample_subcritical_positive(
    p: Params, n: int, rng: random.Random
) -> list[ReducedState]:
    """Colliding states with positive energy and theta0 <= theta_star."""
    out: list[ReducedState] = []
    while len(out) < n:
        th0 = rng.uniform(-1.5, 1.5)
        w0 = rng.uniform(0.08, 0.92) * h0_zero_w(p, th0)
        rs = ReducedState(th0, w0)
        mc = classify(rs, p)
        if mc.verdict is Verdict.ASYMMETRIC_COLLISION and mc.h0 > 0.0:
            out.append(rs)
    return out


def sample_critical(p: Params, n: int, rng: random.Random) -> list[ReducedState]:
    """Colliding states exactly at the critical ratio (W0 > 0)."""
    return [
        ReducedState(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.5)) for _ in range(n)
    ]


def _oracle_time(
    rs: ReducedState, p: Params, cfg: IntegrationConfig
) -> tuple[analysis.CollisionTimeEstimate, float | None]:
    """A colliding state's estimate, and the oracle's collision time or None.
    Its horizon, 4*estimate + 20, lies past the stop rule of every battery run."""
    est = collision_time(rs, p)
    result, _ = simulate_until_collision(rs, p, cfg, t_end=4.0 * est.value + 20.0)
    return est, (result.time if result.status is SimStatus.COLLIDED else None)


# --------------------------------------------------------------------------
# Classifier-oracle grid (parallelizable)
# --------------------------------------------------------------------------

def classify_node(rs: ReducedState, p: Params) -> tuple[str, float, float | None]:
    """A sweep row's verdict, h0 and, where it predicts a collision, the estimate's time."""
    mc = classify(rs, p)
    return mc.verdict.value, mc.h0, (mc.estimate().value if mc.predicts_collision else None)


def _grid_node(p: Params, th0: float, w0: float, t_end: float, cfg: IntegrationConfig):
    rs = ReducedState(th0, w0)
    verdict, h0, t_est = classify_node(rs, p)
    result, traj = simulate_until_collision(rs, p, cfg, t_end=t_end, survival_witness=True)
    agree = (t_est is not None) == (result.status is SimStatus.COLLIDED)
    reason = traj.stop or traj.outcome.value
    return (th0, w0, verdict, h0, t_est, result.status.value, agree, reason)


# One set of worker processes serves every pooled grid of a process, so its
# start-up is paid once.  Worker k is pinned to CPU k (wrapping) of the
# parent's CPU set, where the platform allows, so a grid's workers run side
# by side, not stacked on one CPU.  Each worker reads from its own pipe: a
# grid sends worker k a header (alpha, gamma, t_end, cfg) and the nodes
# (i, j) with (i + j) mod n == k, and reads its rows back.  The set is keyed
# by (pid, workers, CPU set), so a forked child, or a process whose CPU set
# changed, builds its own.  The workers are daemonic: at interpreter exit,
# multiprocessing terminates and joins them.
_pool: list[tuple[multiprocessing.Process, Connection]] = []
_pool_key: tuple = (0, 0, ())
_pool_lock = threading.Lock()


def _serve(conn: Connection, parent_ends: list[Connection]) -> None:
    """A worker's loop: answer each batch of nodes until its pipe reads EOF.

    A batch's nodes share one Params.  The reply is (rows, None), or (the
    rows before the failing node, its exception).  The worker ignores SIGINT
    and is ended by SIGTERM, or by EOF once every parent end is closed.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    for end in parent_ends:  # copies a fork made: closed, the parent's death reads as EOF
        end.close()
    try:
        while True:
            (alpha, gamma, t_end, cfg), nodes = conn.recv()
            rows = []
            try:
                p = Params(alpha, gamma)
                for th0, w0 in nodes:
                    rows.append(_grid_node(p, th0, w0, t_end, cfg))
            except Exception as exc:
                conn.send((rows, exc))
            else:
                conn.send((rows, None))
    except EOFError:  # the parent is gone
        pass


def _stop_pool(pool: list) -> None:
    """Terminate every worker; close its pipe and reap it."""
    for proc, conn in pool:
        proc.terminate()
        conn.close()
    for proc, _ in pool:
        proc.join()


def _start_pool(workers: int, cpus: tuple[int, ...]) -> list:
    pool: list = []
    try:
        for k in range(workers):
            parent_end, child_end = multiprocessing.Pipe()
            ends = [conn for _, conn in pool] + [parent_end]
            proc = multiprocessing.Process(target=_serve, args=(child_end, ends), daemon=True)
            proc.start()
            child_end.close()
            pool.append((proc, parent_end))
            if cpus:
                try:
                    os.sched_setaffinity(proc.pid, {cpus[k % len(cpus)]})
                except (AttributeError, OSError):
                    pass  # the worker runs unpinned
    except BaseException:
        _stop_pool(pool)
        raise
    return pool


def _discard_pool() -> None:
    """Kill the worker set: it lost a worker or may hold unread replies."""
    global _pool
    _pool, pool = [], _pool
    _stop_pool(pool)


def _shared_pool(workers: int) -> list:
    """The process's worker set for this many workers, built when first needed.

    The caller holds ``_pool_lock``.
    """
    global _pool, _pool_key
    key = (os.getpid(), workers, _cpus())
    if _pool and _pool_key != key:
        if _pool_key[0] == key[0]:
            _stop_pool(_pool)
        _pool = []  # a forked child leaves its parent's set running
    if not _pool:
        _pool = _start_pool(workers, key[2])
        _pool_key = key
    return _pool


def _exchange(pool: list, header: tuple, batches: list) -> list:
    """Send worker k the header and batches[k]; read every reply.

    A dispatch cut short between its first send and its last receive, by a
    dead worker or by any other exception, discards the set.
    """
    try:
        for (_, conn), batch in zip(pool, batches):
            conn.send((header, batch))
        return [conn.recv() for _, conn in pool]
    except BaseException:
        _discard_pool()
        raise


def classifier_oracle_grid(
    p: Params,
    theta_vals: Sequence[float],
    w_vals: Sequence[float],
    cfg: IntegrationConfig = DEFAULT_CONFIG,
    t_end: float = DEFAULT_T_END,
    workers: int | None = None,
) -> list[tuple[float, float, str, float, float | None, str, bool, str]]:
    """Classify every grid node and compare with the integration oracle.

    A row ends with the oracle's status, the agreement and its reason: the
    stop rule that ended the run, or its outcome where no rule did.  Rows
    are returned in row-major (theta outer, w inner) order regardless of
    the parallel schedule.  Pooled grids share one worker set per
    process (see ``_shared_pool``); if a worker dies, the grid runs once
    more on a fresh set.  A failing node raises what a serial run raises:
    the first failure in row-major order.
    """
    nodes = [(th0, w0) for th0 in theta_vals for w0 in w_vals]
    if workers is None:
        workers = worker_count()
    if workers <= 1 or len(nodes) < 8:
        return [_grid_node(p, th0, w0, t_end, cfg) for th0, w0 in nodes]
    n = min(workers, len(nodes))
    # A checkerboard split: node (i, j) goes to worker (i + j) mod n, so a
    # column of costly runs (the collisions at large W0) is shared out too.
    nw = len(w_vals)
    owned = [[] for _ in range(n)]
    for idx in range(len(nodes)):
        owned[(idx // nw + idx % nw) % n].append(idx)
    batches = [[nodes[idx] for idx in mine] for mine in owned]
    header = (p.alpha, p.gamma, t_end, cfg)
    with _pool_lock:
        try:
            replies = _exchange(_shared_pool(n), header, batches)
        except (EOFError, OSError):  # a worker died; the nodes are pure, so rerun
            replies = _exchange(_shared_pool(n), header, batches)
    rows: list = [None] * len(nodes)
    failures = []
    for mine, (done, exc) in zip(owned, replies):
        for idx, row in zip(mine, done):
            rows[idx] = row
        if exc is not None:
            failures.append((mine[len(done)], exc))
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return rows


# --------------------------------------------------------------------------
# Individual checks
# --------------------------------------------------------------------------

def _check_gamma_star(alpha: float, cfg: IntegrationConfig, samples: int, grid: int) -> dict:
    gs = gamma_star(alpha)
    eta = math.sqrt(gs)
    residual = abs(analysis.quartic(eta, alpha))
    measured = {"gamma_star": gs, "eta_star": eta, "quartic_residual": residual}
    ok = residual < 1e-12
    if abs(alpha - 0.2) < 1e-12:
        measured["reference_value"] = 1.219
        ok = ok and abs(gs - 1.219) <= 1e-3
    return {"passed": ok, "measured": measured}


def _check_gamma1_exact(alpha: float, cfg: IntegrationConfig, samples: int, grid: int) -> dict:
    p = Params(0.5, 1.0)
    rs = ReducedState(math.log(4.0), 1.0)
    est, detected = _oracle_time(rs, p, cfg)
    derived = est.value  # W0**2/(2*alpha)
    printed = 2.0 * rs.w ** 2 / p.alpha
    ok = detected is not None and abs(detected - derived) <= 1e-5 * derived
    return {
        "passed": ok,
        "measured": {
            "detected": detected,
            "derived_value": derived,
            "printed_value": printed,
            "printed_over_derived": printed / derived,
            "printed_matches_oracle": detected is not None
            and abs(detected - printed) <= 1e-5 * printed,
        },
    }


def _check_gamma1_implicit(
    alpha: float, cfg: IntegrationConfig, samples: int, grid: int, seed: int = _SEED
) -> dict:
    p = Params(0.5, 1.0)
    energy = dynamics.reduced_energy(p)
    rng = random.Random(seed)
    worst = 0.0
    used = 0
    while used < samples:
        th0 = rng.uniform(-1.0, 1.5)
        w0 = rng.uniform(0.1, 2.0)
        if abs(energy(th0, w0)) < 1e-3:
            continue  # stay clear of the zero-energy branch boundary
        used += 1
        est, detected = _oracle_time(ReducedState(th0, w0), p, cfg)
        if detected is None or est.kind is not analysis.EstimateKind.EXACT:
            failed = {"failed_state": [th0, w0], "estimate_kind": est.kind.value}
            return {"passed": False, "measured": {**failed, "detected": detected}}
        worst = max(worst, abs(detected - est.value) / est.value)
    return {
        "passed": worst <= 1e-5,
        "measured": {"samples": samples, "max_rel_error": worst},
    }


def _check_subcritical_h0zero(
    alpha: float, cfg: IntegrationConfig, samples: int, grid: int
) -> dict:
    p = Params(alpha, mid_subcritical_gamma(alpha))
    th0 = 0.5
    rs = ReducedState(th0, h0_zero_w(p, th0))
    est, detected = _oracle_time(rs, p, cfg)
    derived = est.value
    printed = 0.5 * derived  # exp(2*theta0)/(4*m0)
    ok = (
        est.formula_tag is analysis.FormulaTag.SUBCRITICAL_H0_ZERO
        and detected is not None
        and abs(detected - derived) <= 1e-5 * derived
    )
    return {
        "passed": ok,
        "measured": {
            "gamma": p.gamma,
            "detected": detected,
            "derived_value": derived,
            "printed_value": printed,
            "derived_over_printed": derived / printed,
            "m0": est.constants.get("m0"),
        },
    }


def _check_critical_bound(alpha: float, cfg: IntegrationConfig, samples: int, grid: int) -> dict:
    p = Params(alpha, gamma_star(alpha))
    est, detected = _oracle_time(ReducedState(0.3, 1.0), p, cfg)
    bound_derived = est.value
    # The alpha**(7/4) variant of the same constant.
    bound_printed = bound_derived * alpha ** 0.25
    derived_ok = detected is not None and detected <= bound_derived
    printed_ok = detected is not None and detected <= bound_printed
    return {
        "passed": derived_ok,
        "measured": {
            "detected": detected,
            "bound_derived": bound_derived,
            "bound_printed": bound_printed,
            "derived_dominates": derived_ok,
            "printed_dominates": printed_ok,
        },
    }


def _check_bound_domination(
    alpha: float, cfg: IntegrationConfig, samples: int, grid: int, seed: int = _SEED + 1
) -> dict:
    rng = random.Random(seed)
    p_mid = Params(alpha, mid_subcritical_gamma(alpha))
    p_crit = Params(alpha, gamma_star(alpha))
    branches = {
        "h0-negative": (p_mid, sample_subcritical_negative(p_mid, samples, rng)),
        "h0-positive": (p_mid, sample_subcritical_positive(p_mid, samples, rng)),
        "critical": (p_crit, sample_critical(p_crit, samples, rng)),
    }
    failures: list[dict] = []
    margins: dict[str, float] = {}
    for label, (p, states) in branches.items():
        worst = math.inf
        for rs in states:
            est, detected = _oracle_time(rs, p, cfg)
            bound = est.kind is analysis.EstimateKind.UPPER_BOUND
            if detected is None or detected > est.value or not bound:
                failures.append(
                    {"branch": label, "state": [rs.theta, rs.w], "detected": detected,
                     "bound": est.value, "estimate_kind": est.kind.value}
                )
            else:
                worst = min(worst, est.value - detected)
        margins[label] = worst
    return {
        "passed": not failures,
        "measured": {"samples_per_branch": samples, "min_margin": margins, "failures": failures},
    }


def _check_corridor(alpha: float, cfg: IntegrationConfig, samples: int, grid: int) -> dict:
    gs = gamma_star(alpha)
    p = Params(alpha, max(2.0, gs + 0.5))
    rs = ReducedState(0.0, 1.0)
    corridor = analysis.apriori_corridor(rs, p)
    traj = integrate(rs, p, 50.0, cfg)
    ok_inside = all(
        corridor.lower_bound(rs.w, t) - 1e-9 <= s[1] <= corridor.upper_bound(rs.w, t) + 1e-9
        for t, s in zip(traj.times, traj.states)
    )
    w50 = traj.state_final[1]
    f_hi = analysis.axis_energy(corridor.theta_hi, p)
    f_lo = analysis.axis_energy(corridor.theta_lo, p)
    descent_ok = w50 < rs.w - 50.0 * abs(f_hi)
    # As printed, the two corridor lines use swapped endpoints, which makes
    # the lower line sit above the upper line for every state.
    printed_lower_slope = -p.mu * math.exp(-corridor.theta_hi)
    printed_upper_slope = -abs(f_lo)
    return {
        "passed": ok_inside and descent_ok and traj.outcome is Outcome.REACHED_T_END,
        "measured": {
            "gamma": p.gamma,
            "inside_corridor": ok_inside,
            "w_at_50": w50,
            "descent_line_value": rs.w - 50.0 * abs(f_hi),
            "descent_ok": descent_ok,
            "lower_slope": corridor.lower_slope,
            "upper_slope": corridor.upper_slope,
            "printed_lower_slope": printed_lower_slope,
            "printed_upper_slope": printed_upper_slope,
            "printed_corridor_empty": printed_lower_slope > printed_upper_slope,
            "w50_below_printed_descent_line": w50 < rs.w - 50.0 * abs(f_lo),
        },
    }


def _check_classifier_oracle(
    alpha: float, cfg: IntegrationConfig, samples: int, grid: int
) -> dict:
    # Grid ranges chosen so that every colliding node reaches its blow-up
    # well inside the 200-unit horizon (collision times grow like
    # exp(2*theta0) toward large radii).  An even grid has no node on W = 0.
    gammas = [1.0, mid_subcritical_gamma(alpha), gamma_star(alpha), 2.0]
    nodes = [-2.0 + 4.0 * i / (grid - 1) for i in range(grid)]
    disagreements = []
    tally = dict.fromkeys(SimStatus, 0)
    for g in gammas:
        rows = classifier_oracle_grid(Params(alpha, g), nodes, nodes, cfg)
        disagreements.extend(
            {"gamma": g, "theta0": r[0], "w0": r[1], "verdict": r[2], "oracle": r[5]}
            for r in rows
            if not r[6]
        )
        for r in rows:
            tally[SimStatus(r[5])] += 1
    return {
        "passed": not disagreements,
        "measured": {
            "grid": f"{grid}x{grid} x 4 regimes",
            "disagreements": disagreements[:10],
            "n_disagreements": len(disagreements),
            # Undecided runs are reported, though the pass rule counts them
            # as agreeing with a no-collision verdict.
            "n_collided": tally[SimStatus.COLLIDED],
            "n_survived": tally[SimStatus.SURVIVED],
            "n_inconclusive": tally[SimStatus.INCONCLUSIVE],
        },
    }


def _check_conservation(alpha: float, cfg: IntegrationConfig, samples: int, grid: int) -> dict:
    # Fixed tolerances, whatever the battery's: the drift limits below are
    # set for them.  The report states the ones used.
    cfg = IntegrationConfig(rel_tol=1e-10, abs_tol=1e-12)
    drifts: dict[str, float] = {}
    # Full system through a head-on collision approach.
    full = FullState(4.0, 0.5, 4.0, -0.5)
    traj_full = integrate(full, Params(0.5, 1.0), 6.0, cfg)
    drifts["d-full"] = traj_full.drift["d"]
    # Reduced supercritical run.
    traj_red = integrate(ReducedState(0.0, 1.0), Params(alpha, 2.0), 50.0, cfg)
    drifts["H-reduced"] = traj_red.drift["H"]
    # Hyperbolic run on d != 0.
    p = Params(alpha, 2.0)
    hs = dynamics.reduce_state(FullState(1.0, 0.6, 1.1, 0.0), p)
    traj_hyp = integrate(hs, p, 50.0, cfg)
    drifts["H-hyperbolic"] = traj_hyp.drift["H"]
    ok = (
        drifts["d-full"] < 1e-9
        and drifts["H-reduced"] < 1e-8
        and drifts["H-hyperbolic"] < 1e-8
    )
    return {"passed": ok, "measured": {**drifts, "rel_tol": cfg.rel_tol, "abs_tol": cfg.abs_tol}}


def _check_certificate(alpha: float, cfg: IntegrationConfig, samples: int, grid: int) -> dict:
    p = Params(alpha, 2.0)
    results = {}
    ok = True
    for label, full in {
        "d-positive": FullState(1.0, 0.6, 1.1, 0.0),
        "d-negative": FullState(0.8, 0.6, 1.4, 0.0),
    }.items():
        hs = dynamics.reduce_state(full, p)
        cert = analysis.no_collision_certificate(hs, p)
        traj = integrate(hs, p, 30.0, cfg)
        min_seen = min(
            dynamics.hyperbolic_separation(s[0], s[1], hs.d, p.gamma)
            for s in traj.states
        )
        good = min_seen >= cert.min_separation * (1.0 - 1e-6) and cert.min_separation > 0
        ok = ok and good
        results[label] = {
            "d": hs.d,
            "min_separation": cert.min_separation,
            "min_seen": min_seen,
            "holds": good,
        }
    return {"passed": ok, "measured": results}


def _check_ansatz(alpha: float, cfg: IntegrationConfig, samples: int, grid: int) -> dict:
    rng = random.Random(_SEED + 2)
    worst = 0.0
    n = 3 * samples
    for _ in range(n):
        gamma = rng.choice([1.0, 1.0 + rng.random(), 1.0 + 3.0 * rng.random()])
        p = Params(alpha, gamma)
        s = FullState(
            math.exp(rng.uniform(-1.0, 1.5)),
            rng.uniform(-2.0, 2.0),
            math.exp(rng.uniform(-1.0, 1.5)),
            rng.uniform(-2.0, 2.0),
        )
        worst = max(worst, dynamics.ansatz_residual(s, p, n_samples=16))
    return {
        "passed": worst < 1e-10,
        "measured": {"samples": n, "max_residual": worst},
    }


#: Every check by name, in report order.
CHECKS = {
    "gamma-star": _check_gamma_star,
    "gamma1-exact-time": _check_gamma1_exact,
    "gamma1-implicit-time": _check_gamma1_implicit,
    "subcritical-h0zero-discrepancy": _check_subcritical_h0zero,
    "critical-bound-discrepancy": _check_critical_bound,
    "bound-domination": _check_bound_domination,
    "corridor": _check_corridor,
    "classifier-oracle": _check_classifier_oracle,
    "conservation": _check_conservation,
    "certificate": _check_certificate,
    "ansatz": _check_ansatz,
}


def run_battery(
    alpha: float = 0.2,
    selection: Iterable[str] | None = None,
    rel_tol: float = IntegrationConfig.rel_tol,
    abs_tol: float = IntegrationConfig.abs_tol,
    samples: int = 8,
    grid: int = 6,
) -> dict:
    """Run the re-derivation battery and return a JSON-ready report.

    Each check's entry carries its wall time in "seconds", which ``filcol
    verify`` prints on stderr only.

    Raises ConfigInvalid for an unknown check, grid < 2 or samples < 1, and
    for an odd grid when classifier-oracle is selected.
    """
    wanted = list(CHECKS) if selection is None else list(selection)
    if grid < 2 or samples < 1:
        raise ConfigInvalid(f"need grid >= 2 and samples >= 1, got {grid} and {samples}")
    if grid % 2 and "classifier-oracle" in wanted:
        raise ConfigInvalid(f"classifier-oracle needs an even grid (no node on W0 = 0), got {grid}")
    unknown = [n for n in wanted if n not in CHECKS]
    if unknown:
        raise ConfigInvalid(f"unknown verify checks: {unknown}; known: {list(CHECKS)}")
    cfg = IntegrationConfig(rel_tol=rel_tol, abs_tol=abs_tol)
    checks = []
    for name in wanted:
        start = time.perf_counter()
        checks.append({"name": name, **CHECKS[name](alpha, cfg, samples, grid)})
        checks[-1]["seconds"] = time.perf_counter() - start
    return {
        "alpha": alpha,
        "checks": checks,
        "n_checks": len(checks),
        "passed": all(c["passed"] for c in checks),
    }
