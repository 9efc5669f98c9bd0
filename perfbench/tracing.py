"""Layer tracing for the filcol benchmark.

The wrappers live here, in the benchmark, not in the package: a traced pass
replaces module attributes of ``filcol`` with timing wrappers and restores
them afterwards.  Each wrapper is installed at the site where the name is
looked up at call time:

* the ``dynamics`` vector-field and energy factories, so the closures they
  return (to ``integrate``, ``hamiltonian`` and ``hamiltonian_hyperbolic``)
  are timed and counted;
* ``dynamics.reduce_state``;
* ``analysis.gamma_star``, ``theta_star``, ``classify``, ``collision_time``
  and ``no_collision_certificate``, plus the ``classify`` and
  ``collision_time`` names that ``filcol.verify`` binds for its grid nodes;
* ``integrate`` and ``simulate_until_collision`` as bound in
  ``filcol.integrate`` (the module, reached through ``sys.modules`` because
  the package re-exports the function under the same name), ``filcol.cli``
  and ``filcol.verify``;
* ``cli.main``.

Spans are aggregated per name as they close (calls, inclusive time, self
time), because a run makes millions of field evaluations; a span's self time
is its duration minus the time of the spans opened inside it.  The
full-system drift monitor evaluates ``d`` inline in ``integrate`` and has no
factory, so it is not counted as an energy evaluation.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

FIELD = "dynamics.field"
ENERGY = "dynamics.energy"


class Tracer:
    """Aggregated spans and integrator counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self._stack: list[list[float]] = []  # open spans' child time
        self.accepted_steps = 0
        self.attempted_steps = 0.0
        self.outcomes: dict[str, int] = {}

    def _stats(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0.0, 0.0])

    def span(self, name: str, fn):
        """Wrap fn so that every call records a span called name."""
        stats = self._stats(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - children[0]
                if stack:
                    stack[-1][0] += dt

        traced.__wrapped__ = fn
        return traced

    def factory(self, name: str, make):
        """Wrap a factory so that the closure it returns is traced as name."""

        def traced_factory(*args, **kwargs):
            return self.span(name, make(*args, **kwargs))

        traced_factory.__wrapped__ = make
        return traced_factory

    def integrator(self, fn):
        """Trace ``integrate`` and count its steps and outcomes per call.

        Dormand-Prince with FSAL makes one field evaluation at the start and
        six per step attempt, so attempts = (field evaluations - 1) / 6.
        """
        spanned = self.span("integrate.integrate", fn)
        field = self._stats(FIELD)

        def traced_integrate(*args, **kwargs):
            before = field[0]
            traj = spanned(*args, **kwargs)
            evals = field[0] - before
            self.attempted_steps += max(0, evals - 1) / 6.0
            self.accepted_steps += len(traj.times) - 1
            key = traj.outcome.value
            self.outcomes[key] = self.outcomes.get(key, 0) + 1
            return traj

        traced_integrate.__wrapped__ = fn
        return traced_integrate

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def mean_us(self, name: str, own: bool = False) -> float:
        """Mean inclusive (or, with own=True, self) time per call in us."""
        calls, total, self_s = self.spans.get(name, (0, 0.0, 0.0))
        if calls == 0:
            return 0.0
        return 1e6 * (self_s if own else total) / calls

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics of the dynamics, integrate, analysis and cli spans."""
        attempts = self.attempted_steps
        integ_self = self.spans.get("integrate.integrate", (0, 0.0, 0.0))[2]
        return {
            "dynamics.field_evals_per_op": self.calls(FIELD) / ops,
            "dynamics.field_eval_us": self.mean_us(FIELD),
            "dynamics.energy_evals_per_op": self.calls(ENERGY) / ops,
            "dynamics.reduce_state_us": self.mean_us("dynamics.reduce_state"),
            "integrate.calls": self.calls("integrate.integrate"),
            "integrate.accepted_steps_per_op": self.accepted_steps / ops,
            "integrate.attempted_steps_per_op": attempts / ops,
            "integrate.accept_ratio": self.accepted_steps / attempts if attempts else 0.0,
            "integrate.self_us_per_attempt": 1e6 * integ_self / attempts if attempts else 0.0,
            "integrate.outcome.reached-t-end": self.outcomes.get("reached-t-end", 0),
            "integrate.outcome.event-terminated": self.outcomes.get("event-terminated", 0),
            "integrate.outcome.step-collapsed": self.outcomes.get("step-collapsed", 0),
            "analysis.gamma_star_calls_per_op": self.calls("analysis.gamma_star") / ops,
            "analysis.gamma_star_us": self.mean_us("analysis.gamma_star"),
            "analysis.classify_us": self.mean_us("analysis.classify", own=True),
            "analysis.theta_star_calls_per_op": self.calls("analysis.theta_star") / ops,
            "analysis.theta_star_us": self.mean_us("analysis.theta_star"),
            "analysis.collision_time_us": self.mean_us("analysis.collision_time"),
            "analysis.certificate_us": self.mean_us("analysis.certificate"),
            "cli.self_ms": self.mean_us("cli.main", own=True) / 1e3,
        }


@contextmanager
def installed(tracer: Tracer, fc):
    """Install tracer's wrappers into the filcol modules, restore on exit."""
    dyn, ana, cli, ver = fc.dynamics, fc.analysis, fc.cli, fc.verify
    integ = sys.modules["filcol.integrate"]
    traced_integrate = tracer.integrator(integ.integrate)
    traced_sim = tracer.span(
        "integrate.simulate_until_collision", integ.simulate_until_collision
    )
    sites = [
        (dyn, "full_field", tracer.factory(FIELD, dyn.full_field)),
        (dyn, "reduced_field", tracer.factory(FIELD, dyn.reduced_field)),
        (dyn, "hyperbolic_field", tracer.factory(FIELD, dyn.hyperbolic_field)),
        (dyn, "reduced_energy", tracer.factory(ENERGY, dyn.reduced_energy)),
        (dyn, "hyperbolic_energy", tracer.factory(ENERGY, dyn.hyperbolic_energy)),
        (dyn, "reduce_state", tracer.span("dynamics.reduce_state", dyn.reduce_state)),
        (ana, "gamma_star", tracer.span("analysis.gamma_star", ana.gamma_star)),
        (ana, "theta_star", tracer.span("analysis.theta_star", ana.theta_star)),
        (ana, "classify", tracer.span("analysis.classify", ana.classify)),
        (ana, "collision_time", tracer.span("analysis.collision_time", ana.collision_time)),
        (ana, "no_collision_certificate",
         tracer.span("analysis.certificate", ana.no_collision_certificate)),
        (ver, "classify", tracer.span("analysis.classify", ver.classify)),
        (ver, "collision_time", tracer.span("analysis.collision_time", ver.collision_time)),
        (integ, "integrate", traced_integrate),
        (cli, "integrate", traced_integrate),
        (ver, "integrate", traced_integrate),
        (cli, "simulate_until_collision", traced_sim),
        (ver, "simulate_until_collision", traced_sim),
        (cli, "main", tracer.span("cli.main", cli.main)),
    ]
    originals = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in sites]
    try:
        for obj, attr, wrapper in sites:
            setattr(obj, attr, wrapper)
        yield tracer
    finally:
        for obj, attr, original in reversed(originals):
            setattr(obj, attr, original)
