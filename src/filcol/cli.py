"""Command-line front end.

Subcommands
-----------
  gamma-star   critical circulation ratio for a given interaction strength
  theta-star   separatrix angle for a positive-energy subcritical level
  classify     regime verdict for an initial state
  simulate     integrate an initial state (collision-aware by default)
  sweep        classify a (theta0, W0) grid, optionally oracle-checked
  verify       run the re-derivation battery and emit a report

Initial states are given either in reduced coordinates (--theta0/--w0) or as
a full configuration (--r1/--z1/--r2/--z2); full states are routed through
the conserved-quantity reduction, and collision commands reject d != 0
states (those pairs provably never collide; the message carries the
certificate).  Ratios below 1 are accepted: a command then runs in the
gamma >= 1 frame of the renamed filaments (`_Frame`), which maps states and
the --t-end horizon in, times out, and writes the artefact's
gamma_normalized/gamma_input/note fields.  --t-end is an input-frame time,
checked against --h-min as typed.

Outputs are CSV or JSON with shortest round-trip float formatting, written
atomically (temp file + rename).  Exit codes: 0 success, 2 validation
error, 3 numerical failure.  Oracle sweeps run a worker per CPU in the CPU set.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys

from . import analysis, dynamics, verify
from .analysis import classify as classify_state
from .analysis import gamma_star, theta_star
from .dynamics import FullState, HyperbolicState, Params, ReducedState
from .errors import ConfigInvalid, NumericalError, NumericalFailure, RegimeError, ValidationError
from .integrate import _KAPPA, DEFAULT_T_END, IntegrationConfig
from .integrate import integrate, simulate_until_collision

__all__ = ["main"]


# --------------------------------------------------------------------------
# The renamed frame (gamma < 1 by filament renaming)
# --------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _Frame:
    """The gamma >= 1 frame a command runs in, and the way back to the input's.

    Renaming the filaments composes with a z-reflection and time reversal
    into the forward map (theta, W) -> (theta + log(sqrt(gamma)), W), or
    (r1, z1, r2, z2) -> (r2, -z2, r1, -z1), with ratio 1/gamma; a renamed
    time times `scale` is an input time.  For gamma >= 1 the frame is the
    input's, and its shift -0.0 leaves every theta (-0.0 too) as it is.
    """

    params: Params
    gamma_input: float
    shift: float
    scale: float
    swapped: bool

    def reduced(self, theta: float, w: float) -> ReducedState:
        return ReducedState(theta + self.shift, w)

    def full(self, r1: float, z1: float, r2: float, z2: float) -> FullState:
        return FullState(r2, -z2, r1, -z1) if self.swapped else FullState(r1, z1, r2, z2)

    def horizon(self, t_end: float, h_min: float) -> float:
        """--t-end in the frame's time, checked against --h-min as typed."""
        if self.swapped and not t_end / self.scale > h_min:
            raise ConfigInvalid(
                f"t_end must exceed h_min / gamma = {h_min} / {self.gamma_input} "
                f"(the step floor applies in the renamed frame), got {t_end}"
            )
        return t_end / self.scale

    def input_time(self, t: float, t_end: float | None = None) -> float:
        """t in input time; at t_end's horizon, t_end itself (not an ulp off)."""
        t_in = t_end if t_end is not None and t == t_end / self.scale else t * self.scale
        if not t_in < math.inf:
            raise NumericalFailure(f"the time {t!r} leaves the float range in the input frame")
        return t_in

    def fields(self, note: str | None) -> dict:
        """Renamed: gamma_normalized, gamma_input, note. Else {}."""
        if not self.swapped:
            return {}
        fields = {"gamma_normalized": True, "gamma_input": self.gamma_input}
        return fields if note is None else {**fields, "note": note}


def _frame(alpha: float, gamma: float) -> _Frame:
    """The frame of a command's --alpha and --gamma."""
    if gamma <= 0.0:
        raise ConfigInvalid(f"gamma must be positive, got {gamma}")
    if gamma >= 1.0:
        return _Frame(Params(alpha, gamma), gamma, -0.0, 1.0, False)
    return _Frame(Params(alpha, 1.0 / gamma), gamma, 0.5 * math.log(gamma), 1.0 / gamma, True)


# --------------------------------------------------------------------------
# Output plumbing
# --------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _atomic_write(path: str, text: str) -> None:
    """Write via a new sibling file in the target directory, then rename.

    The sibling is created with mode 0o666 less the umask, as open(path, "w")
    creates a new file, so the artefact's mode follows the umask whether the
    target is new or replaced.
    """
    target = os.path.abspath(path)
    tmp = os.path.join(os.path.dirname(target), f".filcol-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    """Return exactly json.dumps(payload, indent=2), with simulate's arrays fast.

    CPython's C encoder serves only indent=None, so at indent=2 every float
    of `times` and `states` would go through the pure-Python encoder.  Those
    two arrays (numbers, and rows of numbers) are written compact by the C
    encoder and re-indented.  The text of a number never contains ", ", so
    the separators and row brackets are the only places the layouts differ,
    and the result is byte-identical to json.dumps(payload, indent=2).  The
    rest of the payload is written by that call, with a marker string in
    each array's place; key order is kept.
    """
    if "times" not in payload:
        return json.dumps(payload, indent=2)
    text = json.dumps({**payload, "times": "\0times", "states": "\0states"}, indent=2)
    times = json.dumps(payload["times"])[1:-1].replace(", ", ",\n    ")
    states = (
        json.dumps(payload["states"])[2:-2]
        .replace("], [", "\n    ],\n    [\n      ")
        .replace(", ", ",\n      ")
    )
    text = text.replace('"\\u0000times"', f"[\n    {times}\n  ]", 1)
    return text.replace('"\\u0000states"', f"[\n    [\n      {states}\n    ]\n  ]", 1)


def _emit(args, payload: dict, csv_table: tuple[list[str], list[list]] | None) -> None:
    """Write a command's artefact as JSON or CSV to --output or stdout.

    JSON is always the text of json.dumps(payload, indent=2) plus a newline;
    `_json_text` produces it, writing simulate's arrays by the C encoder.
    """
    if args.format == "json":
        text = _json_text(payload) + "\n"
    else:
        text = _csv_text(*csv_table)
    if args.output:
        _atomic_write(args.output, text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# Shared argument handling
# --------------------------------------------------------------------------

def _integration_config(args) -> IntegrationConfig:
    return IntegrationConfig(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(IntegrationConfig)}
    )


def _initial_state(args, system="auto") -> tuple[_Frame, ReducedState | FullState | HyperbolicState]:
    """The frame and initial state of a command; the state's type names its system: a
    ReducedState for "auto" (a d != 0 pair is refused with its certificate), a FullState
    for "full" and a HyperbolicState for "hyperbolic"."""
    reduced = system == "auto" and args.theta0 is not None and args.w0 is not None
    if not (reduced or all(getattr(args, k) is not None for k in ("r1", "z1", "r2", "z2"))):
        raise ConfigInvalid(f"--system {system} needs --r1/--z1/--r2/--z2" if system != "auto"
                            else "need an initial state: --theta0/--w0 or --r1/--z1/--r2/--z2")
    frame = _frame(args.alpha, args.gamma)
    if reduced:
        return frame, frame.reduced(args.theta0, args.w0)
    state = frame.full(args.r1, args.z1, args.r2, args.z2)
    if system == "full":
        return frame, state
    state = dynamics.reduce_state(state, frame.params)
    if system == "hyperbolic" and not isinstance(state, HyperbolicState):
        raise ConfigInvalid("conserved d is zero within tolerance; use --system auto")
    if system == "auto" and isinstance(state, HyperbolicState):
        cert = analysis.no_collision_certificate(state, frame.params)
        raise ConfigInvalid(
            f"conserved d = {state.d!r} is nonzero: this pair can never "
            f"collide (separation stays >= {cert.min_separation!r}); "
            "collision analysis needs d = 0. Integrate it with "
            "`simulate --system hyperbolic`."
        )
    return frame, state


def _record_table(payload: dict, header: list[str]) -> tuple[list[str], list[list]]:
    """The one-row CSV of a record artefact: its payload's fields by header."""
    return header, [[payload.get(name) for name in header]]


# --------------------------------------------------------------------------
# Command handlers
# --------------------------------------------------------------------------

def _cmd_gamma_star(args) -> None:
    gs = gamma_star(args.alpha)
    eta = math.sqrt(gs)
    payload = {
        "command": "gamma-star",
        "alpha": args.alpha,
        "gamma_star": gs,
        "eta_star": eta,
        "quartic_residual": abs(analysis.quartic(eta, args.alpha)),
    }
    header = ["alpha", "gamma_star", "eta_star", "quartic_residual"]
    _emit(args, payload, _record_table(payload, header))


def _cmd_theta_star(args) -> None:
    frame = _frame(args.alpha, args.gamma)
    try:
        value = theta_star(frame.params, args.h0)
    except RegimeError as exc:
        if not frame.swapped:
            raise
        raise RegimeError(  # the range of the ratio as typed, not of its renaming
            f"need gamma strictly inside (1/gamma_star={1.0 / gamma_star(args.alpha)}, 1), "
            f"got {frame.gamma_input}"
        ) from exc
    payload = {
        "command": "theta-star",
        "alpha": args.alpha,
        "gamma": frame.params.gamma,
        "h0": args.h0,
        "theta_star": value,
        "gamma_normalized": frame.swapped,
        **frame.fields("filaments renamed; theta_star is in the renamed frame"),
    }
    _emit(args, payload, _record_table(payload, ["alpha", "gamma", "h0", "theta_star"]))


def _cmd_classify(args) -> None:
    frame, rs = _initial_state(args)
    p = frame.params
    mc = classify_state(rs, p)
    payload = {
        "command": "classify",
        "alpha": args.alpha,
        "gamma": p.gamma,
        "theta0": rs.theta,
        "w0": rs.w,
        "verdict": mc.verdict.value,
        "h0": mc.h0,
        "gamma_star": mc.gamma_star,
        "theta_star": mc.theta_star,
        "predicts_collision": mc.predicts_collision,
    }
    if mc.predicts_collision:
        est = mc.estimate()
        payload["t_estimate"] = frame.input_time(est.value)
        payload["t_estimate_kind"] = est.kind.value
        payload["formula_tag"] = est.formula_tag.value
        payload["constants"] = est.constants
    payload.update(frame.fields(
        "filaments renamed (gamma < 1): theta0 shifted by log(sqrt(gamma)), "
        "times rescaled to the input frame"
    ))
    header = ["alpha", "gamma", "theta0", "w0", "verdict", "h0", "gamma_star",
              "theta_star", "t_estimate"]
    _emit(args, payload, _record_table(payload, header))


def _cmd_simulate(args) -> None:
    cfg = _integration_config(args)
    frame, y0 = _initial_state(args, args.system)
    t_end = frame.horizon(args.t_end, cfg.h_min)
    if isinstance(y0, ReducedState):
        result, traj = simulate_until_collision(y0, frame.params, cfg, t_end=t_end)
        status, t_stop = result.status.value, result.time
        # The closed-form part of a collision time; the rest was integrated.
        t_rem = result.remaining_time if result.collided else None
    else:
        traj = integrate(y0, frame.params, t_end, cfg)
        status, t_stop, t_rem = traj.outcome.value, traj.t_final, None
    header = ["t", "r1", "z1", "r2", "z2"] if isinstance(y0, FullState) else ["t", "theta", "w"]

    times = [frame.input_time(t, args.t_end) for t in traj.times]
    outcome = {"status": status, "time": frame.input_time(t_stop, args.t_end)}
    if t_rem is not None:
        outcome["remaining_time"] = frame.input_time(t_rem)
    payload = {
        "command": "simulate",
        "alpha": args.alpha,
        "gamma": frame.params.gamma,
        "system": traj.system.value,
        "outcome": outcome,
        "integration": {
            "outcome": traj.outcome.value,
            "n_points": len(traj.times),
            "rel_tol": cfg.rel_tol,
            **dataclasses.asdict(traj.stats),
        },
        "drift": traj.drift,
        "events": [] if traj.stop is None else [
            {
                "time": times[-1],
                "kind": traj.stop,
                "threshold": _KAPPA if traj.stop == "separation-below" else None,
            }
        ],
        "times": times,
        "states": traj.states,  # tuples: JSON writes them as arrays
        **frame.fields(
            "filaments renamed (gamma < 1): states are in the renamed frame, "
            "times rescaled to the input frame"
        ),
    }
    points = zip(times, traj.states)
    table = (header, [[t, *y] for t, y in points]) if args.format == "csv" else None
    print(f"outcome: {outcome['status']} at t = {_fmt(outcome['time'])}", file=sys.stderr)
    _emit(args, payload, table)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _cmd_sweep(args) -> None:
    if args.n_theta < 2 or args.n_w < 2:
        raise ConfigInvalid("grid counts must be >= 2")
    if not (args.theta_max > args.theta_min and args.w_max > args.w_min):
        raise ConfigInvalid("need theta_max > theta_min and w_max > w_min")

    frame = _frame(args.alpha, args.gamma)
    theta_vals = _linspace(args.theta_min, args.theta_max, args.n_theta)
    w_vals = _linspace(args.w_min, args.w_max, args.n_w)
    nodes = [(th0, w0) for th0 in theta_vals for w0 in w_vals]

    header = ["theta0", "w0", "verdict", "h0", "t_estimate"]
    if args.with_oracle:
        cfg = _integration_config(args)
        grid = verify.classifier_oracle_grid(
            frame.params,
            [t + frame.shift for t in theta_vals],
            w_vals,
            cfg,
            t_end=frame.horizon(args.t_end, cfg.h_min),
        )
        columns = [node[2:] for node in grid]  # verdict, h0, t_est, oracle, agrees, reason
        header += ["oracle", "agrees", "oracle_reason"]
    else:
        columns = [verify.classify_node(frame.reduced(th0, w0), frame.params)
                   for th0, w0 in nodes]
    rows = [
        [th0, w0, verdict, h0, None if t_est is None else frame.input_time(t_est), *oracle]
        for (th0, w0), (verdict, h0, t_est, *oracle) in zip(nodes, columns)
    ]

    payload = {
        "command": "sweep",
        "alpha": args.alpha,
        "gamma": frame.params.gamma,
        "n_theta": args.n_theta,
        "n_w": args.n_w,
        "with_oracle": bool(args.with_oracle),
        "rows": [dict(zip(header, row)) for row in rows],
    }
    if args.with_oracle:
        payload["agreement_rate"] = sum(r["agrees"] for r in payload["rows"]) / len(rows)
    payload.update(frame.fields(None))
    _emit(args, payload, (header, rows))


def _cmd_verify(args) -> None:
    battery = args.battery
    if battery == "all":
        selection = None
    elif battery == "none":
        selection = []
    else:
        selection = [name.strip() for name in battery.split(",") if name.strip()]
        if not selection:
            raise ConfigInvalid(f"--battery {battery!r} names no check; 'none' is the empty battery")
    report = verify.run_battery(
        alpha=args.alpha,
        selection=selection,
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        samples=args.samples,
        grid=args.grid,
    )
    report["command"] = "verify"
    header = ["name", "passed", "measured"]
    rows = [[c["name"], c["passed"], json.dumps(c["measured"])] for c in report["checks"]]
    for c in report["checks"]:
        seconds = c.pop("seconds")  # wall time: on stderr, not in the report
        print(f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}  ({seconds:.3f} s)",
              file=sys.stderr)
    print(f"checks: {report['n_checks']}, all passed: {report['passed']}", file=sys.stderr)
    _emit(args, report, (header, rows))


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def _add_common(sp, default_format: str) -> None:
    sp.add_argument("--config", help="flat key = value file; flags override it")
    sp.add_argument("--output", help="write the artifact here (atomic)")
    sp.add_argument("--format", choices=("csv", "json"), default=default_format)


def _add_params(sp) -> None:
    sp.add_argument("--alpha", type=float,
                    help="interaction strength, in (0, 1)")
    sp.add_argument("--gamma", type=float,
                    help="circulation ratio; < 1 is normalized by renaming")


def _add_state(sp) -> None:
    sp.add_argument("--theta0", type=float, help="log initial radius of filament 1")
    sp.add_argument("--w0", type=float, help="initial axial gap z1 - z2")
    sp.add_argument("--r1", type=float)
    sp.add_argument("--z1", type=float)
    sp.add_argument("--r2", type=float)
    sp.add_argument("--z2", type=float)


def _add_integration(sp) -> None:
    sp.add_argument("--rel-tol", type=float, default=IntegrationConfig.rel_tol)
    sp.add_argument("--abs-tol", type=float, default=IntegrationConfig.abs_tol)
    sp.add_argument("--max-steps", type=int, default=IntegrationConfig.max_steps)
    sp.add_argument("--h-init", type=float, default=IntegrationConfig.h_init)
    sp.add_argument("--h-min", type=float, default=IntegrationConfig.h_min)
    sp.add_argument("--t-end", type=float, default=DEFAULT_T_END)


#: Options that must be present (from flags or the config file) per command.
_REQUIRED = {
    "gamma-star": ("alpha",),
    "theta-star": ("alpha", "gamma", "h0"),
    "classify": ("alpha", "gamma"),
    "simulate": ("alpha", "gamma"),
    "sweep": ("alpha", "gamma", "theta_min", "theta_max", "w_min", "w_max"),
    "verify": (),
}


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subparsers by command, built once per process.

    Building it costs more than a short command; `main` never mutates it.
    """
    parser = argparse.ArgumentParser(
        prog="filcol",
        description="Coaxial circular vortex filament pairs: collision "
        "classification, collision-time formulas and bounds, and an "
        "adaptive integration oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    sp = commands["gamma-star"] = sub.add_parser(
        "gamma-star", help="critical circulation ratio"
    )
    sp.add_argument("--alpha", type=float)
    _add_common(sp, "json")
    sp.set_defaults(handler=_cmd_gamma_star)

    sp = commands["theta-star"] = sub.add_parser("theta-star", help="separatrix angle")
    _add_params(sp)
    sp.add_argument("--h0", type=float, help="positive energy level")
    _add_common(sp, "json")
    sp.set_defaults(handler=_cmd_theta_star)

    sp = commands["classify"] = sub.add_parser(
        "classify", help="regime verdict for an initial state"
    )
    _add_params(sp)
    _add_state(sp)
    _add_common(sp, "json")
    sp.set_defaults(handler=_cmd_classify)

    sp = commands["simulate"] = sub.add_parser("simulate", help="integrate an initial state")
    _add_params(sp)
    _add_state(sp)
    _add_integration(sp)
    sp.add_argument("--system", choices=("auto", "full", "hyperbolic"),
                    default="auto")
    _add_common(sp, "json")
    sp.set_defaults(handler=_cmd_simulate)

    sp = commands["sweep"] = sub.add_parser("sweep", help="classify a (theta0, w0) grid")
    _add_params(sp)
    sp.add_argument("--theta-min", type=float)
    sp.add_argument("--theta-max", type=float)
    sp.add_argument("--w-min", type=float)
    sp.add_argument("--w-max", type=float)
    sp.add_argument("--n-theta", type=int, default=2)
    sp.add_argument("--n-w", type=int, default=2)
    sp.add_argument("--with-oracle", action="store_true",
                    help="also integrate every node and record agreement")
    _add_integration(sp)
    _add_common(sp, "csv")
    sp.set_defaults(handler=_cmd_sweep)

    sp = commands["verify"] = sub.add_parser("verify", help="re-derivation battery report")
    sp.add_argument("--alpha", type=float, default=0.2)
    sp.add_argument("--battery", default="all",
                    help="'all', 'none', or comma-separated check names "
                    f"from: {', '.join(verify.CHECKS)}")
    sp.add_argument("--samples", type=int, default=8)
    sp.add_argument("--grid", type=int, default=6)
    sp.add_argument("--rel-tol", type=float, default=IntegrationConfig.rel_tol)
    sp.add_argument("--abs-tol", type=float, default=IntegrationConfig.abs_tol)
    _add_common(sp, "json")
    sp.set_defaults(handler=_cmd_verify)

    return parser, commands


def _parse_config_file(path: str) -> dict[str, str]:
    """Read a flat `key = value` (or `key value`) file into raw strings."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file {path}: {exc}") from exc
    for i, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, val = line.partition("=")
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ConfigInvalid(f"{path}:{i}: expected 'key = value'")
            key, val = parts
        key = key.strip().replace("-", "_")
        if not key:
            raise ConfigInvalid(f"{path}:{i}: empty key")
        values[key] = val.strip()
    return values


def _config_tokens(path: str, command: str, sp: argparse.ArgumentParser) -> list[str]:
    """The flags a config file stands for, to be placed before the typed ones.

    An entry becomes `--key=value`, so argparse applies the flag's type and
    choices; a switch set to true becomes the bare flag and one set to false
    becomes nothing.  A typed flag, coming later, overrides the entry.
    """
    actions = {
        a.dest: a
        for a in sp._actions  # noqa: SLF001
        if a.option_strings and a.dest not in ("help", "config")
    }
    values = _parse_config_file(path)
    unknown = set(values) - set(actions)
    if unknown:
        raise ConfigInvalid(
            f"config keys not accepted by '{command}': {sorted(unknown)}"
        )
    tokens: list[str] = []
    for key, val in values.items():
        flag = actions[key].option_strings[0]
        if actions[key].nargs != 0:
            tokens.append(f"{flag}={val}")
            continue
        switch = val.lower()
        if switch not in ("true", "false"):
            raise ConfigInvalid(
                f"config key {key} is a switch: give true or false, got {val!r}"
            )
        if switch == "true":
            tokens.append(flag)
    return tokens


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join a negative number to the option before it: --z1 -5.9e-05.

    argparse takes a separate token that starts with '-' for an option
    unless it looks like a negative number, and its pattern for those has
    no exponent form.  --name=value is read as a value in every form.
    """
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if tok.startswith("-") and prev.startswith("--") and "=" not in prev:
            try:
                float(tok)
            except ValueError:
                pass
            else:
                out[-1] = f"{prev}={tok}"
                continue
        out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    """Run one command; safe to call repeatedly in one process."""
    if argv is None:
        argv = sys.argv[1:]
    argv = _attach_negative_values(argv)
    try:
        parser, commands = build_parser()
        args = parser.parse_args(argv)
        if args.config is not None:
            at = argv.index(args.command) + 1
            tokens = _config_tokens(args.config, args.command, commands[args.command])
            args = parser.parse_args(argv[:at] + tokens + argv[at:])
        missing = [
            name for name in _REQUIRED[args.command]
            if getattr(args, name, None) is None
        ]
        if missing:
            flags = ", ".join("--" + m.replace("_", "-") for m in missing)
            raise ConfigInvalid(f"{args.command} needs {flags} (flag or config file)")
        args.handler(args)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
