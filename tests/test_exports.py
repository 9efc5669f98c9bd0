"""Public API: every exported name resolves, and the package imports only the stdlib."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import pytest

MODULES = [
    "filcol",
    "filcol.analysis",
    "filcol.cli",
    "filcol.dynamics",
    "filcol.errors",
    "filcol.integrate",
    "filcol.verify",
]

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "filcol").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_imports_only_the_stdlib_and_the_package(path):
    imported = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    foreign = [
        name for name in imported
        if name.split(".")[0] not in sys.stdlib_module_names and name.split(".")[0] != "filcol"
    ]
    assert foreign == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_reads_the_environment(path):
    # Every setting is a flag, an argument or a config-file line; the worker
    # budget is the CPU set, which taskset narrows.
    found = [
        node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv"))
        or (isinstance(node, ast.Name) and node.id in ("environ", "environb", "getenv"))
        or (isinstance(node, ast.alias) and node.name in ("environ", "environb", "getenv"))
    ]
    assert found == []


def equal_circulation_tests(path: Path) -> list[int]:
    """Lines of each == or != test of a `gamma` or `sqrt_gamma` name or attribute
    against the constant 1, outside the Params class."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside_params = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "Params"
        for node in ast.walk(cls)
    }
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or id(node) in inside_params:
            continue
        if not all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        names = {getattr(o, "id", None) or getattr(o, "attr", None) for o in operands}
        one = any(
            isinstance(o, ast.Constant) and type(o.value) in (int, float) and o.value == 1
            for o in operands
        )
        if one and names & {"gamma", "sqrt_gamma"}:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_equal_circulation_is_tested_only_in_params(path):
    # The local `equal` behind Params.regime is the one gamma = 1 predicate;
    # everything else reads Params.regime, so no two modules can disagree on
    # the ratio one ulp above 1.
    assert equal_circulation_tests(path) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_params_is_the_one_record_of_derived_constants(path):
    # Each (alpha, gamma) constant is a field of Params, formed at construction:
    # no second record (RegimeLaw) and no lazy `law` attribute beside it.
    found = [
        node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr in ("law", "_law"))
        or (isinstance(node, ast.Name) and node.id == "RegimeLaw")
        or (isinstance(node, ast.ClassDef) and node.name == "RegimeLaw")
    ]
    assert found == []


def series_sites(path: Path) -> list[tuple[str, str, str | None]]:
    """(file, function, outermost `if` test) of each sum() over a range(): the
    if is the outermost one inside the function that holds the sum, or None."""
    sites = []
    for func in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(func, ast.FunctionDef):
            continue
        branch_of = {}
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.If) and id(stmt) not in branch_of:
                for node in ast.walk(stmt):
                    branch_of.setdefault(id(node), ast.unparse(stmt.test))
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum"
                    and any(getattr(gen.iter.func, "id", None) == "range"
                            for arg in node.args if isinstance(arg, ast.GeneratorExp)
                            for gen in arg.generators if isinstance(gen.iter, ast.Call))):
                sites.append((path.name, func.name, branch_of.get(id(node))))
    return sites


def test_each_series_has_one_copy():
    # _artanh_tail is the one copy of the series (artanh(t) - t)/t**3 that
    # log_tail, time_to_axis and the critical bound sum near their cancellation.
    sites = [site for path in SOURCES if path.name in ("analysis.py", "dynamics.py")
             for site in series_sites(path)]
    assert sites == [("dynamics.py", "_artanh_tail", None)]


def test_the_certificate_reads_the_one_energy_formula():
    # no_collision_certificate evaluates the d != 0 energy only through the
    # chart's closure, dynamics.hyperbolic_energy, looked up on the module so
    # that every evaluation can be counted; hyperbolic_kinetic enters only the
    # bound.  analysis writes none of the energy's parts itself: no hypot
    # (the separation), atan (the kinetic part), sinh or cosh (the chart).
    # A faster search cannot fork the one energy formula.
    tree = ast.parse((SOURCES[0].parent / "analysis.py").read_text(encoding="utf-8"))
    cert = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "no_collision_certificate")
    inside = {id(node) for node in ast.walk(cert)}
    energy = [node for node in ast.walk(tree)
              if "hyperbolic_energy" in (getattr(node, "id", None), getattr(node, "attr", None),
                                         *(alias.name for alias in getattr(node, "names", [])))]
    assert [ast.unparse(node) for node in energy] == ["dynamics.hyperbolic_energy"]
    assert id(energy[0]) in inside
    kinetic = [node for node in ast.walk(tree)
               if isinstance(node, ast.Call) and ast.unparse(node.func) == "hyperbolic_kinetic"]
    bound = cert.body[-1]
    assert len(kinetic) == 1 and isinstance(bound, ast.Return)
    assert id(kinetic[0]) in {id(node) for node in ast.walk(bound)}
    parts = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
             and ast.unparse(node.func) in ("math.hypot", "math.atan", "math.sinh", "math.cosh")]
    assert parts == []


def test_every_exact_time_is_the_time_to_the_axis():
    # _formula has one EXACT return, and its time is a dynamics.time_to_axis
    # call: no exact collision time is written out a second time.
    tree = ast.parse((SOURCES[0].parent / "analysis.py").read_text(encoding="utf-8"))
    formula = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_formula")
    exact = [node.value for node in ast.walk(formula)
             if isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple)
             and ast.unparse(node.value.elts[0]) == "EstimateKind.EXACT"]
    assert len(exact) == 1
    time = exact[0].elts[1]
    assert isinstance(time, ast.Call) and ast.unparse(time.func) == "dynamics.time_to_axis"


def cut_sites(path: Path) -> tuple[list[tuple[str, str]], list[str]]:
    """(file, function) of each comparison against a 1e-12 literal, and the
    module-level names bound to 1e-12."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    is_cut = lambda node: isinstance(node, ast.Constant) and node.value == 1e-12  # noqa: E731
    sites = [
        (path.name, func.name)
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Compare) and any(is_cut(n) for n in ast.walk(node))
    ]
    names = [
        ast.unparse(target)
        for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        and stmt.value is not None and is_cut(stmt.value)
        for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
    ]
    return sites, names


def test_the_zero_energy_cut_has_one_copy():
    # dynamics.level_sign holds the cut |z| <= 1e-12 on the level z =
    # h0*exp(theta)/mu; classify, the bounds and the oracle's witness read
    # the sign from it, and none of them evaluates the energy itself.
    found = [cut_sites(path) for path in SOURCES
             if path.name in ("analysis.py", "dynamics.py", "integrate.py")]
    assert [site for sites, _ in found for site in sites] == [("dynamics.py", "level_sign")]
    assert [name for _, names in found for name in names] == []
    for module, name in (("analysis", "classify"), ("analysis", "_formula"),
                         ("integrate", "simulate_until_collision")):
        tree = ast.parse((SOURCES[0].parent / f"{module}.py").read_text(encoding="utf-8"))
        func = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == name)
        called = {ast.unparse(node.func) for node in ast.walk(func) if isinstance(node, ast.Call)}
        assert "dynamics._on_level" in called
        assert not any("reduced_energy" in text for text in called)


def test_the_steppers_call_no_abs_max_or_min():
    # Every attempt forms its error norm with conditional expressions: a
    # builtin call per component was a measurable share of a 2-D attempt.
    # The steppers are built at import, so their source is read from them.
    integrate = importlib.import_module("filcol.integrate")
    steppers = [node for name in ("_step_2d", "_step_4d")
                for node in ast.parse(inspect.getsource(getattr(integrate, name))).body
                if isinstance(node, ast.FunctionDef) and node.name == name]
    assert len(steppers) == 2
    called = {ast.unparse(node.func) for func in steppers
              for node in ast.walk(func) if isinstance(node, ast.Call)}
    assert called & {"abs", "max", "min"} == set()
    assert "f" in called


def test_only_the_stepper_builder_compiles_source():
    # integrate._attempt writes the steppers' source and compiles it once at
    # import; nothing else in the package runs text as code.
    sites = sorted(
        (path.name, getattr(stmt, "name", None), node.func.id)
        for path in SOURCES for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("exec", "eval", "compile")
    )
    assert sites == [("integrate.py", "_attempt", "compile"), ("integrate.py", "_attempt", "exec")]


def restated_integration_defaults(path: Path, values: set) -> list[str]:
    """Each literal in the module that stands in for an integrator default:
    a parameter default or an argparse `default=` among `values`, or an
    `IntegrationConfig(...)` call with a literal argument, by the function
    that holds it."""
    found = []
    for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(func, ast.FunctionDef):
            continue
        literals = [(func.name, d) for d in func.args.defaults + func.args.kw_defaults]
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("add_argument"):
                literals += [(func.name, kw.value) for kw in node.keywords if kw.arg == "default"]
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "IntegrationConfig":
                found += [func.name for arg in node.args + [kw.value for kw in node.keywords]
                          if isinstance(arg, ast.Constant)]
        found += [name for name, node in literals
                  if isinstance(node, ast.Constant) and type(node.value) in (int, float)
                  and node.value in values]
    return found


def test_the_integrator_defaults_have_one_home():
    # integrate.IntegrationConfig and DEFAULT_T_END hold every integrator
    # default: the CLI flags and run_battery read them, and no runner builds
    # a default record from a None sentinel.  The conservation check keeps
    # its fixed pair on purpose: its drift limits are set for it.
    cli, integrate, verify = (importlib.import_module(f"filcol.{name}")
                              for name in ("cli", "integrate", "verify"))
    record = {f.name: f.default for f in dataclasses.fields(integrate.IntegrationConfig)}
    values = {*record.values(), integrate.DEFAULT_T_END}
    found = {path.name: restated_integration_defaults(path, values)
             for path in SOURCES if path.name != "integrate.py"}
    assert {name: sites for name, sites in found.items() if sites} == {
        "verify.py": ["_check_conservation", "_check_conservation"]
    }
    assert "Fixed tolerances" in inspect.getsource(verify._check_conservation)
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                    and ast.unparse(node) == "cfg is None"], path.name

    _, commands = cli.build_parser()
    for command, names in (("simulate", record), ("sweep", record),
                           ("verify", ("rel_tol", "abs_tol"))):
        defaults = {a.dest: a.default for a in commands[command]._actions}  # noqa: SLF001
        assert {name: defaults[name] for name in names} == {name: record[name] for name in names}
        if command != "verify":
            assert defaults["t_end"] == integrate.DEFAULT_T_END
    battery = inspect.signature(verify.run_battery).parameters
    assert (battery["rel_tol"].default, battery["abs_tol"].default) == (
        record["rel_tol"], record["abs_tol"])
    for runner in (integrate.integrate, integrate.simulate_until_collision,
                   verify.classifier_oracle_grid):
        params = inspect.signature(runner).parameters
        assert params["cfg"].default is integrate.DEFAULT_CONFIG
        if runner is not integrate.integrate:
            assert params["t_end"].default == integrate.DEFAULT_T_END


def test_the_cli_resolves_every_initial_state_in_one_place():
    # cli._initial_state is the one path from the state flags to an initial
    # state, for classify and for every --system of simulate: no handler
    # maps a full state into the frame or reduces it on its own.
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text(encoding="utf-8"))
    sites = sorted(
        (getattr(stmt, "name", None), ast.unparse(node.func))
        for stmt in tree.body for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("reduce_state", "full")
    )
    assert sites == [("_initial_state", "dynamics.reduce_state"), ("_initial_state", "frame.full")]


def test_the_battery_runs_the_oracle_in_one_place():
    # The grid node and _oracle_time are the only oracle runs in verify, so
    # the battery's checks share one horizon rule: 4*estimate + 20.
    tree = ast.parse((SOURCES[0].parent / "verify.py").read_text(encoding="utf-8"))
    callers = sorted(
        stmt.name for stmt in tree.body if isinstance(stmt, ast.FunctionDef)
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "simulate_until_collision"
    )
    assert callers == ["_grid_node", "_oracle_time"]
