"""README's usage examples run as written and print what their comments say."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from filcol import FormulaTag, SimStatus, Verdict
from filcol.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(lang: str) -> list[str]:
    """The bodies of README's fenced blocks tagged lang ("" for untagged)."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def cli_examples() -> list[list[str]]:
    """The argv of each `filcol ...` line of the CLI block, continuations
    joined; the `...` placeholder line is not a command."""
    (block,) = [b for b in fenced("") if b.startswith("filcol ")]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if "..." not in line]


def test_cli_examples_exit_0(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = cli_examples()
    assert len(examples) == 9
    for argv in examples:
        code = main(argv)
        assert code == 0, (argv, capsys.readouterr().err)
    assert {"run.json", "sweep.csv", "report.json"} <= {p.name for p in tmp_path.iterdir()}


def test_library_example_prints_its_comments():
    (block,) = fenced("python")
    printed = []
    exec(block, {"print": lambda *args: printed.append(args)})
    comments = [line.split("#", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) == 9
    (verdict,), (tag,), (estimate,), (same,), (status, time), _, _, (field,), (energy,) = printed
    assert verdict is Verdict.HEAD_ON_COLLISION and str(verdict) in comments[0]
    assert tag is FormulaTag.GAMMA1_H0_ZERO and str(tag) in comments[1]
    assert estimate == same == 1.0 and "1.0" in comments[2]
    assert status is SimStatus.COLLIDED and str(status) in comments[4]
    assert abs(time - 1.0) < 1e-9 and "1.0000000000" in comments[4]
    assert field == (-0.5, -0.5) and str(field) in comments[7]
    assert energy == 0.0 and "0.0" in comments[8]
