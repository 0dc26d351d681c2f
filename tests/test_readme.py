"""README's examples must run: its library example, and every
`daha-cc1 ...` line of its command-line block through cli.main; and
every module attribute it names must exist."""

import importlib
import re
import shlex
from pathlib import Path

from daha_cc1 import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first fenced block of the given language under the heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _commands() -> list[list[str]]:
    lines = _block("Command line", "sh").replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("daha-cc1 ")]


def test_readme_library_example_runs(capsys):
    exec(compile(_block("Library example", "python"), "README.md", "exec"), {})
    assert "Type2(eps0=1, eps1=1, del0=1, del1=1, n=0)" in capsys.readouterr().out


def test_readme_command_lines_exit_zero(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # construct --out and ds-check --rep share a file here
    commands = _commands()
    assert [argv[0] for argv in commands] == [
        "classify", "construct", "ds-check", "scan", "spectrum", "selftest",
    ]
    for argv in commands:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()


def test_every_module_attribute_the_readme_names_exists():
    # a backticked span that starts with a module of the package and a
    # dotted name, such as `strata.classify_points`
    named = set(re.findall(
        r"`(cli|core|dsbridge|laurent|rep|roots|strata)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", README))
    assert len(named) >= 20
    missing = []
    for module, name in sorted(named):
        obj = importlib.import_module(f"daha_cc1.{module}")
        for part in name.split("."):
            if not hasattr(obj, part):
                missing.append(f"{module}.{name}")
                break
            obj = getattr(obj, part)
    assert missing == []


def test_every_constant_the_readme_quotes_has_its_value():
    # a backticked module constant followed by its value, as in
    # `core.FILTER_MIN` (256) or `core.ROOTS_BOUND` = 64
    quoted = re.findall(
        r"`(cli|core|dsbridge|laurent|rep|roots|strata)\.([A-Z][A-Z0-9_]*)`"
        r"(?: \(([-+.\deE]+)\)| = ([-+.\deE]*\d))", README)
    names, wrong = set(), []
    for module, name, in_parens, after_eq in quoted:
        names.add(f"{module}.{name}")
        value = getattr(importlib.import_module(f"daha_cc1.{module}"), name)
        if value != float(in_parens or after_eq):
            wrong.append((module, name, value, in_parens or after_eq))
    assert {"core.FILTER_MIN", "core.ROOTS_BOUND"} <= names
    assert wrong == []
