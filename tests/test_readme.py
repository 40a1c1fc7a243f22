"""The examples of README.md: each command of the "Command line" block runs
and exits 0, and the "Library" block runs and shows the values its comments
state."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from germcontract.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first fenced lang block after the line `## heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S)[1]


COMMANDS = [
    shlex.split(line)[1:]
    for line in _block("Command line", "sh").splitlines()
    if line.startswith("germcontract ")
]


def test_the_command_block_is_read():
    # the six subcommands, one example each
    assert len(COMMANDS) >= 6


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_command_line_example_exits_0(argv, capsys):
    assert run(argv) == 0
    assert capsys.readouterr().out


# each expression of the Library block with the value its comment shows
LIBRARY_VALUES = [
    ("rep.contractible", "True"),
    ("rep.algebraic", "False"),
    ("rep.key_forms.omegas", "(5, 2, 2)"),
    ("[(f.format(), w) for f, w in rep.key_forms.chain()][2]", "('y^5 - x^2', 3)"),
    ("cls.classification.value", '"Both"'),
]


def test_library_example_shows_its_values(capsys):
    code = _block("Library", "python")
    namespace = {}
    exec(code, namespace)
    assert capsys.readouterr().out.startswith("graph ")
    for expr, shown in LIBRARY_VALUES:
        assert re.search(re.escape(expr) + r"\s*# " + re.escape(shown), code), expr
        assert eval(expr, namespace) == ast.literal_eval(shown), expr
