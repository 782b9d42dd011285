"""The README's CLI and Library blocks run, and every output and value
they show is the one the package gives."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from pellredei.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# A comment that opens with a repr; any words after it explain the line.
_SHOWN = re.compile(r"#\s*((?:PellSolution|HyperbolaPoint|Fraction)\([^()]*\)|INF\b|-?\d+\b)")


def _cli_examples() -> list[tuple[str, str]]:
    """(command, shown output) for each `$ pellredei ...` line of the CLI block."""
    text = README.read_text()
    after = text[text.index("## CLI") :]
    block = after.split("```text\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.split("$ ")[1:]:
        command, _, shown = chunk.partition("\n")
        examples.append((command, shown.rstrip("\n") + "\n"))
    return examples


def test_cli_block_covers_every_command():
    commands = [shlex.split(command)[1] for command, _ in _cli_examples()]
    assert sorted(set(commands)) == ["bench", "cf", "redei", "solve", "verify"]


# bench prints timings, which differ from run to run.
_UNTIMED = [(command, shown) for command, shown in _cli_examples() if " bench " not in command]


@pytest.mark.parametrize("command, shown", _UNTIMED, ids=[command for command, _ in _UNTIMED])
def test_cli_block_prints_what_it_shows(capsys, command, shown):
    command, _, pipe = command.partition(" | ")
    program, *argv = shlex.split(command)
    assert program == "pellredei"
    assert main(argv) == 0
    out = capsys.readouterr().out
    if pipe:
        assert pipe == "tail -1"
        out = out.splitlines(keepends=True)[-1]
    assert out == shown


def _library_block() -> str:
    text = README.read_text()
    after = text[text.index("## Library") :]
    return after.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_block_prints_what_its_comments_show():
    source = _library_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        shown = _SHOWN.search(lines[node.end_lineno - 1])
        if isinstance(node, ast.Expr) and shown:
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert repr(value) == shown.group(1), lines[node.lineno - 1]
            checked.append(shown.group(1))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert len(checked) >= 9, checked
