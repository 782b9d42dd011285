"""The README's Library block runs, and every value it shows is the one it gives."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# A comment that opens with a repr; any words after it explain the line.
_SHOWN = re.compile(r"#\s*((?:PellSolution|HyperbolaPoint|Fraction)\([^()]*\)|INF\b|-?\d+\b)")


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
