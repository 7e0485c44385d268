"""The README's library tour runs as printed, and each value its comments
state in quotes is the value its line computes."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# a comment that states the value of its line: `expr  # 'value' ...`
STATED = re.compile(r"#\s*('[^']*')")


def test_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    lines = block.splitlines()
    ns, checked = {}, []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), ns)
            continue
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns)
        stated = STATED.search(lines[stmt.end_lineno - 1])
        if stated:
            assert got == ast.literal_eval(stated.group(1)), lines[stmt.end_lineno - 1]
            checked.append(got)
    # the derivative's rendering and both locus verdicts
    assert len(checked) == 3
