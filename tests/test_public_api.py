import ast
import re
from pathlib import Path

import lefkit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    for name in lefkit.__all__:
        assert getattr(lefkit, name) is not None, name


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library")) + len("```python\n")
    return text[start:text.index("\n```", start)]


def test_readme_library_block_runs_and_gives_its_values():
    """The block runs as written, and every expression whose comment starts
    with a literal (`# True`, `# 0`, `# (1, 6, ...)`) gives that value."""
    block = _library_block()
    lines = block.splitlines()
    scope: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        code = ast.Module(body=[stmt], type_ignores=[])
        if not isinstance(stmt, ast.Expr):
            exec(compile(code, "README.md", "exec"), scope)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope)
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        literal = re.match(r"#\s*(True|False|-?\d+|\([-\d, ]*\))", comment)
        if literal:
            assert value == ast.literal_eval(literal.group(1)), lines[stmt.lineno - 1]
            checked += 1
    assert checked >= 5
