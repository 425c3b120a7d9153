import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lefkit

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    """Each name of ``__all__`` is listed once in the export table and is
    the object its home module holds."""
    homes = {name: module for module, names in lefkit._EXPORTS.items() for name in names}
    assert sorted(homes) == lefkit.__all__
    assert sum(map(len, lefkit._EXPORTS.values())) == len(homes)
    for name, module in homes.items():
        home = importlib.import_module(f"lefkit.{module}")
        assert getattr(lefkit, name) is getattr(home, name) is not None, name


def test_dir_lists_every_export():
    assert set(lefkit.__all__) <= set(dir(lefkit))


def test_star_import_binds_every_export():
    scope: dict = {}
    exec("from lefkit import *", scope)
    assert {name: scope[name] for name in lefkit.__all__} == {
        name: getattr(lefkit, name) for name in lefkit.__all__
    }


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lefkit.no_such_name
    assert not hasattr(lefkit, "no_such_name")


_PROBE = """\
import contextlib, io, json, sys
data, result = json.load(sys.stdin), None
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    {code}
print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "lefkit"), result]))
"""


def _loaded(code: str, data=None) -> tuple[set[str], object]:
    """The lefkit modules a fresh interpreter has loaded after one line of
    ``code``, and the value it leaves in ``result``; ``data`` reaches it as
    JSON on stdin."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", _PROBE.format(code=code)], env=env,
                         cwd=ROOT, input=json.dumps(data), capture_output=True,
                         text=True, check=True).stdout
    modules, result = json.loads(out)
    return set(modules), result


def test_bare_import_loads_no_submodule():
    assert _loaded("import lefkit")[0] <= {"lefkit", "lefkit.errors"}
    modules, result = _loaded("import lefkit; result = lefkit.macaulay.__name__")
    assert result == "lefkit.macaulay" and "lefkit.lefschetz" not in modules


def test_families_loads_no_rank_engine():
    assert _loaded("import lefkit.families")[0] == {
        "lefkit", "lefkit.errors", "lefkit.polyring", "lefkit.families",
    }


@pytest.mark.parametrize("argv", [
    ["hilbert", "--family", "sym-det", "--n", "2"],
    ["predict", "--family", "sym-det", "--n", "2"],
    ["annihilator", "--family", "sym-det", "--n", "2", "--degree", "1"],
])
def test_commands_without_lefschetz_never_load_it(argv):
    modules, code = _loaded("import lefkit.cli; result = lefkit.cli.main(data)", argv)
    assert code == 0
    assert "lefkit.macaulay" in modules and "lefkit.lefschetz" not in modules


@pytest.mark.parametrize("argv", [
    ["slp", "--family", "sym-det", "--n", "2", "--samples", "3"],
    ["hessian", "--family", "sym-det", "--n", "0"],
    ["verify", "--family", "sym-det", "--n", "2", "--weights", "[" * 100_000],
])
def test_argument_error_loads_no_rank_engine(argv):
    modules, code = _loaded("import lefkit.cli; result = lefkit.cli.main(data)", argv)
    assert code == 2
    assert not modules & {"lefkit.exactmath", "lefkit.macaulay", "lefkit.lefschetz"}


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
