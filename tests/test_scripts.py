import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv,expected", [
    (["scripts/theorem_grid.py", "--samples", "2"], "total mismatches: 0"),
    (["scripts/hilbert_table.py", "--max-n", "4", "--max-s", "3"], "ok"),
])
def test_script_runs(argv, expected):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout
