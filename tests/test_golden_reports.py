"""Replay recorded CLI invocations: exit codes and stdout must match byte
for byte.

``golden_reports.json`` holds one entry per invocation (argv, exit code,
stdout); stderr is not recorded.  When a report format changes on purpose,
re-record it with ``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from lefkit.cli import main
from lefkit.families import FamilySpec, kind_from_name

GOLDEN = Path(__file__).with_name("golden_reports.json")
INSTANCES = [("sym-det", 2, 2), ("generic-det", 2, 2), ("pfaffian", 4, 1),
             ("quadric", 4, 2)]
FORMATS = ["json", "text", "csv"]


def invocations() -> list[list[str]]:
    argvs = []
    for family, n, s in INSTANCES:
        layout = FamilySpec(kind_from_name(family), n, s).layout
        base = ["--family", family, "--n", str(n), "--power", str(s)]
        lefschetz_file = json.dumps({layout[0]: "3/2", layout[1]: "-1"})
        weights = json.dumps({
            name: f"{k % 4 + 1}/{k % 3 + 1}" for k, name in enumerate(layout)
        })
        for fmt in FORMATS:
            out = base + ["--format", fmt]
            argvs.append(["hilbert"] + out)
            argvs.append(["verify"] + out + ["--samples", "6", "--seed", "7"])
            argvs.append(["predict"] + out)
            for cmd in ("slp", "hessian"):
                argvs.append([cmd] + out)
                argvs.append([cmd] + out + ["--lefschetz", "random", "--seed", "5"])
                argvs.append([cmd] + out + ["--lefschetz-file", lefschetz_file])
            for degree in ("1", "2"):
                argvs.append(["annihilator"] + out + ["--degree", degree])
        for cmd in ("hilbert", "slp", "hessian"):
            argvs.append([cmd] + base + ["--format", "json", "--weights", weights])
        argvs.append(["annihilator"] + base + ["--format", "json", "--degree", "1",
                                               "--weights", weights])
    for family, n, s in [("sym-det", 3, 2), ("pfaffian", 6, 1)]:
        out = ["hessian", "--family", family, "--n", str(n), "--power", str(s),
               "--format", "json"]
        argvs += [out, out + ["--lefschetz", "random", "--seed", "5"]]
    sym = ["--family", "sym-det", "--n", "2"]
    argvs += [
        ["hilbert", "--family", "sym-det", "--n", "3", "--budget", "10"],
        ["verify"] + sym + ["--samples", "-3"],
        ["hilbert"] + sym + ["--weights", '{"x11": '],
        ["slp"] + sym + ["--lefschetz-file", '{"x11": '],
        ["slp"] + sym + ["--lefschetz-file", "[1,2]"],
        ["hilbert"] + sym + ["--weights", "[1,2]"],
    ]
    return argvs


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]))
def test_report_matches_golden(case):
    assert run(case["argv"]) == (case["exit"], case["stdout"])


if __name__ == "__main__":
    records = []
    for argv in invocations():
        code, stdout = run(argv)
        records.append({"argv": argv, "exit": code, "stdout": stdout})
    lines = ",\n".join(json.dumps(record) for record in records)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
