import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import lefkit.cli
import lefkit.exactmath
import lefkit.families
import lefkit.macaulay
from lefkit.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hilbert_narayana_text(capsys):
    code, out, _ = run(capsys, "hilbert", "--family", "sym-det", "--n", "3")
    assert code == 0
    assert "hilbert (1, 6, 6, 1)" in out


def test_hilbert_pfaffian(capsys):
    code, out, _ = run(capsys, "hilbert", "--family", "pfaffian", "--n", "4")
    assert code == 0
    assert "(1, 6, 1)" in out


def test_hilbert_rejects_odd_pfaffian(capsys):
    code, _, err = run(capsys, "hilbert", "--family", "pfaffian", "--n", "5")
    assert code == 2
    assert "even" in err


def test_hilbert_json_csv_same_numbers(tmp_path, capsys):
    jpath = tmp_path / "h.json"
    cpath = tmp_path / "h.csv"
    assert main(["hilbert", "--family", "sym-det", "--n", "2", "--power", "2",
                 "--format", "json", "--out", str(jpath)]) == 0
    assert main(["hilbert", "--family", "sym-det", "--n", "2", "--power", "2",
                 "--format", "csv", "--out", str(cpath)]) == 0
    payload = json.loads(jpath.read_text())
    assert payload["hilbert"] == [1, 3, 6, 3, 1]
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "degree,dim_R_i,rank,kernel_dim"
    csv_rows = [
        dict(zip(lines[0].split(","), (int(x) for x in line.split(","))))
        for line in lines[1:]
    ]
    assert csv_rows == payload["rows"]


def test_reports_byte_stable(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert main(["verify", "--family", "sym-det", "--n", "2", "--samples", "10",
                     "--seed", "7", "--format", "json", "--out", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_out_failed_write_keeps_existing_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "h.json"
    target.write_text("old report\n")

    def fail(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", fail)
    code, _, err = run(capsys, "hilbert", "--family", "sym-det", "--n", "2",
                       "--format", "json", "--out", str(target))
    assert code == 2 and "simulated rename failure" in err
    assert target.read_text() == "old report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["h.json"]


@pytest.mark.parametrize("target", ["missing/h.json", "."])
def test_out_write_error_names_the_given_path(tmp_path, target):
    """A missing parent directory and a directory target: two runs, in two
    processes, print the same message, naming the path as given, exit 2
    and leave no temporary file behind."""
    out = str(tmp_path / target)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "lefkit.cli", "hilbert", "--family", "sym-det",
            "--n", "2", "--out", out]
    runs = [subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
            for _ in range(2)]
    assert runs[0].stderr == runs[1].stderr
    for done in runs:
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.endswith(f"{out!r}\n")
    assert list(tmp_path.iterdir()) == []
    assert list(tmp_path.parent.glob(f"{tmp_path.name}.*.tmp")) == []


def test_slp_canonical_passes(capsys):
    code, out, _ = run(capsys, "slp", "--family", "sym-det", "--n", "3",
                       "--lefschetz", "canonical")
    assert code == 0
    assert "verdict true" in out


def test_slp_quadric_canonical(capsys):
    code, out, _ = run(capsys, "slp", "--family", "quadric", "--n", "4")
    assert code == 0


def test_slp_rank_deficient_file_fails(tmp_path, capsys):
    lpath = tmp_path / "rank2.json"
    lpath.write_text(json.dumps({"x11": "1", "x22": "1"}))
    code, out, _ = run(capsys, "slp", "--family", "sym-det", "--n", "3",
                       "--lefschetz-file", str(lpath))
    assert code == 1
    assert "verdict false" in out


def test_slp_file_with_rationals(tmp_path, capsys):
    lpath = tmp_path / "l.json"
    lpath.write_text(json.dumps({"x11": "3/2", "x12": "-1", "x22": "2"}))
    code, out, _ = run(capsys, "slp", "--family", "sym-det", "--n", "2",
                       "--lefschetz-file", str(lpath), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["L"] == {"x11": "3/2", "x12": "-1", "x22": "2"}


def test_slp_file_zero_denominator(capsys):
    code, out, err = run(capsys, "slp", "--family", "sym-det", "--n", "2",
                         "--lefschetz-file", '{"x12": "1/0"}')
    assert code == 2
    assert out == "" and "1/0" in err


def test_slp_file_inline_array_is_not_an_object(capsys):
    code, out, err = run(capsys, "slp", "--family", "sym-det", "--n", "2",
                         "--lefschetz-file", "[1,2]")
    assert code == 2
    assert out == "" and "must be a JSON object" in err


def test_slp_file_unknown_name(tmp_path, capsys):
    lpath = tmp_path / "l.json"
    lpath.write_text(json.dumps({"x13": "1"}))
    code, _, err = run(capsys, "slp", "--family", "sym-det", "--n", "2",
                       "--lefschetz-file", str(lpath))
    assert code == 2
    assert "unknown variable" in err


def test_verify_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--family", "sym-det", "--n", "2",
                       "--power", "2", "--samples", "50", "--seed", "7")
    assert code == 0
    assert "mismatches 0" in out


def test_verify_generic_det(capsys):
    code, out, _ = run(capsys, "verify", "--family", "generic-det", "--n", "2",
                       "--samples", "50", "--seed", "7")
    assert code == 0


def test_verify_rejects_negative_samples(capsys):
    code, out, err = run(capsys, "verify", "--family", "sym-det", "--n", "2",
                         "--samples", "-3")
    assert code == 2
    assert out == "" and "samples" in err


def test_verify_samples_count_against_budget(capsys):
    # sym-det n=2 s=2: the largest catalecticant has 36 cells
    argv = ["verify", "--family", "sym-det", "--n", "2", "--power", "2",
            "--budget", "300"]
    code, out, err = run(capsys, *argv, "--samples", "9")
    assert code == 3
    assert out == "" and "9 samples" in err and "324 cells" in err
    code, out, _ = run(capsys, *argv, "--samples", "8")
    assert code == 0 and "mismatches 0" in out


@pytest.mark.parametrize("command", ["verify", "predict"])
def test_verify_rejects_weights(capsys, command):
    code, _, err = run(capsys, command, "--family", "sym-det", "--n", "2",
                       "--weights", '{"x12": "2"}')
    assert code == 2
    assert "unit" in err


def test_predict_match(capsys):
    code, out, _ = run(capsys, "predict", "--family", "sym-det", "--n", "2",
                       "--power", "2")
    assert code == 0
    assert "match true" in out


def test_predict_narayana(capsys):
    code, out, _ = run(capsys, "predict", "--family", "sym-det", "--n", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted"] == payload["computed"] == [1, 6, 6, 1]
    assert payload["match"] is True


def test_predict_pfaffian(capsys):
    code, out, _ = run(capsys, "predict", "--family", "pfaffian", "--n", "4")
    assert code == 0
    assert "match true" in out


def test_hessian_command(capsys):
    code, out, _ = run(capsys, "hessian", "--family", "sym-det", "--n", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_nonzero"] is True
    assert payload["rows"][1]["det"] == "2"


def test_hessian_degenerate_point(tmp_path, capsys):
    lpath = tmp_path / "l.json"
    lpath.write_text(json.dumps({"x11": "1"}))
    code, out, _ = run(capsys, "hessian", "--family", "sym-det", "--n", "2",
                       "--lefschetz-file", str(lpath))
    assert code == 1
    assert "all_nonzero false" in out


def test_annihilator_command(capsys):
    code, out, _ = run(capsys, "annihilator", "--family", "sym-det", "--n", "2",
                       "--degree", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_R_i"] == 6 and payload["kernel_dim"] == 5
    assert len(payload["basis"]) == 5


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "hilbert", "--family", "sym-det", "--n", "3",
                       "--budget", "10")
    assert code == 3
    assert "budget" in err


def test_huge_instances_exit_too_large(capsys):
    # the cell counts have more digits than str() may print; still exit 3
    for argv in (("hilbert", "--family", "generic-det", "--n", "2000"),
                 ("verify", "--family", "sym-det", "--n", "2000", "--samples", "3")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: largest catalecticant needs at least 2^")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no int-to-str limit")
def test_hessian_determinant_too_long_to_print_exits_too_large(capsys):
    # x11 with 2,000 digits makes the degree-1 determinant far longer than
    # str() may print: a resource limit (exit 3), not an input error
    point = json.dumps({"x11": "9" * 2000, "x22": "1", "x33": "1"})
    code, out, err = run(capsys, "hessian", "--family", "sym-det", "--n", "3",
                         "--power", "2", "--lefschetz-file", point)
    assert code == 3 and out == ""
    assert err.startswith("error: Hessian determinant at degree 1 is too long")
    assert err.count("\n") == 1


def test_budget_env_var_is_ignored(monkeypatch, capsys):
    monkeypatch.setenv("LEFKIT_BUDGET", "1")
    code, out, _ = run(capsys, "hilbert", "--family", "sym-det", "--n", "3")
    assert code == 0 and "hilbert (1, 6, 6, 1)" in out
    code, _, err = run(capsys, "hilbert", "--family", "sym-det", "--n", "3",
                       "--budget", "10")
    assert code == 3 and "budget" in err


def test_every_family_name_is_accepted(capsys):
    for kind in lefkit.families.FamilyKind:
        code, out, _ = run(capsys, "hilbert", "--family", kind.value, "--n", "2")
        assert code == 0 and "hilbert (" in out


def test_asymmetric_hilbert_function_exit_code(monkeypatch, capsys):
    # each weight block's longer side: (2, 3, 2) for sym-det n=2, h_0 != 1
    monkeypatch.setattr(lefkit.macaulay, "dense_rank", lambda rows: len(rows[0]))
    code, out, err = run(capsys, "hilbert", "--family", "sym-det", "--n", "2")
    assert code == 4
    assert out == "" and "Gorenstein-symmetric" in err


def test_refused_family_symmetry_exit_code(monkeypatch, capsys):
    # x11 of weight e_1: F = x11 x22 - x12^2 is not weight-homogeneous
    def bad_symmetry(spec):
        symmetry = lefkit.families.family_symmetry(spec)
        return dataclasses.replace(symmetry, weights=((1, 0),) + symmetry.weights[1:])

    monkeypatch.setattr("lefkit.cli.family_symmetry", bad_symmetry)
    code, out, err = run(capsys, "hilbert", "--family", "sym-det", "--n", "2")
    assert code == 4
    assert out == "" and "not homogeneous" in err


def test_inexact_bareiss_step_exit_code(monkeypatch, capsys):
    # every division of the elimination now leaves a remainder; at s = 1
    # every block is 1x1 and needs no division, so take s = 2
    monkeypatch.setattr(lefkit.exactmath, "divmod", lambda a, b: (a // b, 1),
                        raising=False)
    code, out, err = run(capsys, "hessian", "--family", "sym-det", "--n", "2",
                         "--power", "2")
    assert code == 4
    assert out == "" and "integrality" in err


def test_inexact_dense_rank_step_exit_code(monkeypatch, capsys):
    # the symmetric path ranks its weight blocks with dense_rank, whose
    # divisions go through the same divmod
    monkeypatch.setattr(lefkit.exactmath, "divmod", lambda a, b: (a // b, 1),
                        raising=False)
    code, out, err = run(capsys, "hilbert", "--family", "sym-det", "--n", "3",
                         "--power", "2")
    assert code == 4
    assert out == "" and "lost integrality" in err


def test_weights_override_keeps_hilbert(capsys):
    code, out, _ = run(capsys, "hilbert", "--family", "sym-det", "--n", "2",
                       "--weights", '{"x12": "2"}')
    assert code == 0
    assert "(1, 3, 1)" in out


def test_weights_file_read_once(capsys, monkeypatch, tmp_path):
    # hilbert uses the weights for F and for its path choice, and predict
    # checks them before it builds F: each reads the file once
    reads = []

    def counting_open(file, *args, **kwargs):
        reads.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(lefkit.cli, "open", counting_open, raising=False)
    for cmd, weights in (("hilbert", '{"x12": "2"}'), ("predict", '{"x12": "1"}')):
        path = tmp_path / f"{cmd}.json"
        path.write_text(weights)
        reads.clear()
        code, _, _ = run(capsys, cmd, "--family", "sym-det", "--n", "2",
                         "--weights", str(path))
        assert code == 0 and reads == [str(path)], cmd


def test_weights_zero_denominator(capsys):
    code, out, err = run(capsys, "hilbert", "--family", "sym-det", "--n", "2",
                         "--weights", '{"x12": "1/0"}')
    assert code == 2
    assert out == "" and "1/0" in err


def test_weights_inline_array_is_not_an_object(capsys):
    code, out, err = run(capsys, "hilbert", "--family", "sym-det", "--n", "2",
                         "--weights", "[1,2]")
    assert code == 2
    assert out == "" and "must be a JSON object" in err


def test_deeply_nested_json_is_input_error(capsys, tmp_path):
    # json.loads raises RecursionError on these, which must not escape as
    # a traceback (exit 1, the verified-false code)
    deep = "[" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for option, value, what in (("--weights", deep, "weights"),
                                ("--lefschetz-file", str(path), "Lefschetz")):
        code, out, err = run(capsys, "slp", "--family", "sym-det", "--n", "2",
                             option, value)
        assert code == 2 and out == "", option
        assert err.startswith(f"error: {what}") and "nested too deeply" in err


COMMANDS = [
    ("hilbert",), ("slp",), ("verify",), ("predict",), ("hessian",),
    ("annihilator", "--degree", "1"),
]


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_inputs_are_checked_in_one_order(capsys, monkeypatch, command):
    # Every command decodes its JSON options first (malformed: exit 2),
    # then holds the instance to the budget (exit 3, before the 4M-name
    # layout of generic-det 2000 is built), then resolves the names (an
    # unknown one: exit 2).
    options = ["--weights"]
    if command[0] in ("slp", "hessian"):
        options.append("--lefschetz-file")

    def refuse(spec):
        raise AssertionError("the layout was built")

    huge = [*command, "--family", "generic-det", "--n", "2000"]
    for option in options:
        monkeypatch.setattr(lefkit.families.FamilySpec, "layout", property(refuse))
        code, out, err = run(capsys, *huge, option, '{"x1_1": ')
        assert code == 2 and out == "", option
        code, out, err = run(capsys, *huge, option, '{"x1_1": "1"}')
        assert code == 3 and out == "" and "budget" in err, option
        monkeypatch.undo()
        code, out, err = run(capsys, *command, "--family", "sym-det", "--n", "2",
                             option, '{"x1_1": "1"}')
        assert code == 2 and out == "" and "unknown variable 'x1_1'" in err, option


def test_usage_error_is_input_error(capsys):
    assert main(["hilbert", "--family", "sym-det"]) == 2
    assert main(["nonsense"]) == 2


def test_seed_and_samples_only_on_the_commands_that_read_them(capsys):
    code, out, err = run(capsys, "hilbert", "--family", "sym-det", "--n", "2",
                         "--samples", "3")
    assert code == 2 and out == "" and "--samples" in err
    code, out, err = run(capsys, "annihilator", "--family", "sym-det", "--n", "2",
                         "--degree", "1", "--seed", "1")
    assert code == 2 and out == "" and "--seed" in err


def test_random_lefschetz_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert main(["slp", "--family", "sym-det", "--n", "2", "--lefschetz",
                     "random", "--seed", "5", "--format", "json",
                     "--out", str(p)]) in (0, 1)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_one_parser_per_process_carries_nothing_between_calls(capsys, monkeypatch):
    # A parse error, then verify with --seed 3, then slp with a random L
    # and no --seed: the slp report must be the one of seed 0.  Run once on
    # a fresh parser per call, then twice on the kept one.
    calls = [
        ("verify", "--family", "sym-det", "--n", "3", "--samples", "many"),
        ("verify", "--family", "sym-det", "--n", "3", "--power", "2",
         "--samples", "5", "--seed", "3", "--format", "json"),
        ("slp", "--family", "sym-det", "--n", "3", "--power", "2",
         "--lefschetz", "random", "--format", "json"),
    ]
    kept = lefkit.cli.build_parser
    assert kept() is kept()
    with monkeypatch.context() as patch:
        patch.setattr(lefkit.cli, "build_parser", kept.__wrapped__)
        fresh = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in fresh] == [2, 0, 0]
    assert "--samples" in fresh[0][2]
    assert json.loads(fresh[1][1])["seed"] == 3
    for argv in calls[1:]:
        assert vars(kept().parse_args(argv)) == vars(kept.__wrapped__().parse_args(argv))
    assert [run(capsys, *argv) for argv in calls * 2] == fresh * 2
    seeded = run(capsys, *calls[2], "--seed", "3")
    assert seeded != fresh[2]  # so a carried-over seed would show


def _workflow_commands(text: str) -> list[list[str]]:
    """The argv of each literal ``lefkit ...`` command in a workflow file.
    Comment lines are dropped, the lines of a ``>-`` folded block are joined
    with spaces, and so are lines continued with a backslash; a command
    ends at ``|``, ``;``, ``)`` or a line end, and one that holds a shell
    variable (``$``) is skipped."""
    lines: list[str] = []
    folded_indent = None
    for line in text.splitlines():
        indent, stripped = len(line) - len(line.lstrip()), line.strip()
        if folded_indent is not None and stripped and indent > folded_indent:
            lines[-1] += " " + stripped
            continue
        folded_indent = indent if stripped.endswith(">-") else None
        if not stripped.startswith("#"):
            lines.append(stripped)
    joined = "\n".join(lines).replace("\\\n", " ")
    return [
        shlex.split(command)
        for command in re.findall(r"\blefkit ([^|;)\n]*)", joined)
        if "$" not in command
    ]


def test_every_ci_command_parses():
    workflow = ROOT / ".github" / "workflows" / "tests.yml"
    commands = _workflow_commands(workflow.read_text(encoding="utf-8"))
    assert len(commands) >= 20  # the extraction found the CI's commands
    parser = lefkit.cli.build_parser()
    refused = []
    for argv in commands:
        try:
            assert parser.parse_args(argv).command == argv[0]
        except SystemExit:
            refused.append(" ".join(argv))
    assert refused == []
