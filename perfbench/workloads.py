"""Workload inputs and answer checks for the lefkit benchmark.

Each workload is a fixed list of ``lefkit`` CLI invocations.  The benchmark
seed only picks what the program would otherwise pick at random: the
modular-probe prime (through the global ``random`` module, seeded before
each task), the sampled linear forms of ``verify``, and which rank-deficient
L ``hessian`` checks.  So every seed does about the same work, and every
answer is known before the program runs.

Run as a script it prints one workload's tasks, one JSON object a line:

    python3 perfbench/workloads.py hessian 7
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# (family, n, s, expected Hilbert function).  Both middle catalecticants are
# rank-deficient, so the modular probe cannot settle them and the exact
# (Bareiss) fallback runs.
HILBERT = (
    ("sym-det", 3, 4, (1, 6, 21, 56, 126, 186, 209, 186, 126, 56, 21, 6, 1)),
    ("generic-det", 3, 2, (1, 9, 45, 65, 45, 9, 1)),
)
# (family, n, s, samples): one F checked against many linear forms.
VERIFY = (
    ("sym-det", 3, 2, 50),
    ("pfaffian", 6, 1, 50),
)
# (family, n, s, L): "canonical" or "deficient" (one of the family's
# rank-deficient candidates, chosen by the seed; its verdict is false).
HESSIAN = (
    ("sym-det", 3, 3, "canonical"),
    ("generic-det", 3, 2, "canonical"),
    ("generic-det", 3, 2, "deficient"),
)
INSTANCES = {"hilbert": HILBERT, "verify": VERIFY, "hessian": HESSIAN}


@dataclass(frozen=True)
class Task:
    """One CLI call: its arguments (without ``--format``), the seed of the
    global ``random`` module for the call, and what the report must say."""

    argv: tuple[str, ...]
    random_seed: int
    expect: object

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def load_lefkit():
    """Import lefkit from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "lefkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lefkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lefkit

    if Path(lefkit.__file__).resolve().parent != SRC / "lefkit":
        raise SystemExit(f"perfbench: lefkit imported from {lefkit.__file__}")
    return lefkit


def build(workload: str, seed: int, instances=None) -> list[Task]:
    """The workload's tasks for ``seed``; ``instances`` replaces the
    workload's instance table (the self-test uses tiny ones)."""
    load_lefkit()
    from lefkit.families import (
        FamilySpec,
        canonical_lefschetz,
        deficient_candidates,
        kind_from_name,
        orbit_test,
    )

    rng = random.Random(seed)
    tasks = []
    for family, n, s, extra in instances or INSTANCES[workload]:
        argv = [workload, "--family", family, "--n", str(n), "--power", str(s)]
        spec = FamilySpec(kind_from_name(family), n, s)
        if workload == "hilbert":
            expect = list(extra)
        elif workload == "verify":
            argv += ["--samples", str(extra), "--seed", str(rng.randrange(1 << 31))]
            expect = extra + len(deficient_candidates(spec)) + 1
        elif extra == "canonical":
            expect = orbit_test(spec, canonical_lefschetz(spec))
        else:
            candidates = deficient_candidates(spec)
            L = candidates[rng.randrange(len(candidates))]
            coeffs = {
                name: str(v)
                for name, v in zip(spec.layout, L.linear_coefficients())
                if v
            }
            argv += ["--lefschetz-file", json.dumps(coeffs, sort_keys=True)]
            expect = orbit_test(spec, L)
        tasks.append(Task(tuple(argv), rng.getrandbits(64), expect))
    return tasks


def check(task: Task, code: int, report: dict) -> str | None:
    """None when the report is right, else what is wrong with it."""
    command = task.argv[0]
    if command == "hilbert":
        if report["hilbert"] != task.expect or code != 0:
            return f"hilbert {report['hilbert']} (exit {code}), expected {task.expect}"
    elif command == "verify":
        if report["mismatches"] != 0 or len(report["rows"]) != task.expect or code != 0:
            return (f"{report['mismatches']} mismatches over {len(report['rows'])} "
                    f"candidates (exit {code}), expected 0 over {task.expect}")
    elif report["all_nonzero"] != task.expect or code != (0 if task.expect else 1):
        return f"all_nonzero {report['all_nonzero']} (exit {code}), orbit test says {task.expect}"
    return None


if __name__ == "__main__":
    for task in build(sys.argv[1], int(sys.argv[2])):
        print(json.dumps({"argv": task.argv, "random_seed": task.random_seed,
                          "expect": task.expect}))
