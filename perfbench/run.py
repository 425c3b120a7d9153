"""lefkit benchmark: one workload, one client, closed loop.

    python3 perfbench/run.py --workload hilbert --seed 1 --seconds 40 --trace 0

The workload's tasks run through ``lefkit.cli.main([..., "--format",
"json"])`` in this process, one after another; each starts when the previous
one ends.  Every report is checked.  With ``--trace 0`` whole passes over
the tasks repeat while another pass is expected to end within ``--seconds``
(there is at least one pass), and the end-to-end metrics are reported.
With ``--trace 1`` one untraced pass is followed by one traced pass,
whatever ``--seconds`` says, so that the per-layer counts are those of
exactly one pass.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from layers import TARGETS, layer_metrics
import speed
from tracer import Tracer

SETUP_SPAWNS = 15
TRACE_DIR = workloads.ROOT / ".bench_build" / "perfbench"


def run_task(cli, task: workloads.Task, sampler: speed.Sampler | None = None
             ) -> tuple[float, float | None, str | None]:
    """Seconds spent in the CLI call (less the sampler's own time), those
    seconds at the reference speed (None without a sampler), and what was
    wrong with the report."""
    random.seed(task.random_seed)
    out = io.StringIO()
    error = None
    if sampler is not None:
        sampler.start()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main([*task.argv, "--format", "json"])
    except Exception as exc:  # a raising task is a failed task, not a crash
        error = f"raised {exc!r}"
    elapsed = perf_counter() - start
    ref = None
    if sampler is not None:
        sampler.stop()
        elapsed -= sampler.spent
        ref = elapsed * sampler.scale()
    if error is None:
        try:
            error = workloads.check(task, code, json.loads(out.getvalue()))
        except (ValueError, KeyError, TypeError) as exc:
            error = f"exit {code}, unreadable report: {exc!r}"
    return elapsed, ref, error


def run_pass(cli, tasks, durations, failures, tracer: Tracer | None = None) -> None:
    """One pass over the tasks; appends (seconds, reference seconds) to each
    task's list.  Untraced passes sample the machine's speed; traced ones
    do not, so that no sampler time lands in a lefkit span."""
    sampler = speed.Sampler() if tracer is None else None
    for task, times in zip(tasks, durations):
        if tracer is not None:
            tracer.task = task.label
        elapsed, ref, error = run_task(cli, task, sampler)
        times.append((elapsed, ref))
        if error is not None:
            failures.append(f"{task.label}: {error}")


def pass_seconds(durations, column: int = 0) -> float:
    """Time of one pass: the sum over tasks of each task's median time;
    column 0 is wall time, 1 wall time at the reference speed."""
    return sum(statistics.median(t[column] for t in times) for times in durations)


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median time to start a fresh interpreter, import lefkit and build
    the workload's inputs, as measured and at the reference speed (the
    kernel is timed just before and just after each spawn)."""
    def spawn():
        subprocess.run([sys.executable, str(Path(workloads.__file__)), workload, str(seed)],
                       cwd=workloads.ROOT, stdout=subprocess.DEVNULL, check=True)

    # The spawns run on the CPU the kernel is timed on: the two may differ
    # in speed at any moment.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        spawn()  # untimed warm-up: brings the interpreter and lefkit files into the page cache
        times, ref_times = [], []
        for _ in range(SETUP_SPAWNS):
            before = speed.probe()
            start = perf_counter()
            spawn()
            elapsed = perf_counter() - start
            times.append(elapsed)
            ref_times.append(elapsed * speed.REF_KERNEL_S * 2 / (before + speed.probe()))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(times), statistics.median(ref_times)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            instances=None) -> tuple[dict, list[str], dict]:
    """Run one workload; returns the result object, the failure notes and
    the times as measured, before rescaling to the reference speed."""
    workloads.load_lefkit()
    from lefkit import cli

    setup, setup_ref = (None, None) if trace else setup_seconds(workload, seed)
    tasks = workloads.build(workload, seed, instances)
    durations = [[] for _ in tasks]
    failures: list[str] = []
    start = perf_counter()
    run_pass(cli, tasks, durations, failures)
    passes = 1
    # Untraced, start another pass only if it should end within --seconds.
    while not trace and (perf_counter() - start) * (passes + 1) / passes <= seconds:
        run_pass(cli, tasks, durations, failures)
        passes += 1
    attempted = sum(len(times) for times in durations)

    if trace:
        traced = [[] for _ in tasks]
        tracer = Tracer()
        tracer.install(TARGETS)
        try:
            run_pass(cli, tasks, traced, failures, tracer)
        finally:
            tracer.uninstall()
        attempted += len(tasks)
        metrics = layer_metrics(tracer, pass_seconds(traced), pass_seconds(durations))
        tracer.write(TRACE_DIR / f"trace-{workload}-seed{seed}.json",
                     {"workload": workload, "seed": seed})
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        metrics = {
            "wall_ref_s": (pass_seconds(durations, 1), "s"),
            "setup_s": (setup_ref, "s"),
            "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    measured = {"wall_s": pass_seconds(durations)}
    if setup is not None:
        measured["setup_wall_s"] = setup
    return result, failures, measured


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.INSTANCES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, failures, measured = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in failures:
        print(f"FAILED {note}")
    for name, value in measured.items():
        print(f"{name} {value} s (as measured)")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(f"failed_frac {result['failed'] / result['attempted']} "
          f"({result['failed']} of {result['attempted']} tasks)")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
