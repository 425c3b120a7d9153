"""Self-test of the benchmark on tiny instances.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402
from layers import TARGETS, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {
    "hilbert": (("sym-det", 2, 1, (1, 3, 1)), ("quadric", 3, 1, (1, 3, 1))),
    "verify": (("sym-det", 2, 1, 5), ("quadric", 3, 1, 5)),
    "hessian": (("sym-det", 2, 1, "canonical"), ("sym-det", 2, 1, "deficient")),
}
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_every_workload_has_tiny_instances():
    assert set(TINY) == set(workloads.INSTANCES) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_reports_every_metric_with_its_unit(workload, trace, section):
    result, failures, _ = run.measure(workload, 3, 0, trace, TINY[workload])
    assert failures == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[section]}


def test_wrong_expected_answer_counts_as_failed():
    wrong = (("sym-det", 2, 1, (1, 2, 1)), TINY["hilbert"][1])
    result, failures, _ = run.measure("hilbert", 3, 0, True, wrong)
    assert not result["correct"]
    assert (result["failed"], result["attempted"]) == (2, 4)
    assert all("sym-det --n 2" in note for note in failures)


def test_raising_task_counts_as_failed(monkeypatch):
    from lefkit import macaulay

    def broken(f, i, weights=None):
        raise ArithmeticError("fraction-free step lost integrality")

    monkeypatch.setattr(macaulay, "catalecticant", broken)
    result, failures, _ = run.measure("hilbert", 3, 0, True, TINY["hilbert"])
    assert (result["failed"], result["attempted"]) == (4, 4)
    assert "ArithmeticError" in failures[0]
    assert result["metrics"]["macaulay.catalecticant.calls"]["value"] == 2
    assert result["metrics"]["macaulay.catalecticant.cells"]["value"] == 0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_layer_counts_repeat_for_a_seed(workload):
    def counts():
        result, _, _ = run.measure(workload, 5, 0, True, TINY[workload])
        return {name: m["value"] for name, m in result["metrics"].items()
                if m["unit"] == "count"}

    first = counts()
    assert first["polyring.contract.calls"] > 0
    assert first == counts()


def test_rank_path_accounting():
    workloads.load_lefkit()
    from lefkit import exactmath, macaulay
    from lefkit.exactmath import RatMatrix

    original = exactmath.mat_rank
    tracer = Tracer()
    tracer.install([t for t in TARGETS if t[0] == "exactmath"])
    try:
        assert macaulay.mat_rank is exactmath.mat_rank is not original
        assert macaulay.mat_rank(RatMatrix.from_rows([[1, 2], [2, 4], [0, 0]])) == 1
        assert exactmath.mat_rank(RatMatrix.from_rows([[1, 2], [3, 4]])) == 2
    finally:
        tracer.uninstall()
    assert macaulay.mat_rank is exactmath.mat_rank is original

    metrics = {name: v for name, (v, _) in layer_metrics(tracer, 1.0, 1.0).items()}
    assert metrics["exactmath.mat_rank.calls"] == 2
    assert metrics["exactmath.probe.calls"] == 2
    assert metrics["exactmath.probe.hits"] == 1
    assert metrics["exactmath.probe.hit_ratio"] == 0.5
    assert metrics["exactmath.fallback.calls"] == 1
    assert metrics["exactmath.fallback.cells"] == 6
    assert 0 < metrics["exactmath.fallback.s"] < metrics["exactmath.mat_rank.self_s"] + 1e-3


def test_trace_file_folds_hot_spans(monkeypatch):
    monkeypatch.setattr(tracer_module, "HOT_SPANS", 10)
    result, _, _ = run.measure("hessian", 3, 0, True, TINY["hessian"])
    trace = json.loads(
        (run.TRACE_DIR / "trace-hessian-seed3.json").read_text())
    folded = sum(f["calls"] for f in trace["folded"] if f["name"] == "polyring.contract")
    calls = folded + sum(s["name"] == "polyring.contract" for s in trace["spans"])
    assert folded > 0
    assert calls == result["metrics"]["polyring.contract.calls"]["value"]
    assert {s["name"] for s in trace["spans"] if s["parent"] == -1} == {"cli.main"}


def test_sampler_times_the_kernel_and_keeps_its_own_time_out():
    import signal

    import speed

    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    sampler.start()
    start = perf_counter()
    while perf_counter() - start < 3.5 * speed.INTERVAL_S:
        pass
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.samples) >= 4  # one at each end, three or more between
    assert 0 < sampler.spent < perf_counter() - start
    assert sampler.scale() > 0
