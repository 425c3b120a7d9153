"""What the traced run wraps in lefkit, and the per-layer metrics it reports.

Layers are lefkit's modules.  ``reptheory`` is left out on purpose: its one
costly command, ``predict``, is a ``hilbert`` run plus a closed-form sum.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from tracer import END, INFO, NAME, PARENT, START, Tracer

LAYERS = ("families", "polyring", "macaulay", "exactmath", "lefschetz", "cli")
PROBE = "exactmath.mat_rank_modular_probe"

# (module, public function, info extracted from (args, result) or None)
TARGETS = (
    ("cli", "main", None),
    ("families", "make_invariant", None),
    ("families", "orbit_test", None),
    ("macaulay", "hilbert_function", None),
    ("macaulay", "catalecticant",
     lambda args, cat: (cat.matrix.rows * cat.matrix.cols, cat.matrix.nnz())),
    ("lefschetz", "verify_theorem", None),
    ("lefschetz", "required_ranks", None),
    ("lefschetz", "slp_check", None),
    ("lefschetz", "hessian_determinants_at", None),
    ("lefschetz", "higher_hessian", lambda args, rows: sum(len(r) for r in rows)),
    ("polyring", "poly_pow", None),
    ("polyring", "poly_mul", None),
    ("polyring", "contract", lambda args, p: p.term_count()),
    ("exactmath", "mat_rank", lambda args, rank: (args[0].rows, args[0].cols)),
    ("exactmath", "mat_rank_modular_probe", lambda args, rank: rank),
    ("exactmath", "pivot_rows", None),
    ("exactmath", "mat_det", None),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass, as ``{name: (value, unit)}``.

    ``.s`` is time inside a function's spans, ``.self_s`` that time minus
    the time of its traced callees.  A ``mat_rank`` call is a probe hit
    when its modular probe returned min(rows, cols); every other call
    (probe short of full rank, or BadPrimeError) is a fallback, whose time
    is the call's time minus its probe's.
    """
    spans, own = tracer.spans, tracer.self_times()
    calls, total, self_s, info = Counter(), defaultdict(float), defaultdict(float), defaultdict(int)
    for k, s in enumerate(spans):
        name = s[NAME]
        calls[name] += 1
        total[name] += s[END] - s[START]
        self_s[name] += own[k]
        if s[INFO] is None:  # not extracted, or the call raised
            continue
        if name == "macaulay.catalecticant":
            info["cells"] += s[INFO][0]
            info["nnz"] += s[INFO][1]
        elif name == "polyring.contract":
            info["terms_out"] += s[INFO]
        elif name == "lefschetz.higher_hessian":
            info["entries"] += s[INFO]

    probe_of = {s[PARENT]: s for s in spans if s[NAME] == PROBE}
    hits = fallback_calls = fallback_cells = 0
    fallback_s = 0.0
    for k, s in enumerate(spans):
        if s[NAME] != "exactmath.mat_rank":
            continue
        rows, cols = s[INFO] or (0, 0)  # no info: the call raised
        probe = probe_of.get(k)
        if probe is not None and probe[INFO] == min(rows, cols):
            hits += 1
            continue
        fallback_calls += 1
        fallback_cells += rows * cols
        fallback_s += s[END] - s[START] - (probe[END] - probe[START] if probe else 0.0)

    layer_self = defaultdict(float)
    for name, t in self_s.items():
        layer_self[name.split(".")[0]] += t
    covered = sum(layer_self[layer] for layer in LAYERS)

    count, secs, ratio = "count", "s", "ratio"
    metrics = {
        "exactmath.fallback.calls": (fallback_calls, count),
        "exactmath.fallback.s": (fallback_s, secs),
        "exactmath.fallback.cells": (fallback_cells, count),
        "exactmath.probe.calls": (calls[PROBE], count),
        "exactmath.probe.s": (total[PROBE], secs),
        "exactmath.probe.hits": (hits, count),
        "exactmath.probe.hit_ratio": (_ratio(hits, calls[PROBE]), ratio),
        "exactmath.mat_rank.calls": (calls["exactmath.mat_rank"], count),
        "exactmath.mat_rank.self_s": (self_s["exactmath.mat_rank"], secs),
        "exactmath.pivot_rows.calls": (calls["exactmath.pivot_rows"], count),
        "exactmath.pivot_rows.s": (total["exactmath.pivot_rows"], secs),
        "exactmath.mat_det.calls": (calls["exactmath.mat_det"], count),
        "exactmath.mat_det.s": (total["exactmath.mat_det"], secs),
        "macaulay.catalecticant.calls": (calls["macaulay.catalecticant"], count),
        "macaulay.catalecticant.self_s": (self_s["macaulay.catalecticant"], secs),
        "macaulay.catalecticant.cells": (info["cells"], count),
        "macaulay.catalecticant.nnz": (info["nnz"], count),
        "macaulay.catalecticant.density": (_ratio(info["nnz"], info["cells"]), ratio),
        "polyring.contract.calls": (calls["polyring.contract"], count),
        "polyring.contract.self_s": (self_s["polyring.contract"], secs),
        "polyring.contract.terms_out": (info["terms_out"], count),
        "polyring.poly_pow.s": (total["polyring.poly_pow"], secs),
        "polyring.poly_mul.calls": (calls["polyring.poly_mul"], count),
        "polyring.poly_mul.self_s": (self_s["polyring.poly_mul"], secs),
        "lefschetz.slp_check.calls": (calls["lefschetz.slp_check"], count),
        "lefschetz.slp_check.self_s": (self_s["lefschetz.slp_check"], secs),
        "lefschetz.required_ranks.s": (total["lefschetz.required_ranks"], secs),
        "lefschetz.higher_hessian.calls": (calls["lefschetz.higher_hessian"], count),
        "lefschetz.higher_hessian.self_s": (self_s["lefschetz.higher_hessian"], secs),
        "lefschetz.higher_hessian.entries": (info["entries"], count),
        "lefschetz.hessian_determinants_at.self_s":
            (self_s["lefschetz.hessian_determinants_at"], secs),
        "families.make_invariant.s": (total["families.make_invariant"], secs),
        "families.orbit_test.s": (total["families.orbit_test"], secs),
        "cli.main.self_s": (self_s["cli.main"], secs),
    }
    for layer in LAYERS[:-1]:  # cli's only target is main, reported above
        metrics[f"{layer}.self_s"] = (layer_self[layer], secs)
    metrics.update({
        "trace.wall_s": (traced_wall, secs),
        "trace.overhead_s": (traced_wall - untraced_wall, secs),
        "trace.coverage": (_ratio(covered, traced_wall), ratio),
        "trace.spans": (len(spans), count),
    })
    return metrics
