"""Command-line front end: build families, run verifications, and assemble
every report (json, csv, text) from the library's results.

Exit codes: 0 pass, 1 verified-false, 2 input error, 3 resource limit,
4 internal invariant failed.
Reports are byte-stable for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import random
import sys
from fractions import Fraction

from .errors import InvariantError, LefkitError, TooLargeError
from .families import (
    FamilyKind,
    FamilySpec,
    canonical_lefschetz,
    family_symmetry,
    kind_from_name,
    make_invariant,
    predicted_hilbert,
)
from .lefschetz import (
    hessian_determinants_at,
    random_linear_form,
    slp_check,
    verify_theorem,
)
from .macaulay import annihilator_basis, ensure_within_budget, hilbert_function
from .polyring import Poly, dim_of_degree, format_poly, scale_variables

EXIT_PASS = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_TOO_LARGE = 3
EXIT_INVARIANT = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lefkit",
        description="Exact strong-Lefschetz verification for determinantal "
        "and quadric Gorenstein algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--family", required=True,
                        choices=[kind.value for kind in FamilyKind])
    common.add_argument("--n", type=int, required=True, help="matrix size / dimension")
    common.add_argument("--power", type=int, default=1, help="power s of the invariant")
    common.add_argument("--format", dest="fmt", default="text",
                        choices=["json", "csv", "text"])
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--budget", type=int, default=None,
                        help="cell budget for catalecticants and predicted "
                             "partitions (default 4e6)")
    common.add_argument("--weights", default=None,
                        help="apolarity weight override: JSON object or path, "
                             "variable name -> positive rational")

    lef = argparse.ArgumentParser(add_help=False)
    lef.add_argument("--lefschetz", default="canonical", choices=["canonical", "random"])
    lef.add_argument("--lefschetz-file", default=None,
                     help="JSON file mapping layout variable names to rationals")
    lef.add_argument("--seed", type=int, default=0, help="seed of --lefschetz random")

    sub.add_parser("hilbert", parents=[common],
                   help="Hilbert function via catalecticant ranks")
    sub.add_parser("slp", parents=[common, lef],
                   help="per-degree strong Lefschetz check for one linear form")
    verify = sub.add_parser("verify", parents=[common],
                            help="cross-check Lefschetz verdicts against "
                                 "open-orbit membership")
    verify.add_argument("--seed", type=int, default=0, help="seed of the random samples")
    verify.add_argument("--samples", type=int, default=50)
    sub.add_parser("predict", parents=[common],
                   help="Jordan-algebra predicted vs computed Hilbert function "
                        "(every family)")
    sub.add_parser("hessian", parents=[common, lef],
                   help="higher-Hessian determinants evaluated at a point")
    ann = sub.add_parser("annihilator", parents=[common],
                         help="basis of one graded piece of the annihilator")
    ann.add_argument("--degree", type=int, required=True)
    return parser


def _spec(args: argparse.Namespace) -> FamilySpec:
    return FamilySpec(kind_from_name(args.family), args.n, args.power)


def _name_values(source: str, what: str, spec: FamilySpec, default: int) -> list[Fraction]:
    """One rational per layout variable from a JSON object mapping variable
    names to rationals, given inline (a value starting with `{` or `[`) or as
    a file path; unnamed variables get `default`.  Any bad name or value is
    an input error."""
    text = source
    if not source.lstrip().startswith(("{", "[")):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    data = json.loads(text)
    if not isinstance(data, dict):
        raise LefkitError(f"{what} must be a JSON object")
    index = {name: k for k, name in enumerate(spec.layout)}
    values = [Fraction(default)] * spec.nvars
    for name, value in data.items():
        if name not in index:
            raise LefkitError(f"unknown variable {name!r} in {what}")
        try:
            values[index[name]] = Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            raise LefkitError(f"{what}: {name} = {value!r} is not a rational") from None
    return values


def _resolve_weights(arg: str | None, spec: FamilySpec) -> list[Fraction] | None:
    """The --weights values, one per layout variable, or None when all are 1;
    scale_variables rejects non-positive ones."""
    if arg is None:
        return None
    weights = _name_values(arg, "weights", spec, 1)
    if all(w == 1 for w in weights):
        return None
    return weights


def _invariant(
    spec: FamilySpec, budget: int | None, weights_arg: str | None
) -> tuple[Poly, list[Fraction] | None]:
    """The invariant F after the budget check, and the weights read from
    ``weights_arg`` (``_resolve_weights``).  Under non-unit weights F is
    F(w*x), whose plain apolarity pairing is the weighted pairing of F."""
    ensure_within_budget(spec.nvars, spec.socle_degree, budget)
    weights = _resolve_weights(weights_arg, spec)
    f = make_invariant(spec)
    return (f if weights is None else scale_variables(f, weights)), weights


def _lefschetz_from(args: argparse.Namespace, spec: FamilySpec) -> Poly:
    if args.lefschetz_file is not None:
        coeffs = _name_values(args.lefschetz_file, "Lefschetz coefficients", spec, 0)
        L = Poly(spec.nvars, {
            tuple(int(k == j) for k in range(spec.nvars)): coeff
            for j, coeff in enumerate(coeffs)
        })
        if L.is_zero():
            raise LefkitError("Lefschetz file defines the zero form")
        return L
    if args.lefschetz == "random":
        return random_linear_form(spec.nvars, random.Random(args.seed))
    return canonical_lefschetz(spec)


def _write(args: argparse.Namespace, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        # Write beside the target, then rename over it, so a failed write
        # leaves an existing file as it was.
        tmp = f"{args.out}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, args.out)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    else:
        sys.stdout.write(text)


def _csv_text(fieldnames: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _emit(args: argparse.Namespace, payload: dict, csv_fields: list[str],
          csv_rows: list[dict], text: str) -> None:
    if args.fmt == "json":
        _write(args, json.dumps(payload, indent=2))
    elif args.fmt == "csv":
        _write(args, _csv_text(csv_fields, csv_rows))
    else:
        _write(args, text)


def _echo(spec: FamilySpec) -> dict:
    """The instance every report starts with."""
    return {"family": spec.kind.value, "n": spec.size, "s": spec.power}


def _title(spec: FamilySpec) -> str:
    return "family {family} n={n} s={s}".format(**_echo(spec))


def _coeff_map(coeffs, spec: FamilySpec) -> dict[str, str]:
    """Nonzero coefficients of a linear form by layout variable name."""
    return {name: str(v) for name, v in zip(spec.layout, coeffs) if v}


# ---------------------------------------------------------------------------
# commands


def cmd_hilbert(args: argparse.Namespace) -> int:
    spec = _spec(args)
    f, weights = _invariant(spec, args.budget, args.weights)
    # F(w*x) under non-unit weights is no longer fixed by the family's
    # variable permutations, so it takes the generic path
    fn = hilbert_function(f, family_symmetry(spec) if weights is None else None)
    rows = []
    for i, h in enumerate(fn.values):
        dim = dim_of_degree(f.nvars, i)
        rows.append({"degree": i, "dim_R_i": dim, "rank": h, "kernel_dim": dim - h})
    payload = {
        **_echo(spec),
        "socle_degree": fn.socle_degree,
        "hilbert": list(fn.values),
        "rows": rows,
    }
    text_lines = [
        _title(spec),
        f"hilbert {fn.as_text()}",
        "degree dim_R_i rank kernel_dim",
    ]
    text_lines += [
        f"{r['degree']} {r['dim_R_i']} {r['rank']} {r['kernel_dim']}" for r in rows
    ]
    _emit(args, payload, ["degree", "dim_R_i", "rank", "kernel_dim"], rows,
          "\n".join(text_lines))
    return EXIT_PASS


def cmd_slp(args: argparse.Namespace) -> int:
    spec = _spec(args)
    f, _ = _invariant(spec, args.budget, args.weights)
    L = _lefschetz_from(args, spec)
    report = slp_check(f, L)
    rows = [
        {"i": r.i, "required": r.required, "achieved": r.achieved, "pass": r.passed}
        for r in report.rows
    ]
    payload = {
        **_echo(spec),
        "L": _coeff_map(L.linear_coefficients(), spec),
        "c": report.c,
        "rows": rows,
        "verdict": report.verdict,
    }
    text_lines = [
        f"{_title(spec)} c={report.c}",
        f"L = {format_poly(L, spec.layout)}",
        "i required achieved pass",
    ]
    text_lines += [
        f"{r['i']} {r['required']} {r['achieved']} {'yes' if r['pass'] else 'no'}"
        for r in rows
    ]
    text_lines.append(f"verdict {'true' if report.verdict else 'false'}")
    _emit(args, payload, ["i", "required", "achieved", "pass"], rows,
          "\n".join(text_lines))
    return EXIT_PASS if report.verdict else EXIT_FALSE


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _spec(args)
    if _resolve_weights(args.weights, spec) is not None:
        raise LefkitError(
            "verify compares against open-orbit membership, which assumes "
            "unit apolarity weights"
        )
    summary = verify_theorem(spec, args.samples, args.seed, args.budget)
    rows = [
        {
            "L": _coeff_map(smp.coeffs, spec),
            "forced": smp.forced,
            "slp": smp.slp_verdict,
            "orbit": smp.orbit_verdict,
            "agree": smp.agree,
        }
        for smp in summary.samples
    ]
    counterexample = summary.counterexample
    payload = {
        **_echo(spec),
        "c": spec.socle_degree,
        "seed": args.seed,
        "samples": args.samples,
        "rows": rows,
        "mismatches": summary.mismatches,
        "counterexample": (
            _coeff_map(counterexample.coeffs, spec) if counterexample else None
        ),
    }
    csv_rows = [
        {**row, "index": k, "L": " ".join(f"{n}={v}" for n, v in row["L"].items())}
        for k, row in enumerate(rows)
    ]
    text_lines = [
        f"{_title(spec)} seed={args.seed} samples={args.samples}",
        f"checked {len(summary.samples)} candidates "
        f"({len(summary.samples) - args.samples} forced)",
        f"mismatches {summary.mismatches}",
    ]
    _emit(args, payload, ["index", "forced", "slp", "orbit", "agree", "L"],
          csv_rows, "\n".join(text_lines))
    return EXIT_PASS if summary.mismatches == 0 else EXIT_FALSE


def cmd_predict(args: argparse.Namespace) -> int:
    spec = _spec(args)
    if _resolve_weights(args.weights, spec) is not None:
        raise LefkitError("predict compares unit-weight Hilbert functions")
    f, _ = _invariant(spec, args.budget, None)
    predicted = predicted_hilbert(spec, args.budget)
    computed = hilbert_function(f, family_symmetry(spec))
    match = predicted.values == computed.values
    payload = {
        **_echo(spec),
        "predicted": list(predicted.values),
        "computed": list(computed.values),
        "match": match,
    }
    csv_rows = [
        {"degree": i, "predicted": p, "computed": c}
        for i, (p, c) in enumerate(zip(predicted.values, computed.values))
    ]
    text = "\n".join(
        [
            _title(spec),
            f"predicted {predicted.as_text()}",
            f"computed  {computed.as_text()}",
            f"match {'true' if match else 'false'}",
        ]
    )
    _emit(args, payload, ["degree", "predicted", "computed"], csv_rows, text)
    return EXIT_PASS if match else EXIT_FALSE


def cmd_hessian(args: argparse.Namespace) -> int:
    spec = _spec(args)
    f, _ = _invariant(spec, args.budget, args.weights)
    L = _lefschetz_from(args, spec)
    dets = hessian_determinants_at(f, L)
    rows = [
        {"i": i, "det": str(d), "nonzero": bool(d)} for i, d in enumerate(dets)
    ]
    all_nonzero = all(r["nonzero"] for r in rows)
    payload = {
        **_echo(spec),
        "L": _coeff_map(L.linear_coefficients(), spec),
        "rows": rows,
        "all_nonzero": all_nonzero,
    }
    text_lines = [
        _title(spec),
        f"L = {format_poly(L, spec.layout)}",
        "i det nonzero",
    ]
    text_lines += [
        f"{r['i']} {r['det']} {'yes' if r['nonzero'] else 'no'}" for r in rows
    ]
    text_lines.append(f"all_nonzero {'true' if all_nonzero else 'false'}")
    _emit(args, payload, ["i", "det", "nonzero"], rows, "\n".join(text_lines))
    return EXIT_PASS if all_nonzero else EXIT_FALSE


def cmd_annihilator(args: argparse.Namespace) -> int:
    spec = _spec(args)
    f, _ = _invariant(spec, args.budget, args.weights)
    basis = annihilator_basis(f, args.degree)
    texts = [format_poly(p, spec.layout) for p in basis]
    payload = {
        **_echo(spec),
        "degree": args.degree,
        "dim_R_i": dim_of_degree(spec.nvars, args.degree),
        "kernel_dim": len(texts),
        "basis": texts,
    }
    csv_rows = [{"index": k, "polynomial": t} for k, t in enumerate(texts)]
    text_lines = [
        f"{_title(spec)} degree={args.degree}",
        f"kernel_dim {len(texts)}",
    ] + texts
    _emit(args, payload, ["index", "polynomial"], csv_rows, "\n".join(text_lines))
    return EXIT_PASS


_COMMANDS = {
    "hilbert": cmd_hilbert,
    "slp": cmd_slp,
    "verify": cmd_verify,
    "predict": cmd_predict,
    "hessian": cmd_hessian,
    "annihilator": cmd_annihilator,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_PASS
    try:
        return _COMMANDS[args.command](args)
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except InvariantError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (LefkitError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
