"""Command-line front end: build families, run verifications, and render
every report (json, csv, text) from one payload and one row list per
command through ``_emit``.

At load time this module imports only ``errors``, ``polyring`` and
``families``.  Every command checks its inputs in one order
(``_checked``): each JSON option is decoded (exit 2), then the instance is
held to the cell budget (exit 3), then the names are resolved against the
layout (exit 2).  Each command imports what it runs once its inputs are
checked: ``macaulay``, and ``lefschetz`` for ``slp``, ``verify``,
``hessian`` and a random L; ``csv`` is imported only for a CSV report.  So
a parse error, malformed JSON or a bad instance loads no rank engine, and
``hilbert``, ``predict`` and ``annihilator`` never load ``lefschetz``.

Exit codes: 0 pass, 1 verified-false, 2 input error, 3 resource limit,
4 internal invariant failed.
Reports are byte-stable for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING

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
from .polyring import Poly, dim_of_degree, format_poly, scale_variables

if TYPE_CHECKING:
    from .macaulay import Symmetry

EXIT_PASS = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_TOO_LARGE = 3
EXIT_INVARIANT = 4


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then kept for the
    process: parsing does not change it, and each parse starts from the
    defaults."""
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


def _decoded(source: str | None, what: str) -> dict | None:
    """The JSON object of an option, given inline (a value starting with
    `{` or `[`) or as a file path, or None when the option is absent.
    Malformed JSON, JSON nested too deeply to decode, or anything but an
    object is an input error."""
    if source is None:
        return None
    text = source
    if not source.lstrip().startswith(("{", "[")):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except RecursionError:
        raise LefkitError(f"{what}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise LefkitError(f"{what} must be a JSON object")
    return data


def _name_values(data: dict, what: str, spec: FamilySpec, default: int) -> list[Fraction]:
    """One rational per layout variable from a decoded object mapping
    variable names to rationals; unnamed variables get `default`.  Any bad
    name or value is an input error."""
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


def _checked(
    args: argparse.Namespace, spec: FamilySpec
) -> tuple[list[Fraction] | None, Poly | None]:
    """A command's inputs, checked in the one order every command uses:
    each JSON option is decoded (malformed: exit 2), then the instance is
    checked against the cell budget (exit 3) before any layout is built,
    then the names are resolved against the layout (exit 2).  Returns the
    --weights values, one per layout variable, or None when all are 1
    (scale_variables rejects non-positive ones), and, for a command that
    reads one, the linear form L."""
    weights = _decoded(args.weights, "weights")
    what = "Lefschetz coefficients"
    coeffs = _decoded(getattr(args, "lefschetz_file", None), what)
    from .macaulay import ensure_within_budget

    ensure_within_budget(spec.nvars, spec.socle_degree, args.budget)
    if weights is not None:
        weights = _name_values(weights, "weights", spec, 1)
        if all(w == 1 for w in weights):
            weights = None
    if not hasattr(args, "lefschetz"):
        return weights, None
    if coeffs is not None:
        L = Poly(spec.nvars, {
            tuple(int(k == j) for k in range(spec.nvars)): coeff
            for j, coeff in enumerate(_name_values(coeffs, what, spec, 0))
        })
        if L.is_zero():
            raise LefkitError("Lefschetz file defines the zero form")
        return weights, L
    if args.lefschetz == "random":
        from .lefschetz import random_linear_form

        return weights, random_linear_form(spec.nvars, random.Random(args.seed))
    return weights, canonical_lefschetz(spec)


def _invariant(
    spec: FamilySpec, weights: list[Fraction] | None
) -> tuple[Poly, Symmetry | None]:
    """The invariant F and the symmetry to rank it with.  Under non-unit
    ``weights`` F is F(w*x), whose plain apolarity pairing is the weighted
    pairing of F; it is no longer fixed by the family's variable
    permutations, so its symmetry is None and it takes the generic path."""
    f = make_invariant(spec)
    if weights is not None:
        return scale_variables(f, weights), None
    return f, family_symmetry(spec)


def _write(args: argparse.Namespace, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        # Write beside the target, then rename over it, so a failed write
        # leaves an existing file as it was.  An error names the target,
        # not the temporary file, whose name carries the process id.
        tmp = f"{args.out}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, args.out)
        except BaseException as exc:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            if isinstance(exc, OSError) and exc.filename is not None:
                raise OSError(exc.errno, exc.strerror, args.out) from None
            raise
    else:
        sys.stdout.write(text)


def _emit(args: argparse.Namespace, payload: dict, fields: list[str],
          rows: list[dict], head: list[str], tail: list[str] | None = None) -> None:
    """Write one report: JSON is ``payload``, CSV is ``rows`` under
    ``fields``, and text is the ``head`` lines; when ``tail`` is given, they
    are followed by a table of ``rows`` under ``fields`` (bools as yes/no)
    and then the ``tail`` lines."""
    if args.fmt == "json":
        _write(args, json.dumps(payload, indent=2))
    elif args.fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        _write(args, buf.getvalue())
    else:
        lines = list(head)
        if tail is not None:
            lines.append(" ".join(fields))
            lines += [" ".join(_cell(row[k]) for k in fields) for row in rows]
            lines += tail
        _write(args, "\n".join(lines))


def _cell(value) -> str:
    """One text-table cell: a bool as yes/no, anything else as str."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


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
    weights, _ = _checked(args, spec)
    from .macaulay import hilbert_function

    f, symmetry = _invariant(spec, weights)
    fn = hilbert_function(f, symmetry)
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
    _emit(args, payload, ["degree", "dim_R_i", "rank", "kernel_dim"], rows,
          [_title(spec), f"hilbert {fn.as_text()}"], [])
    return EXIT_PASS


def cmd_slp(args: argparse.Namespace) -> int:
    spec = _spec(args)
    weights, L = _checked(args, spec)
    from .lefschetz import SlpTable, slp_check

    f, symmetry = _invariant(spec, weights)
    table = SlpTable(f, symmetry)
    report = slp_check(f, L, table)
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
    _emit(args, payload, ["i", "required", "achieved", "pass"], rows,
          [f"{_title(spec)} c={report.c}", f"L = {format_poly(L, spec.layout)}"],
          [f"verdict {'true' if report.verdict else 'false'}"])
    return EXIT_PASS if report.verdict else EXIT_FALSE


def _unit_weights_only(args: argparse.Namespace, spec: FamilySpec, why: str) -> None:
    """Check the inputs (``_checked``) and refuse non-unit --weights, as an
    input error saying ``why``."""
    if _checked(args, spec)[0] is not None:
        raise LefkitError(why)


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _spec(args)
    _unit_weights_only(args, spec, "verify compares against open-orbit "
                       "membership, which assumes unit apolarity weights")
    from .lefschetz import verify_theorem

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
    _emit(args, payload, ["index", "forced", "slp", "orbit", "agree", "L"], csv_rows, [
        f"{_title(spec)} seed={args.seed} samples={args.samples}",
        f"checked {len(summary.samples)} candidates "
        f"({len(summary.samples) - args.samples} forced)",
        f"mismatches {summary.mismatches}",
    ])
    return EXIT_PASS if summary.mismatches == 0 else EXIT_FALSE


def cmd_predict(args: argparse.Namespace) -> int:
    spec = _spec(args)
    _unit_weights_only(args, spec, "predict compares unit-weight Hilbert functions")
    from .macaulay import hilbert_function

    f, symmetry = _invariant(spec, None)
    predicted = predicted_hilbert(spec, args.budget)
    computed = hilbert_function(f, symmetry)
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
    _emit(args, payload, ["degree", "predicted", "computed"], csv_rows, [
        _title(spec),
        f"predicted {predicted.as_text()}",
        f"computed  {computed.as_text()}",
        f"match {'true' if match else 'false'}",
    ])
    return EXIT_PASS if match else EXIT_FALSE


def _det_text(i: int, det: Fraction) -> str:
    """det in decimal; one longer than Python's int-to-str limit is a
    resource limit (exit 3), not an input error."""
    try:
        return str(det)
    except ValueError:
        from .macaulay import count_text

        size = count_text(max(abs(det.numerator), det.denominator))
        raise TooLargeError(
            f"Hessian determinant at degree {i} is too long to print in "
            f"decimal (numerator or denominator {size})"
        ) from None


def cmd_hessian(args: argparse.Namespace) -> int:
    spec = _spec(args)
    weights, L = _checked(args, spec)
    from .lefschetz import hessian_determinants_at

    f, _ = _invariant(spec, weights)
    dets = hessian_determinants_at(f, L)
    rows = [
        {"i": i, "det": _det_text(i, d), "nonzero": bool(d)}
        for i, d in enumerate(dets)
    ]
    all_nonzero = all(r["nonzero"] for r in rows)
    payload = {
        **_echo(spec),
        "L": _coeff_map(L.linear_coefficients(), spec),
        "rows": rows,
        "all_nonzero": all_nonzero,
    }
    _emit(args, payload, ["i", "det", "nonzero"], rows,
          [_title(spec), f"L = {format_poly(L, spec.layout)}"],
          [f"all_nonzero {'true' if all_nonzero else 'false'}"])
    return EXIT_PASS if all_nonzero else EXIT_FALSE


def cmd_annihilator(args: argparse.Namespace) -> int:
    spec = _spec(args)
    weights, _ = _checked(args, spec)
    from .macaulay import annihilator_basis

    f, _ = _invariant(spec, weights)
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
    _emit(args, payload, ["index", "polynomial"], csv_rows,
          [f"{_title(spec)} degree={args.degree}", f"kernel_dim {len(texts)}", *texts])
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
