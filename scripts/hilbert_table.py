#!/usr/bin/env python3
"""Print computed Hilbert functions next to the Jordan-algebra prediction
(``families.predicted_hilbert``) for every family; odd Pfaffian sizes are
skipped.

Usage: python3 scripts/hilbert_table.py [--max-n N] [--max-s S]
"""

import argparse
import time

from lefkit.errors import InvalidSpecError
from lefkit.families import (
    FamilyKind,
    FamilySpec,
    family_symmetry,
    make_invariant,
    predicted_hilbert,
)
from lefkit.macaulay import hilbert_function, max_catalecticant_cells


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=3)
    parser.add_argument("--max-s", type=int, default=3)
    parser.add_argument("--cell-limit", type=int, default=200_000,
                        help="skip instances whose largest catalecticant is bigger")
    args = parser.parse_args()

    mismatch = 0
    for kind in FamilyKind:
        for n in range(1, args.max_n + 1):
            for s in range(1, args.max_s + 1):
                try:
                    spec = FamilySpec(kind, n, s)
                except InvalidSpecError:  # an odd Pfaffian size
                    continue
                if max_catalecticant_cells(spec.nvars, spec.socle_degree) > args.cell_limit:
                    print(f"{spec}: skipped (over cell limit)")
                    continue
                start = time.perf_counter()
                computed = hilbert_function(make_invariant(spec), family_symmetry(spec))
                elapsed = time.perf_counter() - start
                predicted = predicted_hilbert(spec)
                flag = "ok" if computed.values == predicted.values else "MISMATCH"
                mismatch += flag != "ok"
                print(f"{spec}: computed {computed.as_text()}  "
                      f"predicted {predicted.as_text()}  {flag}  ({elapsed:.2f}s)")
    return 0 if mismatch == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
