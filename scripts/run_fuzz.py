#!/usr/bin/env python3
"""Differential-fuzz sweep: engine agreement across KB size classes.

Each row generates `--cases` random stratified KBs of the given size class,
answers every instance query with the collapsed engine, the faithful product
search (with and without premise weakening), and the saturation oracle, and
for every true answer validates both engines' witnesses and replays the
oracle's derivation trace; the `witnesses` column counts all three.
Odd-numbered cases run on the drawn height map as a user order; `top` is the
highest level a query was evaluated at.  Any disagreement is printed
verbatim.
"""

import argparse
import os
import sys
import time

from strata import KbError, run_fuzz

SIZE_CLASSES = [
    # (label, concepts, roles, individuals, gcis, drawn heights up to)
    ("tiny", 3, 2, 4, 6, 3),
    ("default", 6, 3, 10, 12, 3),
    ("dense", 4, 2, 5, 14, 3),
    ("wide", 6, 3, 16, 10, 3),
    ("tall", 16, 3, 10, 24, 8),
]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cases", type=int, default=500)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--jobs", type=int, default=min(2, os.cpu_count() or 1))
    args = ap.parse_args(argv)

    print(
        f"{'class':>10} {'cases':>7} {'queries':>9} {'witnesses':>10} {'top':>4} "
        f"{'bad':>4} {'secs':>7}"
    )
    worst = 0
    for label, ncon, nrol, ninds, ngcis, height in SIZE_CLASSES:
        t0 = time.perf_counter()
        try:
            rep = run_fuzz(
                args.cases,
                args.seed,
                jobs=args.jobs,
                validate_witnesses=True,
                max_concepts=ncon,
                max_roles=nrol,
                max_individuals=ninds,
                max_gcis=ngcis,
                max_height=height,
            )
        except KbError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        dt = time.perf_counter() - t0
        print(
            f"{label:>10} {rep.cases:>7} {rep.queries:>9} {rep.witnesses_checked:>10} "
            f"{rep.top_level:>4} {len(rep.failures):>4} {dt:>7.2f}"
        )
        for f in rep.failures[:2]:
            print(f"disagreement: case {f.case} query {f.concept}({f.ind}): {f.answers}")
            print(f.kb_text)
        worst = max(worst, len(rep.failures))
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
