#!/usr/bin/env python3
"""Sweep the square m = d+2 family up to a given e and print the pipeline CSV.

Equivalent to `taylorpade survey --e-max E --trials T --format csv`, kept as a
script so the sweep is easy to edit (e.g. to add timing columns locally).
"""

import argparse
import sys
import time

from taylorpade.cli import SURVEY_COLUMNS, RunConfig, _survey_case
from taylorpade.variety import square_family


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--e-max", type=int, default=5)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--timings", action="store_true",
                    help="append a wall-time column (non-deterministic output)")
    args = ap.parse_args()

    cols = SURVEY_COLUMNS + (["time_s"] if args.timings else [])
    print(",".join(cols))
    cases = square_family(args.e_max)
    while cases:  # popped, so that each case's cached Pade matrix is freed
        params = cases.pop(0)
        config = RunConfig(command="survey", trials=args.trials, seed=args.seed)
        start = time.time()
        row = _survey_case(params, config)
        if args.timings:
            row["time_s"] = f"{time.time() - start:.2f}"
        print(",".join(str(row[c]) for c in cols))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
