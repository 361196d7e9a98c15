#!/usr/bin/env python3
"""Walk the smallest square m = d+2 case, (n,d,e,m) = (2,5,4,7), end to end.

Prints the matrix layout, then runs the case as ``taylorpade hessian`` does
(``run_case``): the non-defectiveness gate, the relation identity M.c = 0
with its rank bound at the certificate's first trial, and the Hessian
certificates in both variable modes (the ambient one derived from the
essential trials).  The column operation invariance is checked at a point
of its own.
"""

import argparse

from taylorpade import TaylorParams, column_transform, eliminate, random_lambda, run_case
from taylorpade.fields import DEFAULT_FIELD, derive_seed, random_point


def fmt(entry):
    return " . " if entry is None else f"{entry[0]}{entry[1]} "


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=20)
    args = ap.parse_args()

    params = TaylorParams(2, 5, 4, 7)
    field = DEFAULT_FIELD
    P = params.pade

    print(f"Pade matrix for (n,d,e,m) = {tuple(params)}: {P.nrows}x{P.ncols}")
    print("entries (c_ab tokens, '.' = 0):")
    for row in P.entries:
        print("   " + "".join(fmt(x) for x in row))

    case = run_case(params, trials=args.trials, seed=args.seed)
    check, rel = case.gate, case.relations
    print(f"\nnon-defectiveness: {check.verdict}")
    print(f"  det nonzero in {check.det_nonzero_count}/{check.det_trials} trials, "
          f"dimension {check.actual_dim} (expected {check.expected_dim}, "
          f"ambient P^{params.ambient_dim})")

    point = random_point(P.variables(), field, derive_seed("demo", args.seed))
    lam = random_lambda(P, field, args.seed)
    d0 = eliminate(P.evaluate(point), field).det
    d1 = eliminate(column_transform(P, lam, point, field), field).det
    print(f"\ncolumn operations preserve det: {d0 == d1}")

    print(f"relation identity M.c = 0 at certificate trial 0: {rel['residual_is_zero']}")
    print(f"rank(M) at certificate trial 0: {rel['rank_M']} (bound {rel['rank_bound']})")

    for mode in ("full", "essential"):
        cert = getattr(case, mode)
        coranks = sorted({t.corank for t in cert.trials})
        extra = (f", error bound 1e{cert.error_bound_log10:.0f}"
                 if cert.error_bound_log10 is not None else "")
        print(f"hessian [{mode:9s}]: {cert.verdict} over {len(cert.trials)} trials, "
              f"coranks {coranks}{extra}")
    # the polar map's differential is H, so its rank is V - min corank
    V = len(P.variables())
    polar_rank = V - min(t.corank for t in case.essential.trials)
    print(f"polar map rank (essential variables): {polar_rank} of {V}")


if __name__ == "__main__":
    main()
