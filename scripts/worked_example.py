#!/usr/bin/env python3
"""Walk the smallest square m = d+2 case, (n,d,e,m) = (2,5,4,7), end to end.

Prints the matrix layout, the randomized non-defectiveness check, the column
operation invariance, the relation identity M.c = 0 with its rank bound, and
the Hessian certificates in both variable modes (the ambient one derived
from the essential trials).
"""

import argparse

from taylorpade import (
    TaylorParams,
    certify_hessian_pade,
    column_transform,
    eliminate,
    full_from_essential,
    nondefective_hypersurface_check,
    random_lambda,
    relation_check,
)
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

    check = nondefective_hypersurface_check(params, trials=args.trials, seed=args.seed)
    print(f"\nnon-defectiveness: {check.verdict}")
    print(f"  det nonzero in {check.det_nonzero_count}/{check.det_trials} trials, "
          f"dimension {check.actual_dim} (expected {check.expected_dim}, "
          f"ambient P^{params.ambient_dim})")

    point = random_point(P.variables(), field, derive_seed("demo", args.seed))
    lam = random_lambda(P, field, args.seed)
    # one factorisation of P at the point serves det(P) and the relation check
    fac = eliminate(P.evaluate(point), field, inverse=True)
    d1 = eliminate(column_transform(P, lam, point, field), field).det
    print(f"\ncolumn operations preserve det: {fac.det == d1}")

    rel = relation_check(params, point, fac, field)
    print(f"relation identity M.c = 0: {rel['residual_is_zero']}")
    print(f"rank(M) at this point: {rel['rank_M']} (bound {rel['rank_bound']})")

    essential = certify_hessian_pade(check, trials=args.trials, seed=args.seed)
    full = full_from_essential(essential, params)
    for mode, cert in (("full", full), ("essential", essential)):
        coranks = sorted({t.corank for t in cert.trials})
        extra = (f", error bound 1e{cert.error_bound_log10:.0f}"
                 if cert.error_bound_log10 is not None else "")
        print(f"hessian [{mode:9s}]: {cert.verdict} over {len(cert.trials)} trials, "
              f"coranks {coranks}{extra}")
    # the polar map's differential is H, so its rank is V - min corank
    V = len(P.variables())
    polar_rank = V - min(t.corank for t in essential.trials)
    print(f"polar map rank (essential variables): {polar_rank} of {V}")


if __name__ == "__main__":
    main()
