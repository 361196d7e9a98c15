"""Taylor coefficient vectors of rational functions and their variety.

A point of the variety is the coefficient vector (c_g, 0 < |g| <= m) of the
order-m expansion of P/Q with P(0) = Q(0) = 1, deg P <= d, deg Q <= e.
Dimension questions are answered by the generic rank of the Jacobian of the
coefficient map; membership questions by the kernel of the Pade matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from .detcalc import eliminate
from .errors import UsageError
from .fields import PRIMES_62, PrimeField, derive_seed, random_point
from .pade import PadeShape, pade_matrix, pade_shape
from .series import (
    DOMAIN_ORDER,
    TruncatedSeries,
    exp_sub,
    monomials_upto,
    series_inverse,
    series_mul,
)


@dataclass(frozen=True)
class TaylorParams:
    """Parameters (n, d, e, m) of a Taylor variety."""

    n: int
    d: int
    e: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.d < 0 or self.e < 0:
            raise UsageError("need n >= 1, d >= 0, e >= 0")
        if self.m <= self.d:
            raise UsageError("need m > d")

    @property
    def ambient_coords(self) -> int:
        """Number of homogeneous coordinates c_g, |g| <= m."""
        return comb(self.m + self.n, self.n)

    @property
    def ambient_dim(self) -> int:
        """Dimension N of the ambient projective space."""
        return self.ambient_coords - 1

    @property
    def shape(self) -> PadeShape:
        return pade_shape(self.n, self.d, self.e, self.m)

    @property
    def is_square(self) -> bool:
        return self.shape.square

    def astuple(self):
        return (self.n, self.d, self.e, self.m)


@dataclass(frozen=True)
class RationalPair:
    """Numerator/denominator series with constant term exactly 1."""

    p: TruncatedSeries
    q: TruncatedSeries

    def __post_init__(self):
        for s, bound, name in ((self.p, self.p.order, "P"), (self.q, self.q.order, "Q")):
            if s.constant_term() != s.field.one:
                raise UsageError(f"{name} must have constant term 1")
        if self.p.nvars != self.q.nvars or self.p.field != self.q.field:
            raise UsageError("P and Q must share variables and field")


def random_rational_pair(params: TaylorParams, ctx, seed) -> RationalPair:
    """Random pair with uniform coefficients and fixed constant terms."""
    n, d, e = params.n, params.d, params.e
    rng = random.Random(derive_seed("pair", seed))
    zero = (0,) * n

    def sample_series(deg: int) -> TruncatedSeries:
        coeffs = {zero: ctx.one}
        for g in monomials_upto(n, deg):
            if g != zero:
                coeffs[g] = ctx.sample(rng)
        return TruncatedSeries(ctx, n, deg, coeffs)

    return RationalPair(sample_series(d), sample_series(e))


def taylor_coeffs(pq: RationalPair, m: int) -> dict:
    """Coefficients (c_g, 0 < |g| <= m) of the expansion of P/Q.

    Defining identity: Q * (1 + sum c_g x^g) = P modulo degree m+1.
    """
    qinv = series_inverse(pq.q, m)
    t = series_mul(pq.p, qinv, m)
    zero = (0,) * pq.p.nvars
    return {g: c for g, c in t.coeffs.items() if g != zero}


def expected_dimension(params: TaylorParams) -> int:
    n, d, e, m = params.astuple()
    return min(comb(d + n, n) + comb(e + n, n) - 2, comb(m + n, n) - 1)


def psi_jacobian(pq: RationalPair, params: TaylorParams):
    """Jacobian of the coefficient map (P, Q) -> (c_g) at the given pair.

    Columns are d/dp_b followed by d/dq_b over the free coefficients
    (0 < |b| <= d resp. e); rows run over 0 < |g| <= m.  The column series are
    exact:  dT/dp_b = x^b / Q  and  dT/dq_b = -x^b P / Q^2, truncated at m.
    """
    n, d, e, m = params.astuple()
    field = pq.p.field
    qinv = series_inverse(pq.q, m)
    s = series_mul(series_mul(pq.p, qinv, m), qinv, m).neg()  # -P/Q^2
    zero = (0,) * n
    rows = [g for g in DOMAIN_ORDER.sorted(monomials_upto(n, m)) if g != zero]
    p_cols = [g for g in DOMAIN_ORDER.sorted(monomials_upto(n, d)) if g != zero]
    q_cols = [g for g in DOMAIN_ORDER.sorted(monomials_upto(n, e)) if g != zero]
    jac = []
    for g in rows:
        row = []
        for b in p_cols:
            h = exp_sub(g, b)
            row.append(qinv.coeff(h) if h is not None else field.zero)
        for b in q_cols:
            h = exp_sub(g, b)
            row.append(s.coeff(h) if h is not None else field.zero)
        jac.append(row)
    return rows, p_cols + q_cols, jac


def actual_dimension(
    params: TaylorParams, trials: int = 3, ctx=None, seed=0
) -> int:
    """Generic rank of the Jacobian of the coefficient map.

    Maximum over ``trials`` random pairs; rank is lower-semicontinuous, so the
    maximum is a certified lower bound and generically exact.  The Jacobian
    is (C(m+n,n)-1) x (C(d+n,n)+C(e+n,n)-2), so its rank never exceeds
    ``expected_dimension(params)``, the smaller of the two; the first trial
    that reaches it ends the loop with the exact answer.
    """
    if trials < 1:
        raise UsageError("need at least one trial")
    ctx = ctx or PrimeField(PRIMES_62[0])
    ceiling = expected_dimension(params)
    best = 0
    for t in range(trials):
        pq = random_rational_pair(params, ctx, derive_seed("dim", seed, t))
        _, _, jac = psi_jacobian(pq, params)
        best = max(best, eliminate(jac, ctx).rank)
        if best == ceiling:
            break
    return best


def membership(T: dict, params: TaylorParams, ctx) -> bool:
    """Whether the coefficient vector admits a nonzero annihilating Q.

    True iff the Pade matrix evaluated at T has non-trivial kernel, i.e. rank
    strictly below its column count.  The constant coordinate is taken as 1.
    """
    P = pade_matrix(*params.astuple())
    A = P.evaluate(T, ctx)
    return eliminate(A, ctx).rank < P.ncols


@dataclass(frozen=True)
class HypersurfaceCheck:
    """Outcome of the randomized non-defective-hypersurface test."""

    params: TaylorParams
    rows: int
    cols: int
    square: bool
    det_trials: int
    det_nonzero_count: int
    det_certified_nonzero: bool
    expected_dim: int
    actual_dim: int
    verdict: str

    @property
    def is_nondefective_hypersurface(self) -> bool:
        return self.verdict == "non-defective hypersurface"


def nondefective_hypersurface_check(
    params: TaylorParams, trials: int = 20, ctx=None, seed=0
) -> HypersurfaceCheck:
    """Randomized test for 'non-defective hypersurface'.

    Requires (a) a square Pade matrix, (b) a nonzero determinant at some
    random point (which certifies det != 0 as a polynomial), and (c) actual
    dimension equal to the expected dimension equal to N-1.
    """
    shape = params.shape
    ctx = ctx or PrimeField(PRIMES_62[0])
    nonzero = 0
    if shape.square:
        P = pade_matrix(*params.astuple())
        variables = P.variables()
        for t in range(trials):
            point = random_point(variables, ctx, derive_seed("det", seed, t))
            if eliminate(P.evaluate(point, ctx), ctx).det != 0:
                nonzero += 1
    exp_dim = expected_dimension(params)
    act_dim = actual_dimension(params, trials=3, ctx=ctx, seed=seed)
    certified = nonzero > 0
    if act_dim < exp_dim:
        verdict = "defective"
    elif shape.square and certified and act_dim == exp_dim == params.ambient_dim - 1:
        verdict = "non-defective hypersurface"
    else:
        verdict = "non-defective"
    return HypersurfaceCheck(
        params=params,
        rows=shape.rows,
        cols=shape.cols,
        square=shape.square,
        det_trials=trials if shape.square else 0,
        det_nonzero_count=nonzero,
        det_certified_nonzero=certified,
        expected_dim=exp_dim,
        actual_dim=act_dim,
        verdict=verdict,
    )


def square_family(e_max: int) -> list:
    """All (d, e, m=d+2) with e <= e_max, d >= e and a square Pade matrix,
    i.e. (e+1)(e+2)/2 = 2d+5."""
    if e_max < 1:
        raise UsageError("e_max must be >= 1")
    out = []
    for e in range(1, e_max + 1):
        num = (e + 1) * (e + 2) // 2 - 5
        if num >= 0 and num % 2 == 0:
            d = num // 2
            if d >= e:
                out.append(TaylorParams(2, d, e, d + 2))
    return out
