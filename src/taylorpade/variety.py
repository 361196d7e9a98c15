"""Taylor coefficient vectors of rational functions and their variety.

A point of the variety is the coefficient vector (c_g, 0 < |g| <= m) of the
order-m expansion of P/Q with P(0) = Q(0) = 1, deg P <= d, deg Q <= e.
Dimension questions are answered by the generic rank of the Jacobian J of the
coefficient map, which is a Pade-matrix question: at a point T of the variety,

    rank J = C(d+n, n) - 1 + rank of the Pade matrix at T without its
             constant (sigma = 0) column,

because multiplying J's columns by the denominator Q turns them into x^b
(0 < |b| <= d), which span degrees 1..d, and -x^b T (0 < |b| <= e), whose
part in degrees d+1..m is that Pade matrix (proof in ``actual_dimension``).
The gate therefore ranks a matrix of the Pade matrix's size, not J.

A sampled pair is two coefficient dicts, and T = p/q is expanded on plain
numbers (``taylor_coeffs``): exponents become Kronecker keys, so an exponent
sum is one int addition, and products are reduced once per coefficient.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import cached_property
from math import comb
from operator import mul
from typing import NamedTuple

from .detcalc import eliminate, rank_rational
from .errors import UsageError
from .fields import DEFAULT_FIELD, Rationals, derive_seed, random_point
from .pade import PadeShape, SymbolicMatrix, pade_matrix, pade_shape
from .series import monomials_of_degree, monomials_upto


class _ParamsTuple(NamedTuple):
    n: int
    d: int
    e: int
    m: int


class TaylorParams(_ParamsTuple):
    """Parameters (n, d, e, m) of a Taylor variety, read-only and hashed as a tuple."""

    def __new__(cls, n: int, d: int, e: int, m: int):
        pade_shape(n, d, e, m)  # validates
        return super().__new__(cls, n, d, e, m)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates

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

    @cached_property
    def pade(self) -> SymbolicMatrix:
        """The Pade matrix of these parameters, built on first use and kept by
        this instance: every stage of a case reads this one matrix, and an
        equal but distinct instance builds its own."""
        return pade_matrix(*self)


def random_rational_pair(params: TaylorParams, ctx, seed) -> tuple:
    """Random pair (p, q) of coefficient dicts, exponent -> element of
    ``ctx``, over every monomial of degree <= d resp. e: constant terms 1,
    the others uniform, drawn in ``monomials_upto`` order, p first."""
    rng = random.Random(derive_seed("pair", seed))

    def sample(deg: int) -> dict:
        return {g: ctx.sample(rng) if any(g) else ctx.one
                for g in monomials_upto(params.n, deg)}

    return sample(params.d), sample(params.e)


def taylor_coeffs(p: dict, q: dict, m: int, ctx) -> dict:
    """Coefficients (c_g, 0 < |g| <= m) of the expansion T of p/q.

    ``p`` and ``q`` map exponent tuples to elements of ``ctx``, integers over
    Q, and must have constant term exactly 1.  Every 0 < |g| <= m is present
    in the result, zeros included, so it evaluates a Pade matrix directly.

    T is read off the defining identity Q*T = P modulo degree m+1 by the
    graded recursion T_k = P_k - sum_{b != 0} Q_b T_{k-|b|}, run on ints (the
    numerators over Q).  An exponent g with |g| <= m is keyed by the int
    sum_i g_i (m+1)^i (Kronecker substitution), so the exponent sum h + b is
    one int addition.  Q's nonconstant terms are sorted by degree, so the
    layer of degree k-1, once final, pushes Q_b T_h to h + b over a prefix
    of them (|b| <= m-k+1).  The products accumulate unreduced, and each
    coefficient is finished by one ``ctx.sub(P_g, acc_g)``: one ``% p`` over
    GF(p), an integer over Q, whose numerator the next layer reads.
    """
    n = len(next(iter(p), ()))
    const = (0,) * n
    if not n or p.get(const) != ctx.one or q.get(const) != ctx.one:
        raise UsageError("P and Q must have constant term 1")
    if any(len(g) != n or c.denominator != 1 for g, c in (*p.items(), *q.items())):
        raise UsageError("P and Q need shared variables and integer coefficients")
    weights = [(m + 1) ** i for i in range(n)]

    def key(g):
        return sum(map(mul, g, weights))

    qs = sorted((sum(b), key(b), c.numerator) for b, c in q.items() if any(b) and c)
    q_degrees = [db for db, _, _ in qs]
    pk = {key(g): c for g, c in p.items() if 0 < sum(g) <= m}
    sub, zero = ctx.sub, ctx.zero
    acc: dict = {}  # acc[key(g)]: sum of Q_b T_{g-b} over the layers pushed so far
    get = acc.get
    out: dict = {}
    layer = [(0, 1)]  # (key(h), T_h) over degree k-1; T_0 = 1
    for k in range(1, m + 1):
        push = [(bk, c) for _, bk, c in qs[:bisect_right(q_degrees, m - k + 1)]]
        for hk, th in layer:
            if th:
                for bk, qb in push:
                    g = hk + bk
                    acc[g] = get(g, 0) + qb * th
        layer = []
        for g in monomials_of_degree(n, k):
            gk = key(g)
            out[g] = t = sub(pk.get(gk, zero), acc.pop(gk, 0))
            layer.append((gk, t.numerator))
    return out


def _rank(P: SymbolicMatrix, point: dict, ctx) -> int:
    """Rank of P at ``point`` over ``ctx``, GF(p) or Q, exact over either."""
    A = P.evaluate(point, ctx)
    if isinstance(ctx, Rationals):
        return rank_rational(A)
    return eliminate(A, ctx).rank


def expected_dimension(params: TaylorParams) -> int:
    n, d, e, m = params
    return min(comb(d + n, n) + comb(e + n, n) - 2, comb(m + n, n) - 1)


DIM_TRIALS = 3


def actual_dimension(params: TaylorParams, ctx=DEFAULT_FIELD, seed=0) -> int:
    """Generic rank of the Jacobian J of the coefficient map (p, q) -> (c_g).

    J is never built: at each sampled pair (p, q), with T = p/q and
    P = ``params.pade``,

        rank J = C(d+n, n) - 1 + rank of P(T) less its sigma = 0 column.

    Proof.  The columns of J are the series dT/dp_b = x^b/q (0 < |b| <= d)
    and dT/dq_b = -x^b p/q^2 = -x^b T/q (0 < |b| <= e), in degrees 1..m.
    Multiplying by q is invertible on such series (q(0) = 1), so J has the
    rank of the columns x^b and -x^b T.  The x^b span every monomial of
    degree 1..d; reducing the -x^b T by them leaves their projection onto
    degrees d+1..m, whose entry in row rho is T_{rho-b}: the Pade matrix at T
    without its sigma = 0 column (the tangent-space, or Terracini,
    description of the variety).  That column adds no rank, as q is a kernel
    vector of the full Pade matrix at T with q_0 = 1; dropping it saves a
    column.

    The answer is the maximum over ``DIM_TRIALS`` random pairs; rank is
    lower-semicontinuous, so the maximum is a certified lower bound and
    generically exact.  J is (C(m+n,n)-1) x (C(d+n,n)+C(e+n,n)-2), so the
    rank never exceeds ``expected_dimension(params)``, the smaller of the
    two; the first trial that reaches it ends the loop with the exact answer.
    Over Q each rank is ``detcalc.rank_rational``, certified mod primes.
    """
    A = SymbolicMatrix([row[1:] for row in params.pade.entries])
    base = comb(params.d + params.n, params.n) - 1
    ceiling = expected_dimension(params)
    best = 0
    for t in range(DIM_TRIALS):
        p, q = random_rational_pair(params, ctx, derive_seed("dim", seed, t))
        best = max(best, base + _rank(A, taylor_coeffs(p, q, params.m, ctx), ctx))
        if best == ceiling:
            break
    return best


class HypersurfaceCheck(NamedTuple):
    """Outcome of the randomized non-defective-hypersurface test."""

    params: TaylorParams
    det_trials: int
    det_nonzero_count: int
    expected_dim: int
    actual_dim: int
    verdict: str

    @property
    def is_nondefective_hypersurface(self) -> bool:
        return self.verdict == "non-defective hypersurface"


def nondefective_hypersurface_check(
    params: TaylorParams, trials: int = 20, ctx=DEFAULT_FIELD, seed=0,
    stop_at_nonzero: bool = False,
) -> HypersurfaceCheck:
    """Randomized test for 'non-defective hypersurface'.

    Requires (a) a square Pade matrix, (b) a nonzero determinant at some
    random point (which certifies det != 0 as a polynomial), and (c) actual
    dimension equal to the expected dimension, which (a) makes N-1: rows = cols
    reads C(m+n,n) - C(d+n,n) = C(e+n,n), so C(d+n,n) + C(e+n,n) - 2 = N-1.
    The Pade matrix ``params.pade`` serves both the determinant trials and the
    rank.  A trial reads det != 0 as full rank, over Q from ``rank_rational``.

    ``stop_at_nonzero`` ends the determinant trials at the first nonzero
    det, which fixes (b) exactly; ``det_trials`` then counts the trials run.
    """
    P = params.pade
    nonzero = run = 0
    if params.is_square:
        variables = P.variables()
        for t in range(trials):
            run = t + 1
            point = random_point(variables, ctx, derive_seed("det", seed, t))
            if _rank(P, point, ctx) == P.nrows:
                nonzero += 1
                if stop_at_nonzero:
                    break
    exp_dim = expected_dimension(params)
    act_dim = actual_dimension(params, ctx=ctx, seed=seed)
    if act_dim < exp_dim:
        verdict = "defective"
    elif params.is_square and nonzero and act_dim == exp_dim:
        verdict = "non-defective hypersurface"
    else:
        verdict = "non-defective"
    return HypersurfaceCheck(
        params=params,
        det_trials=run,
        det_nonzero_count=nonzero,
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
