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

A sampled pair is two dicts of ints, and T = p/q is expanded mod p one
degree layer at a time (``taylor_coeffs``), each layer packed into one int
with slots named by Kronecker keys, so a product of packed ints adds up the
Q_b T_h that meet in each slot.  q(0) = 1 makes T integral, so over Q the
gate ranks T mod each prime it takes, and lifts the integer T from those
(``lift_taylor_coeffs``) only for a rank short of full.
"""

from __future__ import annotations

import random
from functools import cache, cached_property
from itertools import chain, repeat
from math import comb
from operator import mul
from typing import NamedTuple

from .detcalc import eliminate, rank_rational, rational_primes
from .errors import UsageError
from .fields import DEFAULT_FIELD, PrimeField, Rationals, derive_seed, random_point
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
        return {g: ctx.sample(rng) if any(g) else 1
                for g in monomials_upto(params.n, deg)}

    return sample(params.d), sample(params.e)


@cache
def _layout(n: int, m: int) -> tuple:
    """The packing of degree layers 0..m: the weights (m+1)^i, i < n-1, and
    per degree k the exponents of degree k in ``monomials_of_degree`` order,
    the slot of each (its Kronecker key, the dot product of its first n-1
    exponents with the weights), and, slot by slot, the position of the
    exponent held there (one past the last, where a slot holds none)."""
    weights = [(m + 1) ** i for i in range(n - 1)]
    layers = []
    for k in range(m + 1):
        exps = monomials_of_degree(n, k)
        slots = [sum(map(mul, g, weights)) for g in exps]
        order = [len(exps)] * (max(slots) + 1)
        for i, s in enumerate(slots):
            order[s] = i
        layers.append((exps, slots, order))
    return weights, tuple(layers)


def taylor_coeffs(p: dict, q: dict, m: int, field) -> dict:
    """Coefficients (c_g, 0 < |g| <= m) of the expansion T of p/q, mod p.

    ``p`` and ``q`` map exponent tuples of one length to plain ints, and
    must have constant term exactly 1, so T is integral and the result is
    T mod p, for ``field`` GF(p).  Every 0 < |g| <= m is present,
    zeros included, by increasing degree and in ``monomials_of_degree``
    order within one, so the result evaluates a Pade matrix directly.

    T is read off the defining identity Q*T = P modulo degree m+1 by the
    graded recursion T_k = P_k - sum_{s=1..k} Q_s T_{k-s}, Q_s being the
    degree-s layer of q mod p, run on ints.  Each layer is one packed int
    (``_layout``): the exponent g of degree k sits in slot key(g) =
    sum_{i<n-1} g_i (m+1)^i.  No two exponents of a layer
    share a key, as the last exponent is k less the others, and every
    exponent in a layer k <= m is at most m, so key(h + b) = key(h) +
    key(b) with no carry: a product of packed layers puts sum_{h+b=g} Q_b
    T_h in slot key(g) and nowhere else, unreduced.  q and T lie in
    [0, p), so a slot's sum is at most count * (p-1)^2, count being q's
    nonconstant terms, which fixes the width.  T_k adds one big-int product
    Q_s T_{k-s} per s; its sums are unpacked once, and each coefficient is
    finished by (P_g - sum) mod p.
    """
    n = len(next(iter(p), ()))
    const = (0,) * n
    if not n or p.get(const) != 1 or q.get(const) != 1:
        raise UsageError("P and Q must have constant term 1")
    if any(len(g) != n or type(c) is not int for g, c in chain(p.items(), q.items())):
        raise UsageError("P and Q need shared variables and integer coefficients")
    weights, layers = _layout(n, m)
    prime = field.p
    terms = [(sum(b), b, c % prime) for b, c in q.items() if 0 < sum(b) <= m and c % prime]
    size = (max(len(terms), 1) * (prime - 1) ** 2).bit_length() // 8 + 1  # T < p fits
    W = 8 * size
    qlayers: dict = {}  # s -> Q_s packed
    for s, b, c in terms:
        qlayers[s] = qlayers.get(s, 0) + (c << W * sum(map(mul, b, weights)))
    get, zeros, from_bytes = p.get, repeat(0), int.from_bytes
    out: dict = {}
    packed = [1]  # layer j of T, packed
    for k in range(1, m + 1):
        exps, slots, order = layers[k]
        data = sum(Qs * packed[k - s] for s, Qs in qlayers.items() if s <= k).to_bytes(
            len(order) * size, "little")
        sums = [from_bytes(data[s * size:s * size + size], "little") for s in slots]
        layer = [(a - b) % prime for a, b in zip(map(get, exps, zeros), sums)]
        if k < m:
            row = [*layer, 0]
            packed.append(from_bytes(b"".join([row[i].to_bytes(size, "little")
                                              for i in order]), "little"))
        out.update(zip(exps, layer))
    return out


def majorant(p: dict, q: dict, m: int) -> list:
    """[M_0, ..., M_m] with |T_g| <= M_|g| for T = p/q: M_0 = 1, and M_k =
    max_{|g|=k} |p_g| + sum_{s=1..k} |Q_s| M_{k-s}, |Q_s| the sum of |q_b|
    over |b| = s, by the triangle inequality on the recursion of
    ``taylor_coeffs``.  At most B_p [k <= d] + sum_{s<=min(k,e)}
    C(s+n-1, n-1) B_q M_{k-s}, for B_p and B_q the largest |p_g| and |q_b|."""
    top, norm = [0] * (m + 1), [0] * (m + 1)
    for g, c in p.items():
        k = sum(g)
        if 0 < k <= m and abs(c) > top[k]:
            top[k] = abs(c)
    for b, c in q.items():
        k = sum(b)
        if 0 < k <= m:
            norm[k] += abs(c)
    M = [1]
    for k in range(1, m + 1):
        M.append(top[k] + sum(map(mul, norm[1:k + 1], reversed(M))))
    return M


def lift_taylor_coeffs(p: dict, q: dict, m: int, expand) -> dict:
    """The integer coefficients of T = p/q, as ``taylor_coeffs`` orders them,
    remaindered from ``expand(prime)``, T mod that prime, at each prime of
    ``rational_primes`` in turn until the product passes 2 max M_k
    (``majorant``), where the symmetric residue is T.  For draws in
    [-100, 100] that is one prime, ``SURVEY_PRIME``, at (3,2,2,3), three at
    (2,25,9,27) and 15 at (2,124,21,126), each an expansion; only a rank
    over Q short of full reads T, and no family case and no pinned run has
    one past (3,2,2,3)."""
    bound = 2 * max(majorant(p, q, m))
    x, modulus = repeat(0), 1
    for prime in rational_primes():
        T, inv = expand(prime), pow(modulus, -1, prime)
        x = [a + modulus * ((b - a) * inv % prime) for a, b in zip(x, T.values())]
        modulus *= prime
        if modulus > bound:
            return dict(zip(T, [a - modulus if 2 * a > modulus else a for a in x]))


def _rank(P: SymbolicMatrix, point: dict, ctx) -> int:
    """Rank of P at ``point`` over ``ctx``, GF(p) or Q, exact over either."""
    A = P.evaluate(point)
    if isinstance(ctx, Rationals):
        return rank_rational(A)
    return eliminate(A, ctx).rank


def _pair_rank(P: SymbolicMatrix, p: dict, q: dict, m: int, ctx) -> int:
    """Rank of P at T = p/q over ``ctx``; over Q, at T mod each prime, and
    at the integer T lifted from those once a prime misses full rank."""
    if not isinstance(ctx, Rationals):
        return _rank(P, taylor_coeffs(p, q, m, ctx), ctx)
    expand = cache(lambda prime: taylor_coeffs(p, q, m, PrimeField(prime)))
    return rank_rational(lambda prime: P.evaluate(expand(prime)),
                         lambda: P.evaluate(lift_taylor_coeffs(p, q, m, expand)))


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
    Over Q each rank is ``detcalc.rank_rational``, certified mod primes at
    T mod each, and at the integer T once its Hadamard bound is needed.
    """
    A = SymbolicMatrix([row[1:] for row in params.pade.entries])
    base = comb(params.d + params.n, params.n) - 1
    ceiling = expected_dimension(params)
    best = 0
    for t in range(DIM_TRIALS):
        p, q = random_rational_pair(params, ctx, derive_seed("dim", seed, t))
        best = max(best, base + _pair_rank(A, p, q, params.m, ctx))
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

    A nonzero det and a dimension at its ceiling are exact over any field.
    A zero det, or a dimension short of it, is evidence only: over GF(p) a
    trial misses the generic value with probability at most degree/p
    (Schwartz-Zippel), where det(P) has degree N, for P of order N, and a
    minor of at most N-1 rows of P(T) less its sigma = 0 column has degree
    at most (N-1)(m+1) in the pair's coefficients, as T_k has degree at most
    k+1.  At (2,124,21,126) over the default prime 2^30 - 35 these are
    2.4e-7 and 3.0e-5 per trial.
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
