"""Independent routes the tests check the program against.

The coefficient map (p, q) -> (c_g) of a Taylor variety, expanded the direct
way over any commutative ring: truncated series (``TruncatedSeries``) and
their sum, product and inverse, a pair with constant terms 1
(``RationalPair``), the expansion of p/q by ring operations
(``taylor_coeffs_ring``), and the full Jacobian of the map.  The program
expands p/q mod p on packed ints with Kronecker keys
(``variety.taylor_coeffs``), lifts the integer T from those residues
(``variety.lift_taylor_coeffs``), and ranks the Pade matrix at T = p/q,
less its sigma = 0 column, instead (``variety.actual_dimension``); these
give the same T and the same rank by another route.  Over ``QQ()``,
``taylor_coeffs_ring`` is the one exact expansion over Q.  Membership of a coefficient vector in the variety,
read off the kernel of the Pade matrix at it.  The entry law of a Pade
matrix, c_{rho - sigma} where sigma <= rho, one cell at a time (``exp_sub``):
the program reads it from a table of Kronecker keys instead.

Fraction-free Bareiss elimination over Q (``eliminate_bareiss``) is the
reference for exact determinants over Q and for the program's ranks over Q,
which ``detcalc.rank_rational`` certifies mod primes; ``rank_of`` ranks by
it over Q and by ``detcalc.eliminate`` over GF(p).  Second-order jets
(``Jet``, ``JetRing``) and elimination over any commutative ring with unit
pivots (``eliminate_ring``), falling back to the division-free Berkowitz
determinant; it also gives inverses over Q.  A ring here is a context with
``zero``, ``one``, ``add``, ``sub``, ``mul`` and ``is_zero``: the program's
field objects only name a field and sample it, so ``GF`` and ``QQ`` add that
arithmetic to them, and a jet ring has its own.  Units and inverses come
from ``is_unit`` and ``ring_inv``, which serve all three.  From jets and ``eliminate_ring``, the
derivatives of det(P) read off jet coefficients: the gradient
(``jet_grad_det``), single Hessian entries (``jet_hessian_entry``) and the
bilinear form of the Hessian (``jet_bilinear``).  The program reads them
off P^-1 instead, and ``hessian_det_at`` is its route at one point, over
the whole matrix, through ``unpack_hessian``, which reads the program's
packed K; ``trace_route_Kw`` reads K.w off two N x N products, the
independent probe of that K.  The adjugate in O(n^3), a singular matrix
included, through a bordered matrix at rank n - 1 (``adjugate``), and the
gradient and the per-block gradient read off it (``grad_det_at``,
``block_grad_det_adj``), also where P is singular.  ``pack_symmetric``
packs a symmetric matrix the other way, for the symmetric body.  The
permutation expansion of a small symbolic determinant
(``expand_det_poly``).  A second layout of a Pade matrix, with the lex order
inside each degree reversed on rows and columns (``reverse_within_degree``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import permutations
from math import lcm
from operator import add, mul

from taylorpade.detcalc import (
    Elimination,
    _hessian_core,
    eliminate,
)
from taylorpade.errors import UsageError
from taylorpade.fields import PrimeField, Rationals
from taylorpade.pade import SymbolicMatrix
from taylorpade.series import (
    Exponent,
    SparsePoly,
    exp_add,
    monomials_of_degree,
    monomials_upto,
)


class GF(PrimeField):
    """GF(p) with the ring arithmetic the reference routes read, on ints in
    ``[0, p)``; equal to ``PrimeField(p)``."""

    __slots__ = ()
    zero, one = 0, 1

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0


class QQ(Rationals):
    """Q with the ring arithmetic the reference routes read, on ints and
    Fractions; equal to ``Rationals()``."""

    __slots__ = ()
    zero, one = 0, 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a) -> bool:
        return a == 0


def exp_sub(a: Exponent, b: Exponent) -> Exponent | None:
    """Componentwise a - b, or None when b is not <= a componentwise: the
    entry law of a Pade matrix, entry(rho, sigma) = c_{rho - sigma}, read
    one cell at a time."""
    out = []
    for x, y in zip(a, b):
        if y > x:
            return None
        out.append(x - y)
    return tuple(out)


class TruncatedSeries:
    """Power series truncated at total degree ``order``.

    Stored coefficients are nonzero and of degree <= order; a term of higher
    degree is dropped on construction.  Instances are immutable by
    convention.
    """

    __slots__ = ("field", "nvars", "order", "coeffs")

    def __init__(self, field, nvars: int, order: int, coeffs: dict | None = None):
        self.field = field
        self.nvars = nvars
        self.order = order
        clean = {}
        for g, c in (coeffs or {}).items():
            if len(g) != nvars:
                raise UsageError(f"exponent {g} has wrong arity (nvars={nvars})")
            if sum(g) > order:
                continue
            if not field.is_zero(c):
                clean[g] = c
        self.coeffs = clean

    def coeff(self, g: Exponent):
        return self.coeffs.get(tuple(g), self.field.zero)

    def constant_term(self):
        return self.coeff((0,) * self.nvars)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        terms = ", ".join(f"{g}: {c}" for g, c in sorted(self.coeffs.items()))
        return f"TruncatedSeries(order={self.order}, {{{terms}}})"


def _check_compatible(a: TruncatedSeries, b: TruncatedSeries):
    if a.nvars != b.nvars:
        raise UsageError("series have different numbers of variables")
    if a.field != b.field:
        raise UsageError("series live over different field contexts")


def series_zero(field, nvars: int, order: int) -> TruncatedSeries:
    return TruncatedSeries(field, nvars, order, {})


def series_one(field, nvars: int, order: int) -> TruncatedSeries:
    return TruncatedSeries(field, nvars, order, {(0,) * nvars: field.one})


def series_is_zero(a: TruncatedSeries) -> bool:
    return not a.coeffs


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Sum of two series, truncated at the smaller of their orders."""
    _check_compatible(a, b)
    f = a.field
    out = dict(a.coeffs)
    for g, c in b.coeffs.items():
        out[g] = f.add(out.get(g, f.zero), c)
    return TruncatedSeries(f, a.nvars, min(a.order, b.order), out)


def series_mul(a: TruncatedSeries, b: TruncatedSeries, order: int) -> TruncatedSeries:
    """Product of two series with all terms of degree > ``order`` removed."""
    _check_compatible(a, b)
    f = a.field
    out: dict = {}
    for g, ca in a.coeffs.items():
        dg = sum(g)
        if dg > order:
            continue
        for h, cb in b.coeffs.items():
            if dg + sum(h) > order:
                continue
            k = exp_add(g, h)
            prev = out.get(k)
            term = f.mul(ca, cb)
            out[k] = term if prev is None else f.add(prev, term)
    return TruncatedSeries(f, a.nvars, order, out)


def series_inverse(q: TruncatedSeries, order: int) -> TruncatedSeries:
    """Inverse series r with q*r = 1 up to degree ``order``.

    Requires the constant term of q to be exactly 1.  The graded recursion
    r_k = -sum_{j>=1} q_j r_{k-j} uses ring operations only.
    """
    f = q.field
    one = (0,) * q.nvars
    if q.coeff(one) != f.one:
        raise UsageError("series_inverse requires constant term exactly 1")
    # q split into homogeneous layers of positive degree
    layers: dict = {}
    for g, c in q.coeffs.items():
        d = sum(g)
        if d == 0 or d > order:
            continue
        layers.setdefault(d, {})[g] = c
    r: dict = {one: f.one}
    by_degree: dict = {0: {one: f.one}}
    for k in range(1, order + 1):
        acc: dict = {}
        for j, qj in layers.items():
            if j > k:
                continue
            rk = by_degree.get(k - j)
            if not rk:
                continue
            for g, qc in qj.items():
                for h, rc in rk.items():
                    t = exp_add(g, h)
                    prev = acc.get(t, f.zero)
                    acc[t] = f.add(prev, f.mul(qc, rc))
        layer = {g: f.sub(f.zero, c) for g, c in acc.items() if not f.is_zero(c)}
        if layer:
            by_degree[k] = layer
            r.update(layer)
    return TruncatedSeries(f, q.nvars, order, r)


@dataclass(frozen=True)
class RationalPair:
    """Numerator/denominator series with constant term exactly 1."""

    p: TruncatedSeries
    q: TruncatedSeries

    def __post_init__(self):
        for s, name in ((self.p, "P"), (self.q, "Q")):
            if s.constant_term() != s.field.one:
                raise UsageError(f"{name} must have constant term 1")
        if self.p.nvars != self.q.nvars or self.p.field != self.q.field:
            raise UsageError("P and Q must share variables and field")

    @classmethod
    def of_dicts(cls, p: dict, q: dict, params, ring) -> "RationalPair":
        """The pair of coefficient dicts that ``variety.random_rational_pair``
        returns, as series over ``ring``."""
        n, d, e, _ = params
        return cls(TruncatedSeries(ring, n, d, p), TruncatedSeries(ring, n, e, q))


def taylor_coeffs_ring(pq: RationalPair, m: int) -> dict:
    """Coefficients (c_g, 0 < |g| <= m) of the expansion T of P/Q, every such
    g present, zeros included: ``variety.taylor_coeffs`` by ring operations
    only, one tuple exponent and one reducing ``mul`` per product, over any
    ring, Q included.  It also runs over jets, and so reads the Jacobian of
    the map off first-order jets.
    """
    f, n = pq.p.field, pq.p.nvars
    q = [(b, sum(b), c) for b, c in pq.q.coeffs.items() if any(b)]
    acc: dict = {}  # acc[g]: sum of Q_b T_{g-b} over the layers pushed so far
    out: dict = {}
    layer = [((0,) * n, f.one)]  # T_0 = 1
    for k in range(1, m + 1):
        for h, th in layer:  # degree k-1, now final: push Q_b T_h to h+b
            if f.is_zero(th):
                continue
            for b, db, qb in q:
                if k - 1 + db <= m:
                    g = tuple(map(add, h, b))
                    term = f.mul(qb, th)
                    acc[g] = f.add(acc[g], term) if g in acc else term
        layer = [(g, f.sub(pq.p.coeff(g), acc.get(g, f.zero)))
                 for g in monomials_of_degree(n, k)]
        out.update(layer)
    return out


def psi_jacobian(p: dict, q: dict, params, field):
    """Jacobian of the coefficient map (p, q) -> (c_g) at the given pair of
    coefficient dicts, over ``field``.

    Columns are d/dp_b followed by d/dq_b over the free coefficients
    (0 < |b| <= d resp. e); rows run over 0 < |g| <= m.  The column series are
    exact:  dT/dp_b = x^b / q  and  dT/dq_b = -x^b p / q^2, truncated at m.
    """
    n, d, e, m = params
    pq = RationalPair.of_dicts(p, q, params, field)
    qinv = series_inverse(pq.q, m)
    p_over_q2 = series_mul(series_mul(pq.p, qinv, m), qinv, m)
    zero = (0,) * n
    rows = [g for g in monomials_upto(n, m) if g != zero]
    p_cols = [g for g in monomials_upto(n, d) if g != zero]
    q_cols = [g for g in monomials_upto(n, e) if g != zero]
    jac = []
    for g in rows:
        row = []
        for b in p_cols:
            h = exp_sub(g, b)
            row.append(qinv.coeff(h) if h is not None else field.zero)
        for b in q_cols:
            h = exp_sub(g, b)
            row.append(field.sub(field.zero, p_over_q2.coeff(h)) if h is not None
                       else field.zero)
        jac.append(row)
    return rows, p_cols + q_cols, jac


def membership(T: dict, params, ctx) -> bool:
    """Whether the coefficient vector admits a nonzero annihilating Q.

    True iff the Pade matrix evaluated at T has non-trivial kernel, i.e. rank
    strictly below its column count.  The constant coordinate is taken as 1.
    """
    P = params.pade
    return rank_of(P.evaluate(T), ctx) < P.ncols


def rank_of(A, ctx) -> int:
    """Rank of ``A`` over ``ctx``: Bareiss over Q, ``eliminate`` over GF(p)."""
    return eliminate_bareiss(A).rank if isinstance(ctx, Rationals) else eliminate(A, ctx).rank


def eliminate_bareiss(A) -> Elimination:
    """Rank and det over Q of ``A`` (Fractions or ints) by fraction-free
    Bareiss elimination (Math. Comp. 22, 1968), with the pivot rule, det
    sign and early exit of ``detcalc.eliminate``; no inverse.

    Each row is scaled to integers; every division by the previous pivot is
    then exact, since each entry is the determinant of a square submatrix
    of the scaled matrix.  Kept apart from ``eliminate_ring`` over Q for
    speed: no Fraction arithmetic inside the loop.
    """
    ncols = len(A[0]) if A else 0
    if any(len(row) != ncols for row in A):
        raise UsageError("ragged matrix")
    scale = 1
    rows = []
    for row in A:
        den = lcm(*(x.denominator for x in row))
        scale *= den
        rows.append([x.numerator * (den // x.denominator) for x in row])
    n = len(rows)
    sign, prev, rank = 1, 1, 0
    for col in range(ncols):
        piv = next((i for i in range(rank, n) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        pivot = rows[rank][col]
        tail = rows[rank][col + 1:]
        for i in range(rank + 1, n):
            f = rows[i][col]
            rows[i][col + 1:] = [(x * pivot - f * y) // prev
                                 for x, y in zip(rows[i][col + 1:], tail)]
        prev = pivot
        rank += 1
        if rank == n:
            break
    det = Fraction(sign * prev, scale) if rank == n else Fraction(0)
    return Elimination(rank, det if n == ncols else None, None)


class Jet:
    """Truncated polynomial in infinitesimals over a base field.

    ``val`` is the constant part, ``d1[i]`` the coefficient of eps_i and
    ``d2[(i, j)]`` (with i <= j) the coefficient of eps_i*eps_j.  Products of
    three infinitesimals vanish, so evaluating a polynomial on jets reads off
    first and second derivatives exactly.
    """

    __slots__ = ("val", "d1", "d2")

    def __init__(self, val, d1=None, d2=None):
        self.val = val
        self.d1 = d1 or {}
        self.d2 = d2 or {}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Jet)
            and self.val == other.val
            and self.d1 == other.d1
            and self.d2 == other.d2
        )

    def __hash__(self):
        return hash((self.val, tuple(sorted(self.d1.items()))))

    def __repr__(self) -> str:
        return f"Jet({self.val!r}, {self.d1!r}, {self.d2!r})"


class JetRing:
    """Second-order jets over a base field context.

    With ``order=1`` the quadratic part is never produced, which makes
    many-infinitesimal gradient evaluation cheap.  Jets form a ring, not a
    field: only elements with an invertible constant part have inverses.
    """

    __slots__ = ("base", "order", "zero", "one")

    def __init__(self, base, order: int = 2):
        if order not in (1, 2):
            raise UsageError("jet truncation order must be 1 or 2")
        self.base = base
        self.order = order
        self.zero = Jet(base.zero)
        self.one = Jet(base.one)

    def constant(self, v) -> Jet:
        return Jet(v)

    def variable(self, v, idx) -> Jet:
        """Constant ``v`` plus one infinitesimal tagged ``idx``."""
        return Jet(v, {idx: self.base.one})

    def add(self, a: Jet, b: Jet) -> Jet:
        base = self.base
        d1 = dict(a.d1)
        for i, c in b.d1.items():
            s = base.add(d1.get(i, base.zero), c)
            if base.is_zero(s):
                d1.pop(i, None)
            else:
                d1[i] = s
        d2 = dict(a.d2)
        for ij, c in b.d2.items():
            s = base.add(d2.get(ij, base.zero), c)
            if base.is_zero(s):
                d2.pop(ij, None)
            else:
                d2[ij] = s
        return Jet(base.add(a.val, b.val), d1, d2)

    def neg(self, a: Jet) -> Jet:
        sub, zero = self.base.sub, self.base.zero
        return Jet(
            sub(zero, a.val),
            {i: sub(zero, c) for i, c in a.d1.items()},
            {ij: sub(zero, c) for ij, c in a.d2.items()},
        )

    def sub(self, a: Jet, b: Jet) -> Jet:
        return self.add(a, self.neg(b))

    def mul(self, a: Jet, b: Jet) -> Jet:
        base = self.base
        av, bv = a.val, b.val
        a_zero = base.is_zero(av)
        b_zero = base.is_zero(bv)
        d1 = {}
        if not a_zero:
            for i, c in b.d1.items():
                d1[i] = base.mul(av, c)
        if not b_zero:
            for i, c in a.d1.items():
                s = base.add(d1.get(i, base.zero), base.mul(c, bv))
                if base.is_zero(s):
                    d1.pop(i, None)
                else:
                    d1[i] = s
        d2 = {}
        if self.order == 2:
            if not a_zero:
                for ij, c in b.d2.items():
                    d2[ij] = base.mul(av, c)
            if not b_zero:
                for ij, c in a.d2.items():
                    s = base.add(d2.get(ij, base.zero), base.mul(c, bv))
                    if base.is_zero(s):
                        d2.pop(ij, None)
                    else:
                        d2[ij] = s
            for i, ca in a.d1.items():
                for j, cb in b.d1.items():
                    ij = (i, j) if i <= j else (j, i)
                    s = base.add(d2.get(ij, base.zero), base.mul(ca, cb))
                    if base.is_zero(s):
                        d2.pop(ij, None)
                    else:
                        d2[ij] = s
        return Jet(base.mul(av, bv), d1, d2)

    def inv(self, a: Jet) -> Jet:
        # 1/(v + w) = (1/v)(1 - w/v + (w/v)^2) with w the infinitesimal part;
        # the cube of w is already zero at truncation order 2.
        base = self.base
        if base.is_zero(a.val):
            raise ZeroDivisionError("jet with zero constant part is not invertible")
        v_inv = ring_inv(base, a.val)
        w = Jet(base.zero, dict(a.d1), dict(a.d2))
        t = self.mul(w, self.constant(v_inv))  # w/v
        res = self.sub(self.one, t)
        if self.order == 2:
            res = self.add(res, self.mul(t, t))
        return self.mul(res, self.constant(v_inv))

    def is_zero(self, a: Jet) -> bool:
        return self.base.is_zero(a.val) and not a.d1 and not a.d2

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, JetRing)
            and other.base == self.base
            and other.order == self.order
        )

    def __hash__(self):
        return hash(("JetRing", self.base, self.order))

    def __repr__(self) -> str:
        return f"JetRing({self.base!r}, order={self.order})"


def is_unit(ring, a) -> bool:
    """Whether ``a`` is invertible in ``ring``: a jet ring, GF(p) or Q."""
    if isinstance(ring, JetRing):
        return not ring.base.is_zero(a.val)
    return not ring.is_zero(a)


def ring_inv(ring, a):
    """The inverse of the unit ``a`` of ``ring``: a jet ring, GF(p) or Q."""
    if isinstance(ring, JetRing):
        return ring.inv(a)
    if ring.is_zero(a):
        raise ZeroDivisionError(f"inverse of 0 in {ring!r}")
    return pow(a, -1, ring.p) if isinstance(ring, PrimeField) else 1 / Fraction(a)


def eliminate_ring(A, ring, inverse: bool = False) -> Elimination:
    """``detcalc.eliminate`` over any commutative ring: the context's own
    operations, pivoting on units, with the same pivot rule, det sign and
    early exit.  Serves jets, and inverses over Q.

    When some nonzero column has no unit pivot, ``rank`` is None and
    ``det`` comes from ``det_berkowitz``.
    """
    ncols = len(A[0]) if A else 0
    if any(len(row) != ncols for row in A):
        raise UsageError("ragged matrix")
    n = len(A)
    square = n == ncols
    if inverse and not square:
        raise UsageError("inverse of a non-square matrix")
    rows = [list(row) for row in A]
    if inverse:
        for i, row in enumerate(rows):
            row += [ring.one if i == j else ring.zero for j in range(n)]
    mul, sub = ring.mul, ring.sub
    det, rank = ring.one, 0
    for col in range(ncols):
        piv = next((i for i in range(rank, n) if is_unit(ring, rows[i][col])), None)
        if piv is None:
            if any(not ring.is_zero(rows[i][col]) for i in range(rank, n)):
                return Elimination(None, det_berkowitz(A, ring) if square else None, None)
            det = ring.zero
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            det = sub(ring.zero, det)
        row = rows[rank]
        det = mul(det, row[col])
        inv = ring_inv(ring, row[col])
        tail = [mul(inv, x) for x in row[col + 1:]]
        row[col + 1:] = tail
        for i in range(0 if inverse else rank + 1, n):
            f = rows[i][col]
            if i != rank and not ring.is_zero(f):
                rows[i][col + 1:] = [sub(x, mul(f, y))
                                     for x, y in zip(rows[i][col + 1:], tail)]
        rank += 1
        if rank == n:
            break
    inv_rows = [row[ncols:] for row in rows] if inverse and rank == n else None
    return Elimination(rank, det if square else None, inv_rows)


def det_berkowitz(A: list, ring):
    """Division-free determinant (Berkowitz), valid over any commutative ring."""
    n = len(A)
    if n == 0:
        return ring.one
    if any(len(row) != n for row in A):
        raise UsageError("determinant of a non-square matrix")
    add, mul, neg = ring.add, ring.mul, partial(ring.sub, ring.zero)
    # vec holds the characteristic vector of the leading k x k submatrix.
    vec = [ring.one, neg(A[0][0])]
    for k in range(2, n + 1):
        a = A[k - 1][k - 1]
        R = A[k - 1][: k - 1]
        C = [A[i][k - 1] for i in range(k - 1)]
        t = [ring.one, neg(a)]
        v = C
        for _ in range(k - 1):
            s = ring.zero
            for x, y in zip(R, v):
                s = add(s, mul(x, y))
            t.append(neg(s))
            if len(t) == k + 1:
                break
            v = [_dot(ring, A[i][: k - 1], v) for i in range(k - 1)]
        new = []
        for i in range(k + 1):
            s = ring.zero
            for j in range(max(0, i - k), min(i, k - 1) + 1):
                s = add(s, mul(t[i - j], vec[j]))
            new.append(s)
        vec = new
    det = vec[n]
    return det if n % 2 == 0 else neg(det)


def _dot(ring, xs, ys):
    s = ring.zero
    for x, y in zip(xs, ys):
        s = ring.add(s, ring.mul(x, y))
    return s


def adjugate(A: list, field) -> list:
    """adj(A) with A*adj(A) = det(A)*I over GF(p), defined also for singular
    A, in O(n^3): one elimination of A with inverse, and at rank n - 1 one
    more per draw of a bordered matrix.

    An invertible A gives det(A) * A^-1, and rank n - 2 or less gives 0.  At
    rank n - 1, with B = [[A, u], [v^T, 0]] for u, v drawn from a fixed
    seed, ``adj(A)[i][j] = -det(B) * B^-1[i][n] * B^-1[n][j]``: adj(A) =
    c * x y^T with A x = 0 and y^T A = 0, so B^-1[:n, n] = x / (v.x),
    B^-1[n, :n] = y^T / (y.u) and det(B) = -c (v.x)(y.u).  B is invertible
    when v.x != 0 and y.u != 0, so a draw succeeds with probability at least
    (1 - 1/p)^2; a singular B is drawn again.  Any other field raises
    ``UsageError``."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise UsageError("adjugate of a non-square matrix")
    fac = eliminate(A, field, inverse=True)
    p = field.p
    if fac.inverse is not None:
        return [[fac.det * x % p for x in row] for row in fac.inverse]
    if fac.rank < n - 1:
        return [[0] * n for _ in range(n)]
    rng = random.Random(0)
    while True:
        u = [field.sample(rng) for _ in range(n)]
        v = [field.sample(rng) for _ in range(n)]
        B = [*([*row, x] for row, x in zip(A, u)), [*v, 0]]
        border = eliminate(B, field, inverse=True)
        if border.inverse is not None:
            break
    X, scale = border.inverse, p - border.det
    return [[scale * X[i][n] * y % p for y in X[n][:n]] for i in range(n)]


def grad_det_at(P, point: dict, field) -> dict:
    """All partial derivatives of det(P) with respect to its variables.

    For each variable g, sums the cofactors of the evaluated matrix at the
    occurrence positions of g (Jacobi's formula: d det = tr(adj(A) dA)),
    reading ``adjugate``.  Defined also when the evaluation is singular.
    """
    if not P.is_square:
        raise UsageError("gradient of det needs a square matrix")
    adj = adjugate(P.evaluate(point), field)
    out: dict = {}
    for g, occ in P.occurrences().items():
        for r, c in occ:
            out[g] = field.add(out.get(g, field.zero), adj[c][r])
    return out


def block_grad_det_adj(P, point: dict, field) -> dict:
    """``detcalc.block_grad_det_at`` read off ``adjugate``: (block j,
    variable g) -> the sum of adj(A)[c][r], A = P(point), over the
    occurrences (r, c) of g in the columns of block j.  Defined also when
    the evaluation is singular."""
    adj = adjugate(P.evaluate(point), field)
    out: dict = {}
    for g, occ in P.occurrences().items():
        for r, c in occ:
            k = (P.col_labels[c].block, g)
            out[k] = field.add(out.get(k, field.zero), adj[c][r])
    return out


def hessian_det_at(P, point: dict, field) -> tuple:
    """(labels, H), the Hessian of det(P) at ``point`` over GF(p), by the
    program's own route: P eliminated once with its inverse, then
    ``detcalc._hessian_core``, whose packed K is unpacked
    (``unpack_hessian``) and scaled by det(P).  A point where P is singular
    raises ``UsageError``."""
    if not P.is_square:
        raise UsageError("Hessian of det needs a square matrix")
    fac = eliminate(P.evaluate(point), field, inverse=True)
    if fac.inverse is None:
        raise UsageError(f"the Hessian of det(P) needs P invertible, and P is "
                         f"singular at this point over {field!r}")
    labels = P.variables()
    K = unpack_hessian(labels, _hessian_core(fac.inverse, P.occurrences(), labels, field.p),
                       field.p)
    return labels, [[fac.det * x % field.p for x in row] for row in K]


def unpack_hessian(labels, packed, p) -> list:
    """The full matrix K over ``labels`` from the packed upper-triangle rows
    ``(rows, size, order)`` of ``detcalc._hessian_core``: row k holds
    K[order[k]][order[j]] for j >= k, unreduced, in little-endian slots of
    ``size`` bytes.  Each entry is reduced mod p, mirrored, and put back in
    the order of ``labels``; a row that overflows its slots raises
    ``OverflowError``."""
    rows, size, order = packed
    n = len(labels)
    pos = [labels.index(g) for g in order]
    assert sorted(pos) == list(range(n)) and len(rows) == n
    K = [[None] * n for _ in range(n)]
    for k, row in enumerate(rows):
        data = row.to_bytes((n - k) * size, "little")
        for j in range(k, n):
            x = int.from_bytes(data[(j - k) * size:(j - k + 1) * size], "little")
            K[pos[k]][pos[j]] = K[pos[j]][pos[k]] = x % p
    return K


def trace_route_Kw(P, fac: Elimination, w: dict, p: int) -> dict:
    """K.w over GF(p) by the trace route, for K = H / det(P) at the point
    that ``fac`` factors: ``(K.w)_a = t_a * (t.w) - sum (X W X)[c][r]`` over
    the occurrences (r, c) of a, with X = P(point)^-1 read off ``fac``,
    W = P(w) and ``t_a = sum X[c][r]`` over the same occurrences.  Two
    N x N products, and none of ``detcalc._hessian_core``'s classes,
    runs, offsets or packed rows.  A wrong K gives the same product at a
    uniform w with probability at most 1/p (Freivalds' check)."""
    X, occ, labels = fac.inverse, P.occurrences(), P.variables()
    t = {a: sum(X[c][r] for r, c in occ[a]) % p for a in labels}
    XWX = _matmul(_matmul(X, P.evaluate(w), p), X, p)
    tw = sum(t[a] * w[a] for a in labels)
    return {a: (t[a] * tw - sum(XWX[c][r] for r, c in occ[a])) % p for a in labels}


def _matmul(A, B, p) -> list:
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) % p for col in cols] for row in A]


def pack_symmetric(A, p) -> tuple:
    """``(rows, size)`` for ``detcalc._eliminate_symmetric`` from the
    symmetric A: its upper triangle reduced mod p, the nonzero diagonal
    entries first (permuting rows and columns together keeps rank and det),
    in slots of the general body's width, ``p + n * p * (p - 1) < 2^W``."""
    n = len(A)
    size = ((p + n * p * (p - 1)).bit_length() + 7) // 8
    order = sorted(range(n), key=lambda i: not A[i][i] % p)
    rows = [sum(A[i][j] % p << 8 * size * t for t, j in enumerate(order[k:]))
            for k, i in enumerate(order)]
    return rows, size


def jet_grad_det(P, point: dict, field) -> dict:
    """Gradient of det(P) read off first-order jet coefficients.

    Independent of the adjugate route: the matrix is evaluated over the base
    field extended by one infinitesimal per variable and the determinant is
    computed in that ring.
    """
    if not P.is_square:
        raise UsageError("gradient of det needs a square matrix")
    ring = JetRing(field, order=1)
    vars_ = P.variables()
    idx = {g: i for i, g in enumerate(vars_)}
    numeric = P.evaluate(point)
    jets = [
        [
            ring.constant(numeric[r][c])
            if g is None or g not in idx
            else ring.variable(numeric[r][c], idx[g])
            for c, g in enumerate(row)
        ]
        for r, row in enumerate(P.entries)
    ]
    det = eliminate_ring(jets, ring).det
    return {g: det.d1.get(idx[g], field.zero) for g in vars_}


def jet_hessian_entry(P, point: dict, field, alpha, beta):
    """One second partial of det(P) via two-infinitesimal second-order jets."""
    if not P.is_square:
        raise UsageError("Hessian of det needs a square matrix")
    ring = JetRing(field, order=2)
    numeric = P.evaluate(point)
    same = alpha == beta
    jets = []
    for r, row in enumerate(P.entries):
        jrow = []
        for c, g in enumerate(row):
            v = numeric[r][c]
            if g == alpha:
                jrow.append(ring.variable(v, 0))
            elif g == beta:
                jrow.append(ring.variable(v, 1))
            else:
                jrow.append(ring.constant(v))
        jets.append(jrow)
    det = eliminate_ring(jets, ring).det
    if same:
        coeff = det.d2.get((0, 0), field.zero)
        return field.add(coeff, coeff)
    return det.d2.get((0, 1), field.zero)


def expand_det_poly(P, ambient: list) -> SparsePoly:
    """Symbolic determinant of a small pattern as a polynomial in the ambient
    coordinates (permutation expansion; guarded to tiny sizes)."""
    if not P.is_square:
        raise UsageError("determinant of a non-square matrix")
    k = P.nrows
    if k > 6:
        raise UsageError("symbolic expansion is limited to size <= 6")
    idx = {g: i for i, g in enumerate(ambient)}
    nv = len(ambient)
    terms: dict = {}
    for perm in permutations(range(k)):
        exps = [0] * nv
        ok = True
        for r, c in enumerate(perm):
            g = P.entries[r][c]
            if g is None:
                ok = False
                break
            exps[idx[g]] += 1
        if not ok:
            continue
        sign = _perm_sign(perm)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + sign
    return SparsePoly(nv, {g: Fraction(c) for g, c in terms.items() if c})


def _perm_sign(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def jet_bilinear(P, point, field, u: dict, w: dict):
    """u^T H w for the Hessian H of det(P) at ``point``, without P^-1.

    The st-coefficient of det(P(x + s*u + t*w)), computed as one determinant
    over second-order jets in s and t; ``u`` and ``w`` map variables to field
    elements, a missing variable counting as 0.  Unit vectors give single
    entries of H, and the elimination needs no inverse of P(x), so singular
    points are covered too.  For random u and w over GF(p), a wrong H passes
    with probability at most 2/p (Schwartz-Zippel in u and w).
    """
    numeric = P.evaluate(point)
    jets = []
    for row, vals in zip(P.entries, numeric):
        jrow = []
        for g, v in zip(row, vals):
            d1 = {} if g is None else {i: x for i, x in ((0, u.get(g)), (1, w.get(g))) if x}
            jrow.append(Jet(v, d1))
        jets.append(jrow)
    det = eliminate_ring(jets, JetRing(field, order=2)).det
    return det.d2.get((0, 1), field.zero)


def _reversed_within_groups(labels, degree) -> list:
    # Positions of ``labels`` with each run of one degree read backwards.
    first: dict = {}
    for i, lab in enumerate(labels):
        first.setdefault(degree(lab), i)
    return sorted(range(len(labels)), key=lambda i: (first[degree(labels[i])], -i))


def reverse_within_degree(P) -> SymbolicMatrix:
    """P with the lex order inside each degree reversed on its rows and on its
    columns: a permutation of both, so det is kept up to sign."""
    rows = _reversed_within_groups(P.row_labels, sum)
    cols = _reversed_within_groups(P.col_labels, lambda lab: sum(lab.sigma))
    entries = [[P.entries[r][c] for c in cols] for r in rows]
    return SymbolicMatrix(entries, [P.row_labels[r] for r in rows],
                          [P.col_labels[c] for c in cols], P.params)
