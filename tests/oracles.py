"""Independent routes the tests check the program against.

The coefficient map (p, q) -> (c_g) of a Taylor variety, expanded the direct
way: the series sum, product and inverse, and from them the full Jacobian of
the map.  The program ranks the reduced Pade matrix at T = p/q instead
(``variety.actual_dimension``); these give the same rank by another route.
Membership of a coefficient vector in the variety, read off the kernel of
the Pade matrix at it.

The bilinear form of the Hessian of det(P), read off one determinant of
second-order jets (``jet_bilinear``); the program assembles H from P^-1
instead (``detcalc.hessian_det_at``).
"""

from __future__ import annotations

from taylorpade.detcalc import eliminate
from taylorpade.errors import DomainError, UsageError
from taylorpade.fields import Jet, JetRing
from taylorpade.series import (
    DOMAIN_ORDER,
    TruncatedSeries,
    exp_add,
    exp_sub,
    monomials_upto,
)


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
        raise DomainError("series_inverse requires constant term exactly 1")
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
        layer = {g: f.neg(c) for g, c in acc.items() if not f.is_zero(c)}
        if layer:
            by_degree[k] = layer
            r.update(layer)
    return TruncatedSeries(f, q.nvars, order, r)


def psi_jacobian(pq, params):
    """Jacobian of the coefficient map (p, q) -> (c_g) at the given pair.

    Columns are d/dp_b followed by d/dq_b over the free coefficients
    (0 < |b| <= d resp. e); rows run over 0 < |g| <= m.  The column series are
    exact:  dT/dp_b = x^b / q  and  dT/dq_b = -x^b p / q^2, truncated at m.
    """
    n, d, e, m = params.astuple()
    field = pq.p.field
    qinv = series_inverse(pq.q, m)
    p_over_q2 = series_mul(series_mul(pq.p, qinv, m), qinv, m)
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
            row.append(field.neg(p_over_q2.coeff(h)) if h is not None else field.zero)
        jac.append(row)
    return rows, p_cols + q_cols, jac


def membership(T: dict, params, ctx) -> bool:
    """Whether the coefficient vector admits a nonzero annihilating Q.

    True iff the Pade matrix evaluated at T has non-trivial kernel, i.e. rank
    strictly below its column count.  The constant coordinate is taken as 1.
    """
    P = params.pade
    A = P.evaluate(T, ctx)
    return eliminate(A, ctx).rank < P.ncols


def jet_bilinear(P, point, field, u: dict, w: dict):
    """u^T H w for the Hessian H of det(P) at ``point``, without P^-1.

    The st-coefficient of det(P(x + s*u + t*w)), computed as one determinant
    over second-order jets in s and t; ``u`` and ``w`` map variables to field
    elements, a missing variable counting as 0.  Unit vectors give single
    entries of H, and the elimination needs no inverse of P(x), so singular
    points are covered too.  For random u and w over GF(p), a wrong H passes
    with probability at most 2/p (Schwartz-Zippel in u and w).
    """
    numeric = P.evaluate(point, field)
    jets = []
    for row, vals in zip(P.entries, numeric):
        jrow = []
        for g, v in zip(row, vals):
            d1 = {} if g is None else {i: x for i, x in ((0, u.get(g)), (1, w.get(g))) if x}
            jrow.append(Jet(v, d1))
        jets.append(jrow)
    det = eliminate(jets, JetRing(field, order=2)).det
    return det.d2.get((0, 1), field.zero)
