"""Relation matrix of determinant gradients and vanishing-Hessian certificates.

For the square two-variable family with m = d+2, adding shifted multiples of
the base column block to the higher blocks leaves det(P) unchanged; reading
the derivative of that invariance in the auxiliary coefficients yields linear
relations sum_b c_b f^(j)_{a+b} = 0, where f^(j)_g is the cofactor sum of
det(P) over the occurrences of c_g inside block C_j.  In this family a
variable occurs in two adjacent blocks, so the block-restricted sums f^(j)_g
are the objects the identity genuinely constrains (their sum over blocks is
the full partial derivative f_g).  The identity M.c = 0 holds at every point;
as c is nonzero, the rank of M stays below its number of columns.

Certificates report randomized polynomial identity tests: a nonzero value
modulo any prime certifies a nonzero polynomial, while an all-zero run leaves
a quantified Schwartz-Zippel failure probability.  A Pade certificate reads
only the outcome of the non-defectiveness gate, which its caller runs first,
and covers the variables of det(P); the ambient one is derived from it.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field as dc_field, replace

from .detcalc import block_grad_det_at, eliminate, hessian_from_factor
from .errors import DomainError, UnsupportedParametersError, UsageError
from .fields import PRIMES_62, PrimeField, derive_seed, point_hash, random_point
from .series import DOMAIN_ORDER, SparsePoly, exp_add, monomials_of_degree
from .variety import HypersurfaceCheck, TaylorParams

VANISHES = "vanishes-probabilistic"
NONZERO = "nonzero-certified"


def relations_apply(params: TaylorParams) -> bool:
    """Whether the relation identity is built for these parameters: the
    square two-variable family with m = d+2."""
    return params.n == 2 and params.m == params.d + 2 and params.is_square


def _require_relation_params(params: TaylorParams):
    if not relations_apply(params):
        raise UnsupportedParametersError(
            f"the relation matrix needs n = 2, m = d + 2 and a square Pade "
            f"matrix, not {params.astuple()}"
        )


def relation_column_labels(params: TaylorParams) -> list:
    """Exponents b with |b| in {d-e+2, d-e+1}: higher degree block first,
    lex decreasing within each degree."""
    d, e = params.d, params.e
    out = list(monomials_of_degree(2, d - e + 2))
    out.extend(monomials_of_degree(2, d - e + 1))
    return out


@dataclass(frozen=True)
class RelationMatrix:
    """Stacked blocks M_j with entries f_{a+b}, j = d+2 down to d-e+3."""

    params: TaylorParams
    row_labels: tuple  # (j, alpha) pairs
    col_labels: tuple  # beta exponents
    rows: tuple  # numeric entries

    @property
    def shape(self):
        return (len(self.rows), len(self.col_labels))


def build_M(params: TaylorParams, block_grad: dict, field) -> RelationMatrix:
    """Relation matrix from the per-block gradient of det(P).

    ``block_grad`` maps (block j, exponent g) to the cofactor sum of the
    occurrences of c_g inside block C_j (see ``block_grad_det_at``).  Row
    (j, alpha) holds the values f^(j)_{alpha+beta} over the column labels
    beta; every row annihilates the coefficient vector c.
    """
    _require_relation_params(params)
    d, e, m = params.d, params.e, params.m
    base = d - e + 2
    cols = relation_column_labels(params)
    row_labels = []
    rows = []
    for j in range(m, base, -1):
        dj = j - base
        for alpha in sorted(monomials_of_degree(2, dj), key=DOMAIN_ORDER.key):
            row = []
            for beta in cols:
                g = (j, exp_add(alpha, beta))
                if g not in block_grad:
                    raise UsageError(f"block gradient is missing {g}")
                row.append(block_grad[g])
            row_labels.append((j, alpha))
            rows.append(tuple(row))
    M = RelationMatrix(params, tuple(row_labels), tuple(cols), tuple(rows))
    expect_rows = (e + 1) * (e + 2) // 2 - 1
    expect_cols = 2 * d - 2 * e + 5
    assert M.shape == (expect_rows, expect_cols)
    return M


def relation_residual(M: RelationMatrix, point: dict, field) -> list:
    """M.c with c the coefficient vector read off the point."""
    c = [point[b] for b in M.col_labels]
    out = []
    for row in M.rows:
        s = field.zero
        for x, y in zip(row, c):
            s = field.add(s, field.mul(x, y))
        out.append(s)
    return out


def relation_check(params: TaylorParams, point: dict, field) -> dict:
    """The relation identity M.c = 0 and the rank of M at one point.

    The Pade matrix ``params.pade`` is eliminated once (for its per-block
    gradient) and M once.  The coefficient vector c is nonzero and lies in
    the kernel of M, so the rank of M stays below ``rank_bound``, the number
    of columns of M.
    """
    _require_relation_params(params)
    M = build_M(params, block_grad_det_at(params.pade, point, field), field)
    return {
        "residual_is_zero": all(
            field.is_zero(x) for x in relation_residual(M, point, field)
        ),
        "rank_M": eliminate(M.rows, field).rank,
        "rank_bound": len(M.col_labels),
    }


@dataclass(frozen=True)
class TrialRecord:
    index: int
    seed: int
    prime: int
    point_digest: str
    value: int
    corank: int


@dataclass(frozen=True)
class Certificate:
    """Verdict of a randomized vanishing test with its error accounting.

    ``error_bound`` is the probability that a nonzero polynomial of the given
    degree bound evaluates to zero at every recorded point: the product of
    degree_bound/p over the all-zero trials.  It applies to the
    vanishes-probabilistic verdict; a nonzero-certified verdict is exact.

    The bound assumes that det(H), reduced mod p, is a nonzero polynomial of
    total degree at most ``degree_bound`` (Schwartz-Zippel); a polynomial
    whose coefficients are all divisible by p is outside it.  A Pade trial
    resamples while P is singular at its point, which conditions the sample
    on det(P) != 0, an event of probability at least 1 - size/p for P of
    order ``size``; that multiplies the per-trial bound by 1/(1 - size/p).
    The reported bound leaves this factor out: for the builtin 62-bit primes
    and P of order below 400 it is under 1 + 1e-16 per trial.

    A degree bound of 0 means det(H) is a constant, so one zero value proves
    it zero: the bound is then 0 and ``error_bound_log10`` is None.
    """

    target: str
    verdict: str
    degree_bound: int
    trials: tuple
    error_bound: float | None
    error_bound_log10: float | None
    notes: tuple = dc_field(default=())

    def to_dict(self):
        return asdict(self)


def _finish_certificate(target, degree_bound, records):
    if not records:
        raise UsageError("need at least one trial")
    if all(t.value == 0 for t in records):
        verdict = VANISHES
        if degree_bound == 0:
            bound, log10 = 0.0, None
        else:
            log10 = sum(math.log10(degree_bound) - math.log10(t.prime)
                        for t in records)
            log10 = min(log10, 0.0)
            bound = 10.0 ** log10 if log10 > -320 else 0.0
    else:
        verdict = NONZERO
        bound = None
        log10 = None
    return Certificate(
        target=target,
        verdict=verdict,
        degree_bound=degree_bound,
        trials=tuple(records),
        error_bound=bound,
        error_bound_log10=log10,
    )


def _require_prime_field(ctx):
    if ctx is not None and not isinstance(ctx, PrimeField):
        raise UsageError(
            "a certificate needs a prime field: its error bound multiplies "
            "degree_bound/p over the trials"
        )


def _trial_field(ctx, t: int) -> PrimeField:
    if ctx is not None:
        return ctx
    return PrimeField(PRIMES_62[t % len(PRIMES_62)])


def _hessian_trials(trials: int, ctx, sample, stop_at_full_rank=False) -> list:
    """One record per trial.  ``sample(t, fld)`` returns ``(seed, point, H)``
    over the trial's field; H is eliminated once for its det and corank.
    With ``stop_at_full_rank`` the loop ends after the first trial whose H
    has corank 0."""
    records = []
    for t in range(trials):
        fld = _trial_field(ctx, t)
        trial_seed, point, H = sample(t, fld)
        h = eliminate(H, fld)
        records.append(
            TrialRecord(
                index=t,
                seed=trial_seed,
                prime=fld.p,
                point_digest=point_hash(point),
                value=h.det,
                corank=len(H) - h.rank,
            )
        )
        if stop_at_full_rank and h.rank == len(H):
            break
    return records


def certify_hessian_pade(
    check: HypersurfaceCheck,
    trials: int = 20,
    seed=0,
    ctx: PrimeField | None = None,
    stop_at_full_rank: bool = False,
) -> Certificate:
    """Essential certificate of det(Hessian of det(P)) == 0, where P is
    ``check.params.pade`` and ``check`` the outcome of the caller's run of the
    non-defective-hypersurface gate (``variety``).  A failing check is refused
    with ``DomainError``: there the determinant may be identically zero and
    the question is moot.  A passing check is exact (det(P) certified
    nonzero, Jacobian rank at the expected dimension, its upper bound), so
    one gate serves a whole case.

    Each trial samples a fresh point over a rotating 62-bit prime, resampling
    up to 8 times if the evaluated Pade matrix happens to be singular (and
    raising ``DomainError`` if it is singular at all 9 points), and records
    det(H) and the corank of H, the Hessian over the variables of P;
    P is eliminated once per sampled point and H once per trial.  The
    ``full`` certificate is derived from these trials (``full_from_essential``).

    ``stop_at_full_rank`` ends the trials after the first H of corank 0.
    That trial fixes the minimum corank (0) and the verdicts of both
    certificates exactly, but the certificate then lists only the trials
    run, and its error bound covers only those.
    """
    _require_prime_field(ctx)
    params = check.params
    if not check.is_nondefective_hypersurface:
        raise DomainError(
            f"refusing Hessian certificate for {params.astuple()}: "
            f"verdict {check.verdict!r} "
            f"(det nonzero in {check.det_nonzero_count}/{check.det_trials} trials, "
            f"dimension {check.actual_dim} vs expected {check.expected_dim})"
        )
    P = params.pade
    variables = P.variables()

    def sample(t, fld):
        seeds = [derive_seed("hessian", seed, t)]
        seeds += [derive_seed("hessian", seed, t, "resample", r) for r in range(8)]
        for trial_seed in seeds:
            point = random_point(variables, fld, trial_seed)
            fac = eliminate(P.evaluate(point, fld), fld, inverse=True)
            if fac.inverse is not None:
                return trial_seed, point, hessian_from_factor(P, fac, fld)
        raise DomainError(
            f"Hessian trial {t}: the Pade matrix is singular mod {fld.p} at "
            f"all {len(seeds)} sampled points; use a larger prime"
        )

    return _finish_certificate(
        f"hessian-det[pade{params.astuple()}, essential]",
        len(variables) * max(P.nrows - 2, 0),
        _hessian_trials(trials, ctx, sample, stop_at_full_rank),
    )


def full_from_essential(essential: Certificate, params: TaylorParams) -> Certificate:
    """The certificate over all ambient coordinates c_g, |g| <= m, implied
    trial by trial by the certificate over the variables of ``params.pade``.

    A coordinate absent from det(P) adds a zero row and column to the ambient
    Hessian, and ordering the ambient coordinates permutes rows and columns
    together.  So with ``absent`` such coordinates the ambient det is 0 when
    ``absent > 0`` and the essential det otherwise, and the ambient corank is
    the essential corank plus ``absent``.  Points, seeds and primes are those
    of the essential trials; the degree bound counts all ambient coordinates.
    """
    P = params.pade
    absent = params.ambient_coords - len(P.variables())
    records = [
        replace(t, value=0 if absent else t.value, corank=t.corank + absent)
        for t in essential.trials
    ]
    return _finish_certificate(
        f"hessian-det[pade{params.astuple()}, full]",
        params.ambient_coords * max(P.nrows - 2, 0),
        records,
    )


def certify_hessian_poly(
    f: SparsePoly, trials: int = 20, seed=0, ctx: PrimeField | None = None
) -> Certificate:
    """Probabilistic test of det(Hessian of f) == 0 for an explicit polynomial."""
    _require_prime_field(ctx)
    if not f.is_homogeneous() or f.degree() < 2:
        raise UsageError("need a homogeneous polynomial of degree >= 2")
    V = f.nvars
    second = [[None] * V for _ in range(V)]
    for i in range(V):
        fi = f.diff(i)
        for j in range(i, V):
            second[i][j] = second[j][i] = fi.diff(j)

    def sample(t, fld):
        trial_seed = derive_seed("poly-hessian", seed, t)
        rng = random.Random(trial_seed)
        values = [fld.sample(rng) for _ in range(V)]
        H = [[second[i][j].eval(fld, values) for j in range(V)] for i in range(V)]
        return trial_seed, dict(enumerate(values)), H

    records = _hessian_trials(trials, ctx, sample)
    target = f"hessian-det[poly, {V} vars, degree {f.degree()}]"
    return _finish_certificate(target, V * (f.degree() - 2), records)
