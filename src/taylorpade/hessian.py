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
only the outcome of the non-defectiveness gate, which ``run_case`` runs first,
and covers the variables of det(P); the ambient one is derived from it.
"""

from __future__ import annotations

import math
import random
from operator import mul
from typing import NamedTuple

from .detcalc import block_grad_det_at, eliminate, hessian_at
from .errors import UsageError
from .fields import DEFAULT_FIELD, PRIMES_62, PrimeField, derive_seed, point_hash, random_point
from .pade import lambda_shape
from .series import SparsePoly, exp_add, monomials_of_degree
from .variety import HypersurfaceCheck, TaylorParams, nondefective_hypersurface_check

VANISHES = "vanishes-probabilistic"
NONZERO = "nonzero-certified"
GATE_TRIALS = 8


def relations_apply(params: TaylorParams) -> bool:
    """Whether the relation identity is built for these parameters: the
    square two-variable family with m = d+2.  Outside it ``build_M`` and
    ``relation_check`` raise ``UsageError``."""
    return params.n == 2 and params.m == params.d + 2 and params.is_square


def _require_relation_params(params: TaylorParams):
    if not relations_apply(params):
        raise UsageError(
            f"the relation matrix needs n = 2, m = d + 2 and a square Pade "
            f"matrix, not {tuple(params)}"
        )


def relation_column_labels(params: TaylorParams) -> list:
    """Exponents b with |b| in {d-e+2, d-e+1}: higher degree block first,
    lex decreasing within each degree."""
    d, e = params.d, params.e
    out = list(monomials_of_degree(2, d - e + 2))
    out.extend(monomials_of_degree(2, d - e + 1))
    return out


class RelationMatrix(NamedTuple):
    """Stacked blocks M_j with entries f_{a+b}, j = d+2 down to d-e+3."""

    row_labels: tuple  # (j, alpha) pairs
    col_labels: tuple  # beta exponents
    rows: tuple  # numeric entries

    @property
    def shape(self):
        return (len(self.rows), len(self.col_labels))


def build_M(params: TaylorParams, block_grad: dict) -> RelationMatrix:
    """Relation matrix from the per-block gradient of det(P).

    ``block_grad`` maps (block j, exponent g) to the cofactor sum of the
    occurrences of c_g inside block C_j (see ``block_grad_det_at``).  Row
    (j, alpha) holds the values f^(j)_{alpha+beta} over the column labels
    beta; every row annihilates the coefficient vector c.
    """
    _require_relation_params(params)
    cols = relation_column_labels(params)
    row_labels = tuple((j, alpha) for j, alphas in reversed(lambda_shape(params).items())
                       for alpha in alphas)
    try:
        rows = tuple(tuple(block_grad[j, exp_add(alpha, beta)] for beta in cols)
                     for j, alpha in row_labels)
    except KeyError as exc:
        raise UsageError(f"block gradient is missing {exc.args[0]}") from None
    M = RelationMatrix(row_labels, tuple(cols), rows)
    d, e = params.d, params.e
    expect_rows = (e + 1) * (e + 2) // 2 - 1
    expect_cols = 2 * d - 2 * e + 5
    assert M.shape == (expect_rows, expect_cols)
    return M


def relation_residual(M: RelationMatrix, point: dict, field) -> list:
    """M.c over GF(p), p = ``field.p``, with c the coefficient vector read
    off the point."""
    c = [point[b] for b in M.col_labels]
    return [sum(map(mul, row, c)) % field.p for row in M.rows]


def relation_check(params: TaylorParams, point: dict, fac, field) -> dict:
    """The relation identity M.c = 0 and the rank of M at ``point``.

    M is built from ``fac``, the elimination of ``params.pade`` there with
    its inverse (``Certificate.first`` keeps trial 0's), and eliminated once.
    The coefficient vector c is nonzero and lies in the kernel of M, so the
    rank of M stays below ``rank_bound``, the number of columns of M.
    """
    _require_relation_params(params)
    M = build_M(params, block_grad_det_at(params.pade, fac, field))
    return {
        "residual_is_zero": not any(relation_residual(M, point, field)),
        "rank_M": eliminate(M.rows, field).rank,
        "rank_bound": len(M.col_labels),
    }


class TrialRecord(NamedTuple):
    index: int
    seed: int
    prime: int
    point_digest: str
    value: int
    corank: int


class Certificate(NamedTuple):
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
    The reported bound leaves this factor out: per trial it is under 1 + 1e-16
    for a 62-bit prime and size < 400, and under 1 + 3e-7 for size <= 253 at
    ``fields.SURVEY_PRIME`` = 2^30 - 35.

    A degree bound of 0 means det(H) is a constant, so one zero value proves
    it zero: the bound is then 0 and ``error_bound_log10`` is None.

    ``first``, never printed, holds an essential Pade certificate's trial 0
    for ``relation_check``: (point, P's elimination there with inverse, field).
    It is the essential record's trial-0 evidence, which ``run_case`` hands on.
    """

    target: str
    verdict: str
    degree_bound: int
    trials: tuple
    error_bound: float | None
    error_bound_log10: float | None
    notes: tuple = ()
    first: tuple | None = None

    def to_dict(self):
        out = {**self._asdict(), "trials": [t._asdict() for t in self.trials]}
        del out["first"]
        return out


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


def _hessian_trials(trials: int, primes, n: int, sample, stop_at_full_rank=False) -> list:
    """One record per trial, trial t over GF(``primes[t % len(primes)]``).
    ``sample(t, fld)`` returns ``(seed, point, rank, det)``, the rank and det
    of the trial's n x n Hessian over ``fld``.  With ``stop_at_full_rank``
    the loop ends after the first trial whose Hessian has corank 0."""
    fields = [PrimeField(p) for p in primes]  # each prime tested once, not per trial
    records = []
    for t in range(trials):
        fld = fields[t % len(fields)]
        trial_seed, point, rank, det = sample(t, fld)
        records.append(
            TrialRecord(
                index=t,
                seed=trial_seed,
                prime=fld.p,
                point_digest=point_hash(point),
                value=det,
                corank=n - rank,
            )
        )
        if stop_at_full_rank and rank == n:
            break
    return records


def certify_hessian_pade(
    check: HypersurfaceCheck,
    trials: int = 20,
    seed=0,
    primes: tuple = PRIMES_62,
    stop_at_full_rank: bool = False,
) -> Certificate:
    """Essential certificate of det(Hessian of det(P)) == 0, where P is
    ``check.params.pade`` and ``check`` the outcome of the caller's run of the
    non-defective-hypersurface gate (``variety``).  A failing check is refused
    with ``UsageError``: there the determinant may be identically zero and
    the question is moot.  A passing check is exact (det(P) certified
    nonzero, Jacobian rank at the expected dimension, its upper bound), so
    one gate serves a whole case.

    Trial t samples a fresh point over GF(``primes[t % len(primes)]``) and
    eliminates P there once, with its inverse, resampling up to 8 times
    while P is singular (raising ``UsageError`` if it is singular at all 9
    points).  ``detcalc.hessian_at`` reads det(H) and the corank of H, the
    Hessian over the variables of P, off that factorisation; trial 0's is
    kept as ``first``.  The ``full`` certificate is derived from these
    trials (``full_from_essential``).

    ``stop_at_full_rank`` ends the trials after the first H of corank 0.
    That trial fixes the minimum corank (0) and the verdicts of both
    certificates exactly, but the certificate then lists only the trials
    run, and its error bound covers only those.
    """
    params = check.params
    if not check.is_nondefective_hypersurface:
        raise UsageError(
            f"refusing Hessian certificate for {tuple(params)}: "
            f"verdict {check.verdict!r} "
            f"(det nonzero in {check.det_nonzero_count}/{check.det_trials} trials, "
            f"dimension {check.actual_dim} vs expected {check.expected_dim})"
        )
    P = params.pade
    variables = P.variables()
    V = len(variables)
    first = None

    def sample(t, fld):
        nonlocal first
        seeds = [derive_seed("hessian", seed, t)]
        seeds += [derive_seed("hessian", seed, t, "resample", r) for r in range(8)]
        for trial_seed in seeds:
            point = random_point(variables, fld, trial_seed)
            fac = eliminate(P.evaluate(point), fld, inverse=True)
            if fac.inverse is not None:
                first = first or (point, fac, fld)
                return trial_seed, point, *hessian_at(P, fac, fld)
        raise UsageError(
            f"Hessian trial {t}: the Pade matrix is singular mod {fld.p} at "
            f"all {len(seeds)} sampled points; use a larger prime"
        )

    return _finish_certificate(
        f"hessian-det[pade{tuple(params)}, essential]",
        V * max(P.nrows - 2, 0),
        _hessian_trials(trials, primes, V, sample, stop_at_full_rank),
    )._replace(first=first)


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
        t._replace(value=0 if absent else t.value, corank=t.corank + absent)
        for t in essential.trials
    ]
    return _finish_certificate(
        f"hessian-det[pade{tuple(params)}, full]",
        params.ambient_coords * max(P.nrows - 2, 0),
        records,
    )


class Case(NamedTuple):
    """One Pade case's stage records, from ``run_case``: the certificates are
    named after ``--mode``'s choices, and a survey's failing gate is Case(gate)."""

    gate: HypersurfaceCheck
    essential: Certificate | None = None
    full: Certificate | None = None
    relations: dict | None = None


def run_case(params: TaylorParams, gate_field=DEFAULT_FIELD, primes: tuple = PRIMES_62,
             trials: int = 20, seed=0, survey: bool = False) -> Case:
    """One Pade case, as ``hessian`` and ``survey`` run it, so that a survey
    row reproduces from a hessian run: a ``Case``, which reports read by field.
    The gate samples up to ``GATE_TRIALS`` points over ``gate_field`` from
    ``derive_seed("gate", seed)`` and passes at the first nonzero det; the
    certificate runs over ``primes`` and refuses a failing gate.  The relation
    check, None where ``relations_apply`` is false, reads the certificate's
    trial 0.  Positive outcomes are exact over any prime; each negative one
    misses the generic value with probability at most degree/p per trial,
    below 3.4e-3 at 2^30 - 35 for every case that ``pade.MAX_CELLS`` admits
    (README, "Command line").

    ``survey`` makes the survey's two choices: a failing gate runs no later
    stage and returns ``Case(gate)``, and the trials stop at the first H of
    corank 0, which fixes both printed fields over any prime.
    """
    check = nondefective_hypersurface_check(params, trials=GATE_TRIALS, ctx=gate_field,
                                            seed=derive_seed("gate", seed), stop_at_nonzero=True)
    if survey and not check.is_nondefective_hypersurface:
        return Case(check)
    essential = certify_hessian_pade(check, trials, seed, primes, stop_at_full_rank=survey)
    full = full_from_essential(essential, params)
    relations = relation_check(params, *essential.first) if relations_apply(params) else None
    return Case(check, essential, full, relations)


def certify_hessian_poly(
    f: SparsePoly, trials: int = 20, seed=0, primes: tuple = PRIMES_62
) -> Certificate:
    """Probabilistic test of det(Hessian of f) == 0 for an explicit polynomial,
    trial t over GF(``primes[t % len(primes)]``)."""
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
        h = eliminate(H, fld)
        return trial_seed, dict(enumerate(values)), h.rank, h.det

    records = _hessian_trials(trials, primes, V, sample)
    target = f"hessian-det[poly, {V} vars, degree {f.degree()}]"
    return _finish_certificate(target, V * (f.degree() - 2), records)
