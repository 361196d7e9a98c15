import ast
import json
import random
import sys
import weakref
from pathlib import Path

import pytest

import taylorpade.cli as cli_mod
import taylorpade.detcalc as detcalc_mod
import taylorpade.hessian as hessian_mod
import taylorpade.pade as pade_mod
import taylorpade.variety as variety_mod

from taylorpade.detcalc import block_grad_det_at, eliminate, hessian_at, hessian_plan
from taylorpade.errors import UsageError
from taylorpade.fields import (
    DEFAULT_FIELD,
    PRIMES_62,
    SURVEY_PRIME,
    PrimeField,
    Rationals,
    derive_seed,
    point_hash,
    random_point,
)
from taylorpade.hessian import (
    GATE_TRIALS,
    NONZERO,
    VANISHES,
    build_M,
    certify_hessian_pade,
    certify_hessian_poly,
    full_from_essential,
    relation_check,
    relation_column_labels,
    relation_residual,
)
from taylorpade.pade import pade_matrix
from taylorpade.series import SparsePoly, exp_add, monomials_upto
from taylorpade.variety import (
    TaylorParams,
    nondefective_hypersurface_check,
    square_family,
)

from oracles import (
    GF,
    block_grad_det_adj,
    expand_det_poly,
    grad_det_at,
    hessian_det_at,
    jet_bilinear,
)

P547 = TaylorParams(2, 5, 4, 7)
P8510 = TaylorParams(2, 8, 5, 10)


def _factor(P, point, field):
    """P's elimination at ``point`` with its inverse, which the relation
    check and the per-block gradient read."""
    return eliminate(P.evaluate(point), field, inverse=True)


def _gate(params, trials=GATE_TRIALS, seed=0):
    """The gate outcome a Pade certificate takes."""
    return nondefective_hypersurface_check(params, trials=trials, seed=seed,
                                           stop_at_nonzero=True)

PERAZZO = SparsePoly.from_terms(
    5, [((1, 0, 0, 2, 0), 1), ((0, 1, 0, 1, 1), 1), ((0, 0, 1, 0, 2), 1)]
)
FERMAT3 = SparsePoly.from_terms(3, [((3, 0, 0), 1), ((0, 3, 0), 1), ((0, 0, 3), 1)])
# two cubic tail terms appended to the Perazzo cubic (7 variables)
GEN_PERAZZO = SparsePoly.from_terms(
    7,
    [
        ((1, 0, 0, 2, 0, 0, 0), 1),
        ((0, 1, 0, 1, 1, 0, 0), 1),
        ((0, 0, 1, 0, 2, 0, 0), 1),
        ((0, 0, 0, 0, 0, 3, 0), 1),
        ((0, 0, 0, 0, 0, 0, 3), 1),
    ],
)


def test_relation_column_labels_layout():
    labels = relation_column_labels(P547)
    assert labels == [
        (3, 0), (2, 1), (1, 2), (0, 3),
        (2, 0), (1, 1), (0, 2),
    ]


def test_build_M_shape_and_row_layout(gf):
    P = pade_matrix(2, 5, 4, 7)
    pt = random_point(P.variables(), gf, 0)
    bg = block_grad_det_at(P, _factor(P, pt, gf))
    # det(P) * P^-1 is the adjugate: the reference reads the same sums
    assert bg == block_grad_det_adj(P, pt, gf)
    M = build_M(P547, bg)
    assert M.shape == (14, 7)
    assert M.row_labels[0] == (7, (4, 0))
    assert M.row_labels[-1] == (4, (0, 1))
    assert sum(j == 7 for j, _ in M.row_labels) == 5
    assert sum(j == 4 for j, _ in M.row_labels) == 2
    # the (j=4, alpha=(1,0)) row must hold the values tied to the variables
    # [c40 c31 c22 c13 | c30 c21 c12], i.e. alpha+beta over the column labels
    alpha = (1, 0)
    expected_vars = [exp_add(alpha, b) for b in M.col_labels]
    assert expected_vars == [
        (4, 0), (3, 1), (2, 2), (1, 3),
        (3, 0), (2, 1), (1, 2),
    ]
    row = M.rows[M.row_labels.index((4, alpha))]
    assert row == tuple(bg[(4, g)] for g in expected_vars)


def test_build_M_zero_gradient():
    zero_bg = {}
    P = pade_matrix(2, 5, 4, 7)
    for g, occ in P.occurrences().items():
        for _, c in occ:
            zero_bg[(P.col_labels[c].block, g)] = 0
    M = build_M(P547, zero_bg)
    assert all(all(x == 0 for x in row) for row in M.rows)


def test_build_M_parameter_guards():
    outside = "relation matrix needs n = 2, m = d [+] 2 and a square Pade matrix"
    with pytest.raises(UsageError, match=outside):
        build_M(TaylorParams(3, 2, 2, 3), {})
    with pytest.raises(UsageError, match=outside):
        build_M(TaylorParams(2, 5, 4, 6), {})
    with pytest.raises(UsageError, match=outside):
        build_M(TaylorParams(2, 4, 4, 6), {})  # square fails
    with pytest.raises(UsageError, match="block gradient is missing"):
        build_M(P547, {})  # missing entries


def test_relations_identity_random_points(gf):
    P = pade_matrix(2, 5, 4, 7)
    for t in range(10):
        pt = random_point(P.variables(), gf, derive_seed("rel", t))
        assert relation_check(P547, pt, _factor(P, pt, gf))["residual_is_zero"] is True


def test_relations_zero_point(gf):
    # P is zero there, so the program's relation check has no factorisation
    # to read; M from the oracle's adjugate is zero, and so is M.c
    P = pade_matrix(2, 5, 4, 7)
    pt = {g: 0 for g in P.variables()}
    M = build_M(P547, block_grad_det_adj(P, pt, gf))
    assert not any(relation_residual(M, pt, gf))


def test_rank_M_bounds(gf):
    P = pade_matrix(2, 5, 4, 7)
    for t in range(5):
        pt = random_point(P.variables(), gf, derive_seed("rk", t))
        rel = relation_check(P547, pt, _factor(P, pt, gf))
        assert rel["rank_bound"] == 7
        assert 1 <= rel["rank_M"] <= 6


@pytest.mark.parametrize("params", [
    TaylorParams(3, 2, 2, 3),  # n = 3
    TaylorParams(2, 1, 1, 2),  # m = d + 1
    TaylorParams(2, 4, 4, 6),  # m = d + 2, not square
])
def test_relation_check_rejects_params_outside_the_family(params, monkeypatch):
    shapes = _record_eliminations(monkeypatch)
    with pytest.raises(UsageError, match="relation matrix needs"):
        relation_check(params, {}, None)
    assert shapes == []


def test_corruption_is_detected(gf, monkeypatch):
    P = pade_matrix(2, 5, 4, 7)
    pt = random_point(P.variables(), gf, 55)
    fac = _factor(P, pt, gf)
    bg = block_grad_det_at(P, fac)
    key = (6, (5, 1))  # a variable read by block C_6 rows
    assert key in bg
    bg[key] = gf.add(bg[key], 1)
    M = build_M(P547, bg)
    res = relation_residual(M, pt, gf)
    assert any(x != 0 for x in res)
    # some rows of M.c break, not all: relation_check reads any nonzero row
    # as a broken identity
    assert not all(res)
    monkeypatch.setattr(hessian_mod, "block_grad_det_at", lambda *args: bg)
    assert relation_check(P547, pt, fac)["residual_is_zero"] is False


def test_full_gradient_does_not_satisfy_relations(gf):
    # Regression pin: with m = d+2 a variable occurs in two adjacent blocks,
    # and only the per-block cofactor sums satisfy the identity.  Feeding the
    # summed (full) partial derivatives into every block slot must fail.
    P = pade_matrix(2, 5, 4, 7)
    pt = random_point(P.variables(), gf, 77)
    full = grad_det_at(P, pt, gf)
    fake = {}
    for g, occ in P.occurrences().items():
        for _, c in occ:
            fake[(P.col_labels[c].block, g)] = full[g]
    M = build_M(P547, fake)
    res = relation_residual(M, pt, gf)
    assert any(x != 0 for x in res)


def test_certify_pade_full_547():
    cert = full_from_essential(
        certify_hessian_pade(_gate(P547), trials=5, seed=0), P547)
    assert cert.verdict == VANISHES
    assert cert.degree_bound == 36 * 13
    assert all(t.value == 0 for t in cert.trials)
    assert 0.0 <= cert.error_bound <= 1.0
    assert cert.error_bound_log10 < -75  # 5 trials at ~1e-16 each


def test_certify_pade_essential_547_measured_nonzero():
    # The essential-variable Hessian of this determinant is nonsingular at
    # generic points: the ambient vanishing comes from the three coordinates
    # absent from det(P), not from a deeper polar degeneracy.
    cert = certify_hessian_pade(_gate(P547), trials=3, seed=0)
    assert cert.verdict == NONZERO
    assert cert.error_bound is None
    assert any(t.value != 0 for t in cert.trials)
    assert all(t.corank == 0 for t in cert.trials)


def test_certify_pade_2112_both_modes():
    params = TaylorParams(2, 1, 1, 2)
    essential = certify_hessian_pade(_gate(params), trials=20, seed=0)
    full = full_from_essential(essential, params)
    assert full.verdict == VANISHES
    assert essential.verdict == VANISHES
    assert all(t.corank >= 1 for t in essential.trials)


def test_certify_pade_refuses_defective():
    with pytest.raises(UsageError, match="refusing"):
        certify_hessian_pade(_gate(TaylorParams(3, 2, 2, 3)), trials=2, seed=0)


def test_certify_pade_rejects_rectangular():
    with pytest.raises(UsageError, match="refusing"):
        certify_hessian_pade(_gate(TaylorParams(2, 1, 1, 3)), trials=2, seed=0)


def test_certificate_trial_records():
    cert = certify_hessian_pade(_gate(P547), trials=3, seed=1)
    assert [t.index for t in cert.trials] == [0, 1, 2]
    assert {t.prime for t in cert.trials} == set(PRIMES_62[:3])
    assert all(len(t.point_digest) == 16 for t in cert.trials)
    # determinism: same seed, same records
    again = certify_hessian_pade(_gate(P547), trials=3, seed=1)
    assert again == cert


def test_certify_poly_fixtures():
    assert certify_hessian_poly(PERAZZO, trials=20, seed=0).verdict == VANISHES
    assert certify_hessian_poly(GEN_PERAZZO, trials=20, seed=0).verdict == VANISHES
    fermat = certify_hessian_poly(FERMAT3, trials=20, seed=0)
    assert fermat.verdict == NONZERO
    assert fermat.degree_bound == 3 * 1


def test_certify_poly_random_dense_cubic_is_nonzero():
    rng = random.Random(42)
    terms = [(g, rng.randint(1, 50)) for g in monomials_upto(4, 3) if sum(g) == 3]
    cubic = SparsePoly.from_terms(4, terms)
    assert certify_hessian_poly(cubic, trials=20, seed=0).verdict == NONZERO


def test_certify_poly_rejects_inhomogeneous():
    bad = SparsePoly.from_terms(2, [((2, 0), 1), ((1, 0), 1)])
    with pytest.raises(UsageError):
        certify_hessian_poly(bad, trials=2, seed=0)
    linear = SparsePoly.from_terms(2, [((1, 0), 1)])
    with pytest.raises(UsageError):
        certify_hessian_poly(linear, trials=2, seed=0)


def test_certificate_needs_a_trial():
    with pytest.raises(UsageError, match="need at least one trial"):
        certify_hessian_poly(PERAZZO, trials=0)


def test_corank_quadric_and_perazzo():
    # the rank of the polar map is V - min corank over a certificate's trials
    quadric = SparsePoly.from_terms(
        4, [((2, 0, 0, 0), 1), ((0, 2, 0, 0), 1), ((0, 0, 2, 0), 1), ((0, 0, 0, 2), 1)]
    )
    cert = certify_hessian_poly(quadric, trials=2, seed=0)
    assert [t.corank for t in cert.trials] == [0, 0]
    cert = certify_hessian_poly(PERAZZO, trials=3, seed=0)
    assert min(t.corank for t in cert.trials) >= 1


def test_corank_pade_essential():
    # measured: the essential polar map is locally bijective here
    cert = certify_hessian_pade(_gate(P547), trials=2, seed=0)
    assert len(pade_matrix(2, 5, 4, 7).variables()) == 33
    assert [t.corank for t in cert.trials] == [0, 0]


def test_cross_path_agreement_2112():
    params = TaylorParams(2, 1, 1, 2)
    P = pade_matrix(2, 1, 1, 2)
    ambient = monomials_upto(2, 2)
    f = expand_det_poly(P, ambient)
    assert f.is_homogeneous() and f.degree() == 3
    poly_cert = certify_hessian_poly(f, trials=20, seed=0)
    pade_cert = full_from_essential(
        certify_hessian_pade(_gate(params), trials=20, seed=0), params)
    assert poly_cert.verdict == pade_cert.verdict == VANISHES


def _record_eliminations(monkeypatch, *mute):
    """Log the shape of every ``eliminate`` call, with ``INVERSE`` added
    where it asks for the inverse, and of every packed Hessian the
    certificate hands to ``detcalc._eliminate_symmetric``.
    Each ``mute`` pair (module, function name) is logged by its name instead,
    leaving out the eliminations made inside it."""
    shapes = []
    real = detcalc_mod.eliminate
    symmetric = detcalc_mod._eliminate_symmetric

    def counted(A, field, inverse=False):
        shapes.append((len(A), len(A[0]), INVERSE) if inverse else (len(A), len(A[0])))
        return real(A, field, inverse)

    def packed(rows, size, p):
        shapes.append((len(rows), len(rows)))
        return symmetric(rows, size, p)

    for mod in (detcalc_mod, hessian_mod, variety_mod):
        monkeypatch.setattr(mod, "eliminate", counted)
    monkeypatch.setattr(detcalc_mod, "_eliminate_symmetric", packed)
    for owner, name in mute:
        monkeypatch.setattr(owner, name, _muted(shapes, name, getattr(owner, name)))
    return shapes


def _muted(shapes, name, inner):
    def muted(*args, **kwargs):
        start = len(shapes)
        try:
            return inner(*args, **kwargs)
        finally:
            shapes[start:] = [name]

    return muted


GATE = "nondefective_hypersurface_check"
DIM = "actual_dimension"
INVERSE = "inverse"


@pytest.mark.parametrize("mode,hessian_size", [("full", 33), ("essential", 33)])
def test_one_elimination_of_P_and_H_per_trial(monkeypatch, capsys, mode, hessian_size):
    shapes = _record_eliminations(monkeypatch, (variety_mod, DIM))
    argv = ["hessian", "-n", "2", "-d", "5", "-e", "4", "-m", "7",
            "--trials", "3", "--mode", mode]
    assert cli_mod.main(argv) == 0
    trials = json.loads(capsys.readouterr().out)["payload"]["certificate"]["trials"]
    assert [t["seed"] for t in trials] == [
        derive_seed("hessian", 0, t) for t in range(3)
    ]  # no resamples
    # the gate's first det(P) is nonzero, which ends its det trials; then P
    # with its inverse and H per trial, and M, read off trial 0's P
    assert shapes == ([(15, 15), DIM]
                      + [(15, 15, INVERSE), (hessian_size, hessian_size)] * 3
                      + [(14, 7)])


def test_survey_gates_once_and_runs_one_trial_loop_per_case(monkeypatch, capsys):
    shapes = _record_eliminations(monkeypatch, (variety_mod, DIM))
    argv = ["survey", "--e-max", "5", "--trials", "2"]
    assert cli_mod.main(argv) == 0
    capsys.readouterr()
    # per case: the gate once (one det(P), nonzero, then the dimension), then
    # one P with its inverse and one H over the variables of P (the first
    # trial has full rank, which ends the loop), then M, read off that P
    assert shapes == (
        [(15, 15), DIM] + [(15, 15, INVERSE), (33, 33)] * 1 + [(14, 7)]
        + [(21, 21), DIM] + [(21, 21, INVERSE), (56, 56)] * 1 + [(20, 11)]
    )
    assert len(pade_matrix(2, 8, 5, 10).variables()) == 56


def _zero_gate_dets(monkeypatch, zeros):
    """Report the first ``zeros`` det(P) values of the gate as 0, with the
    rank one short of full, which is what the gate reads; return the list
    of dets the gate's trials computed."""
    dets = []
    real = variety_mod.eliminate

    def patched(A, field, inverse=False):
        out = real(A, field, inverse)
        if out.det is None:  # the rank of P at T, less its sigma = 0 column
            return out
        dets.append(out.det)
        return out._replace(rank=out.rank - 1, det=0) if len(dets) <= zeros else out

    monkeypatch.setattr(variety_mod, "eliminate", patched)
    return dets


@pytest.mark.parametrize("zeros,run,nonzero", [(1, 2, 1), (3, 4, 1), (5, 5, 0)])
def test_gate_goes_on_after_a_zero_det(monkeypatch, zeros, run, nonzero):
    dets = _zero_gate_dets(monkeypatch, zeros)
    check = nondefective_hypersurface_check(P547, trials=5, seed=0,
                                            stop_at_nonzero=True)
    assert len(dets) == run and all(dets)
    assert (check.det_trials, check.det_nonzero_count) == (run, nonzero)
    assert check.is_nondefective_hypersurface == bool(nonzero)


def test_survey_gate_goes_on_after_a_zero_first_det(monkeypatch, capsys):
    argv = ["survey", "--e-max", "5", "--trials", "3"]
    want = _survey_rows(argv, capsys)
    dets = _zero_gate_dets(monkeypatch, 1)
    # the first case's gate runs a second det trial; the second case's gate
    # stops at its first
    assert _survey_rows(argv, capsys) == want
    assert len(dets) == 3


@pytest.mark.parametrize("case", [(2, 20, 8, 22), (2, 25, 9, 27)],
                         ids=["certify-e8", "e9"])
def test_hessian_bilinear_form_matches_jets_at_certificate_points(case):
    # u^T H w of the Jacobi-route H, against one jet determinant at the trial
    # point of the certificate (the full one shares it); a wrong H passes
    # with probability at most 2/p.
    params, P = TaylorParams(*case), pade_matrix(*case)
    (trial,) = certify_hessian_pade(_gate(params), trials=1, seed=0).trials
    fld = GF(trial.prime)
    point = random_point(P.variables(), fld, trial.seed)
    assert point_hash(point) == trial.point_digest
    _assert_bilinear_form_matches_jets(P, point, fld)


def test_hessian_bilinear_form_matches_jets_at_e12():
    # (2,43,12,45): 553 variables in 14 classes, at the point of the first
    # trial for seed 0, where P is invertible (no resample); the certificate
    # itself is left out, as it adds 2.5 s to the 6-9 s of this check.
    P = pade_matrix(2, 43, 12, 45)
    fld = GF(PRIMES_62[0])
    point = random_point(P.variables(), fld, derive_seed("hessian", 0, 0))
    _assert_bilinear_form_matches_jets(P, point, fld)


def _assert_bilinear_form_matches_jets(P, point, fld):
    labels, H = hessian_det_at(P, point, fld)
    rng = random.Random(14)
    u = {g: fld.sample(rng) for g in labels}
    w = {g: fld.sample(rng) for g in labels}
    uH = [sum(u[a] * x for a, x in zip(labels, col)) for col in zip(*H)]
    assert sum(x * w[b] for x, b in zip(uH, labels)) % fld.p == jet_bilinear(
        P, point, fld, u, w
    )


def _singular_hessians(monkeypatch, zero_rows):
    """Zero ``zero_rows[t]`` rows and columns of the t-th packed K built by
    the certificate trials: the last ones of its multi-occurrence classes,
    just before the single-occurrence classes, whose diagonal is zero.
    Return the list of the orders of K built."""
    built = []
    real = detcalc_mod._hessian_core

    def patched(plan, X, p):
        rows, size, order = real(plan, X, p)
        multi = [len(cols) > 1 for cols, _, members in plan for _ in members]
        end = sum(multi)
        assert all(multi[:end])
        k, W = zero_rows[len(built)], 8 * size
        # row i holds columns i.. of K, column j in slot j - i
        columns = ((1 << W * k) - 1) << W * (end - k)
        rows = [0 if end - k <= i < end else row & ~(columns >> W * i)
                for i, row in enumerate(rows)]
        built.append(len(rows))
        return rows, size, order

    monkeypatch.setattr(detcalc_mod, "_hessian_core", patched)
    return built


def _symmetric_handoffs(monkeypatch):
    """Return the list of sizes of the Schur complements that the symmetric
    GF(p) body hands to the general one, on the certificate's packed K."""
    sizes, inside = [], []
    symmetric, general = detcalc_mod._eliminate_symmetric, detcalc_mod._eliminate_modp

    def outer(*args):
        inside.append(True)
        try:
            return symmetric(*args)
        finally:
            inside.pop()

    def inner(A, *args):
        if inside:
            sizes.append(len(A))
        return general(A, *args)

    monkeypatch.setattr(detcalc_mod, "_eliminate_symmetric", outer)
    monkeypatch.setattr(detcalc_mod, "_eliminate_modp", inner)
    return sizes


def _survey_rows(argv, capsys):
    assert cli_mod.main(argv) == 0
    return json.loads(capsys.readouterr().out)["payload"]["rows"]


def test_survey_goes_on_after_a_singular_first_trial(monkeypatch, capsys):
    built = _singular_hessians(monkeypatch, [1, 0, 1, 0])
    handoffs = _symmetric_handoffs(monkeypatch)
    rows = _survey_rows(["survey", "--e-max", "5", "--trials", "4"], capsys)
    # (2,5,4,7): trial 0 singular, trial 1 full rank; (2,8,5,10): trial 0
    # singular (the third H built), trial 1 full rank
    assert built == [33, 33, 56, 56]
    # K's single-occurrence classes come last, and their diagonal is zero:
    # 8 entries at (2,5,4,7) and 11 at (2,8,5,10); the zeroed row comes just
    # before them, so each singular K hands off all of them
    assert handoffs == [8 + 1, 11 + 1]
    assert [r["essential_corank"] for r in rows] == [0, 0]
    assert [r["hessian_full"] for r in rows] == [VANISHES, VANISHES]


def test_survey_runs_every_trial_when_none_has_full_rank(monkeypatch, capsys):
    # coranks 2, 2, 1 on the first case, then 3, 2, 3 on the second: each
    # minimum is reached on one trial only, not the first
    built = _singular_hessians(monkeypatch, [2, 2, 1, 3, 2, 3])
    handoffs = _symmetric_handoffs(monkeypatch)
    rows = _survey_rows(["survey", "--e-max", "5", "--trials", "3"], capsys)
    assert built == [33] * 3 + [56] * 3
    assert handoffs == [8 + 2, 8 + 2, 8 + 1, 11 + 3, 11 + 2, 11 + 3]
    assert [r["essential_corank"] for r in rows] == [1, 2]
    assert [r["hessian_full"] for r in rows] == [VANISHES, VANISHES]


def _certificate_primes(monkeypatch):
    """Record, per certificate the CLI runs, the primes of its trials."""
    primes = []

    def recorder(real):
        def recorded(*args, **kwargs):
            certificate = real(*args, **kwargs)
            primes.append([t.prime for t in certificate.trials])
            return certificate
        return recorded

    for name in ("certify_hessian_pade", "certify_hessian_poly"):
        monkeypatch.setattr(hessian_mod, name, recorder(getattr(hessian_mod, name)))
    return primes


def _plans_built(monkeypatch):
    """Record the plan of each ``detcalc.hessian_plan`` call that the
    certificate makes, and the plan that each ``hessian_at`` call reads."""
    built, read = [], []

    def plan(P):
        built.append(hessian_plan(P))
        return built[-1]

    def at(plan, *args):
        read.append(plan)
        return hessian_at(plan, *args)

    monkeypatch.setattr(hessian_mod, "hessian_plan", plan)
    monkeypatch.setattr(hessian_mod, "hessian_at", at)
    return built, read


@pytest.mark.parametrize("primes", [PRIMES_62, (SURVEY_PRIME,)], ids=["p62", "survey"])
def test_a_factorisation_names_its_field_and_first_is_trial_0s(primes):
    # The relation check reads its field off the kept factorisation, so it
    # runs over trial 0's prime, whichever primes the certificate rotates.
    field = PrimeField(primes[0])
    assert eliminate([[1, 2], [3, 4]], field).field is field
    cert = certify_hessian_pade(_gate(P547), trials=3, primes=primes)
    point, fac = cert.first
    trial = cert.trials[0]
    assert fac.field.p == trial.prime == primes[0]
    assert point_hash(point) == trial.point_digest
    assert fac == eliminate(P547.pade.evaluate(point), field, inverse=True)


def test_a_certificate_builds_one_plan_for_all_its_trials(monkeypatch):
    built, read = _plans_built(monkeypatch)
    cert = certify_hessian_pade(_gate(P547), trials=3, primes=PRIMES_62)
    assert [t.prime for t in cert.trials] == list(PRIMES_62[:3])
    assert len(built) == 1 and len(read) == 3
    assert all(plan is built[0] for plan in read)


def test_a_survey_builds_one_plan_per_case_that_passes_its_gate(monkeypatch, capsys):
    built, read = _plans_built(monkeypatch)
    rows = _survey_rows(["survey", "--e-max", "5"], capsys)
    passed = [row for row in rows if row["nondefective_hypersurface"]]
    assert len(passed) == len(rows) == 2
    assert len(built) == len(passed) and {id(plan) for plan in read} == set(map(id, built))


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_survey_rows_match_the_full_trial_loop(seed, monkeypatch):
    # A survey row stops its trials at the first corank 0, over SURVEY_PRIME;
    # the full loop runs every trial over the PRIMES_62 rotation.  The rows
    # agree on every case up to e = 9.
    primes = _certificate_primes(monkeypatch)
    config = cli_mod.RunConfig(command="survey", trials=5, seed=seed)
    for params in square_family(9):
        row = cli_mod._survey_case(params, config)
        check = nondefective_hypersurface_check(params, trials=5, seed=seed)
        essential = certify_hessian_pade(check, trials=5, seed=seed)
        assert [t.prime for t in essential.trials] == list(PRIMES_62[:5])
        want = dict(
            row,
            hessian_full=full_from_essential(essential, params).verdict,
            essential_corank=min(t.corank for t in essential.trials),
        )
        assert row == want
    assert len(primes) == 4
    assert {p for trial_primes in primes for p in trial_primes} == {SURVEY_PRIME}


@pytest.mark.parametrize("flags, prime", [
    (["--prime", "547"], 547),
], ids=["prime"])
def test_survey_certificate_prime_follows_the_flags(flags, prime, monkeypatch, capsys):
    # A prime given on the command line replaces SURVEY_PRIME
    primes = _certificate_primes(monkeypatch)
    _survey_rows(["survey", "--e-max", "5", "--trials", "3", *flags], capsys)
    assert len(primes) == 2
    assert {p for trial_primes in primes for p in trial_primes} == {prime}


_FS, _F547 = PrimeField(SURVEY_PRIME), PrimeField(547)
_CASE = ["-n", "2", "-d", "5", "-e", "4", "-m", "7"]
_PERAZZO_FILE = str(Path(__file__).parent / "golden" / "perazzo.json")


@pytest.mark.parametrize("argv, gates, certificates, relations", [
    (["hessian", *_CASE, "--trials", "3"],
     [_FS], [list(PRIMES_62[:3])], [PrimeField(PRIMES_62[0])]),
    (["hessian", *_CASE, "--trials", "3", "--prime", "547"],
     [_F547], [[547] * 3], [_F547]),
    (["survey", "--e-max", "5", "--trials", "2"],
     [_FS] * 2, [[SURVEY_PRIME]] * 2, [_FS] * 2),
    (["survey", "--e-max", "5", "--trials", "2", "--prime", "547"],
     [_F547] * 2, [[547]] * 2, [_F547] * 2),
    (["defect", *_CASE], [_FS], [], []),
    (["defect", *_CASE, "--prime", "547"], [_F547], [], []),
    (["defect", *_CASE, "--field", "rational"], [Rationals()], [], []),
    (["hessian", "--poly", _PERAZZO_FILE, "--trials", "3"],
     [], [list(PRIMES_62[:3])], []),
    (["hessian", "--poly", _PERAZZO_FILE, "--trials", "3", "--prime", "547"],
     [], [[547] * 3], []),
], ids=["hessian", "hessian-prime", "survey", "survey-prime", "defect", "defect-prime",
        "defect-rational", "poly", "poly-prime"])
def test_each_stage_runs_over_the_field_the_cli_picks(
        argv, gates, certificates, relations, monkeypatch, capsys):
    # The gate runs over SURVEY_PRIME (DEFAULT_FIELD), as does a survey's
    # certificate, while a hessian certificate rotates through PRIMES_62,
    # whose primes its report prints; the relation check runs over the
    # certificate's first prime.  --prime replaces every one of them, and
    # --field rational the gate's.  The gate's field is read where it ranks
    # the Jacobian, once per gate.
    seen = {"gate": [], "relation": []}

    def recorder(real, stage, read_field):
        def recorded(*args, **kwargs):
            seen[stage].append(read_field(args, kwargs))
            return real(*args, **kwargs)
        return recorded

    monkeypatch.setattr(variety_mod, "actual_dimension", recorder(
        variety_mod.actual_dimension, "gate", lambda a, kw: kw["ctx"]))
    monkeypatch.setattr(hessian_mod, "relation_check", recorder(
        hessian_mod.relation_check, "relation", lambda a, kw: a[2].field))
    primes = _certificate_primes(monkeypatch)
    assert cli_mod.main(argv) == 0
    capsys.readouterr()
    assert seen["gate"] == gates
    assert primes == certificates
    assert seen["relation"] == relations


# Every square case up to e = 9, a rectangular case, a gate with n = 3 and
# the defective (3,2,2,3).
_AGREEMENT_CASES = [*square_family(9), TaylorParams(2, 12, 6, 14),
                    TaylorParams(3, 4, 3, 6), TaylorParams(3, 2, 2, 3)]


@pytest.mark.parametrize("seed", range(5))
def test_gate_and_relation_check_agree_across_default_primes(seed):
    # The gate runs over SURVEY_PRIME unless --prime is given, and the
    # relation check over SURVEY_PRIME in a survey and PRIMES_62[0] in a
    # hessian run; their reports read the same at either prime: a positive
    # outcome is exact at either prime, and a negative one is the generic
    # value when the per-trial Schwartz-Zippel bounds of the README hold.
    outcomes = {}
    for p in (SURVEY_PRIME, PRIMES_62[0]):
        fld, outcomes[p] = PrimeField(p), []
        for params in _AGREEMENT_CASES:
            check = nondefective_hypersurface_check(params, trials=4, ctx=fld, seed=seed)
            outcome = [check.verdict, check.det_nonzero_count, check.actual_dim]
            if hessian_mod.relations_apply(params):
                point = random_point(params.pade.variables(), fld, derive_seed("diag", seed))
                relations = relation_check(params, point, _factor(params.pade, point, fld))
                outcome += [relations["residual_is_zero"], relations["rank_M"]]
            outcomes[p].append(outcome)
    assert outcomes[SURVEY_PRIME] == outcomes[PRIMES_62[0]]


@pytest.mark.parametrize("mode", ["full", "essential"])
def test_hessian_report_keeps_every_trial(mode, capsys):
    argv = ["hessian", "-n", "2", "-d", "5", "-e", "4", "-m", "7",
            "--trials", "3", "--mode", mode]
    assert cli_mod.main(argv) == 0
    trials = json.loads(capsys.readouterr().out)["payload"]["certificate"]["trials"]
    assert [t["index"] for t in trials] == [0, 1, 2]
    # hessian keeps the rotation: its report prints each trial's prime
    assert [t["prime"] for t in trials] == list(PRIMES_62[:3])


def _count_pade_builds(monkeypatch):
    """Wrap every binding of ``pade_matrix`` in the package; return the list
    of parameter tuples built."""
    built = []
    real = pade_mod.pade_matrix

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    bound = [mod for name, mod in sorted(sys.modules.items())
             if name.split(".")[0] == "taylorpade"
             and getattr(mod, "pade_matrix", None) is real]
    assert {pade_mod, variety_mod} <= set(bound)
    assert cli_mod not in bound  # the CLI reads TaylorParams.pade
    for mod in bound:
        monkeypatch.setattr(mod, "pade_matrix", counted)
    return built


def test_survey_builds_P_once_per_case(monkeypatch, capsys):
    built = _count_pade_builds(monkeypatch)
    _survey_rows(["survey", "--e-max", "5", "--trials", "2"], capsys)
    assert built == [(2, 5, 4, 7), (2, 8, 5, 10)]


def test_survey_frees_each_P_before_building_the_next(monkeypatch, capsys):
    alive = []
    real = pade_mod.pade_matrix

    def tracked(*args):
        assert [ref() for ref in alive] == [None] * len(alive)
        P = real(*args)
        alive.append(weakref.ref(P))
        return P

    monkeypatch.setattr(variety_mod, "pade_matrix", tracked)
    _survey_rows(["survey", "--e-max", "8", "--trials", "2"], capsys)
    assert len(alive) == 3


@pytest.mark.parametrize("case", [(2, 5, 4, 7), (2, 1, 1, 2)])
@pytest.mark.parametrize("mode", ["full", "essential"])
def test_hessian_builds_P_once(case, mode, monkeypatch, capsys):
    # Each run builds its own P: two runs in one process build it twice.
    built = _count_pade_builds(monkeypatch)
    n, d, e, m = case
    argv = ["hessian", "-n", str(n), "-d", str(d), "-e", str(e), "-m", str(m),
            "--trials", "2", "--mode", mode]
    assert cli_mod.main(argv) == 0
    assert cli_mod.main(argv) == 0
    capsys.readouterr()
    assert built == [case, case]
    params, twin = TaylorParams(*case), TaylorParams(*case)
    assert params.pade is params.pade
    assert built == [case, case, case]
    assert twin == params and twin.pade is not params.pade
    assert built == [case, case, case, case]


def test_certificate_refuses_failing_check():
    params = TaylorParams(3, 2, 2, 3)
    check = nondefective_hypersurface_check(params, trials=2, seed=0)
    with pytest.raises(UsageError, match="refusing"):
        certify_hessian_pade(check, trials=2, seed=0)


def test_refusal_counts_the_gate_trials_run(monkeypatch, capsys):
    # A gate that fails on the dimension after a nonzero det(P): the
    # refusal names the one det trial the gate ran, not all GATE_TRIALS.
    monkeypatch.setattr(variety_mod, "actual_dimension", lambda *a, **k: 0)
    argv = ["hessian", "-n", "2", "-d", "5", "-e", "4", "-m", "7", "--trials", "2"]
    assert cli_mod.main(argv) == 2
    assert "verdict 'defective' (det nonzero in 1/1 trials" in capsys.readouterr().err


def _record_case_stages(monkeypatch):
    """Record (stage, case) for each certificate and relation check run;
    return the list."""
    stages = []
    certify, relations = hessian_mod.certify_hessian_pade, hessian_mod.relation_check

    def certified(check, *args, **kwargs):
        stages.append(("certificate", tuple(check.params)))
        return certify(check, *args, **kwargs)

    def related(params, *args, **kwargs):
        stages.append(("relations", tuple(params)))
        return relations(params, *args, **kwargs)

    monkeypatch.setattr(hessian_mod, "certify_hessian_pade", certified)
    monkeypatch.setattr(hessian_mod, "relation_check", related)
    return stages


@pytest.mark.parametrize("e_max,flags,dimension_0,failing", [
    ("5", [], True, [(2, 5, 4, 7), (2, 8, 5, 10)]),
    ("8", ["--prime", "2"], False, [(2, 20, 8, 22)]),
], ids=["dimension-0", "prime-2"])
def test_survey_row_of_a_failing_gate(e_max, flags, dimension_0, failing, monkeypatch,
                                      capsys):
    # A row whose gate fails leaves the certificate and relation fields
    # blank and runs neither stage; the hessian run of its case refuses it.
    if dimension_0:
        monkeypatch.setattr(variety_mod, "actual_dimension", lambda *a, **k: 0)
    stages = _record_case_stages(monkeypatch)
    rows = _survey_rows(["survey", "--e-max", e_max, "--trials", "2", *flags], capsys)
    cases = [(2, r["d"], r["e"], r["m"]) for r in rows]
    assert [c for c, r in zip(cases, rows) if not r["nondefective_hypersurface"]] == failing
    for case, row in zip(cases, rows):
        if case in failing:
            assert (row["hessian_full"], row["essential_corank"], row["rank_M"]) == ("",) * 3
    assert stages == [(stage, c) for c in cases if c not in failing
                      for stage in ("certificate", "relations")]
    for n, d, e, m in failing:
        argv = ["hessian", "-n", str(n), "-d", str(d), "-e", str(e), "-m", str(m),
                "--trials", "2", *flags]
        assert cli_mod.main(argv) == 2
        assert f"refusing Hessian certificate for {(n, d, e, m)}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--prime", "7", "--seed", "0"],
    ["--prime", "5", "--seed", "3"],
    ["--seed", "1"],
], ids=["p7-s0", "p5-s3", "default-s1"])
def test_survey_row_is_its_case_hessian_run(flags, capsys):
    # survey samples each case's gate and relation check at the points of
    # hessian, so every row up to e = 8 reproduces from the hessian runs of
    # its case, at tiny primes too, where samples often disagree
    common = ["--trials", "3", *flags]
    rows = _survey_rows(["survey", "--e-max", "8", *common], capsys)
    assert len(rows) == len(square_family(8))
    for row in rows:
        case = ["-n", "2", "-d", str(row["d"]), "-e", str(row["e"]), "-m", str(row["m"])]
        payload = {}
        for mode in ("essential", "full"):
            code = cli_mod.main(["hessian", *case, *common, "--mode", mode])
            out, err = capsys.readouterr()
            assert code == 0 or (code == 2 and "refusing" in err)
            payload[mode] = json.loads(out)["payload"] if code == 0 else None
        if payload["essential"] is None:
            assert payload["full"] is None
            want = (False, "", "", "")
        else:
            essential = payload["essential"]
            want = (True, payload["full"]["verdict"],
                    min(t["corank"] for t in essential["certificate"]["trials"]),
                    essential["relations"]["rank_M"])
        assert (row["nondefective_hypersurface"], row["hessian_full"],
                row["essential_corank"], row["rank_M"]) == want


@pytest.mark.parametrize("mode", ["full", "essential"])
def test_hessian_payload_renders_run_case(mode, capsys):
    # Each printed field is its record field: the payload of hessian is
    # run_case's certificate, verdict and relations, read with the defaults.
    argv = ["hessian", "-n", "2", "-d", "5", "-e", "4", "-m", "7",
            "--trials", "3", "--seed", "7", "--mode", mode]
    assert cli_mod.main(argv) == 0
    case = hessian_mod.run_case(P547, trials=3, seed=7)
    cert = getattr(case, mode)
    assert cert.target.endswith(f", {mode}]")
    want = {"certificate": cert.to_dict(), "verdict": cert.verdict, "relations": case.relations}
    assert json.loads(capsys.readouterr().out)["payload"] == json.loads(json.dumps(want))


def test_survey_row_renders_run_case(capsys):
    rows = _survey_rows(["survey", "--e-max", "5", "--trials", "3", "--seed", "7"], capsys)
    case = hessian_mod.run_case(P547, primes=(SURVEY_PRIME,), trials=3, seed=7, survey=True)
    assert rows[0] == {
        "d": 5, "e": 4, "m": 7, "size": P547.shape.rows,
        "nondefective_hypersurface": case.gate.is_nondefective_hypersurface,
        "hessian_full": case.full.verdict,
        "essential_corank": min(t.corank for t in case.essential.trials),
        "rank_M": case.relations["rank_M"],
    }


@pytest.mark.parametrize("flags,ctx", [([], DEFAULT_FIELD), (["--field", "rational"], Rationals())],
                         ids=["prime", "rational"])
def test_defect_payload_renders_its_gate(flags, ctx, capsys):
    # defect keeps its own schedule, all --trials det trials with no early
    # stop, and prints the gate record field by field.
    argv = ["defect", "-n", "2", "-d", "5", "-e", "4", "-m", "7",
            "--trials", "3", "--seed", "7", *flags]
    assert cli_mod.main(argv) == 0
    check = nondefective_hypersurface_check(P547, trials=3, ctx=ctx, seed=7)
    shape = check.params.shape
    assert json.loads(capsys.readouterr().out)["payload"] == {
        "rows": shape.rows, "cols": shape.cols, "square": shape.square,
        "expected_dimension": check.expected_dim, "actual_dimension": check.actual_dim,
        "det_trials": check.det_trials, "det_nonzero_count": check.det_nonzero_count,
        "det_certified_nonzero": check.det_nonzero_count > 0, "verdict": check.verdict,
    }


def test_run_case_of_a_failing_gate_is_its_gate_alone(monkeypatch):
    # A survey stops at a failing gate and returns Case(gate); without
    # survey the certificate refuses the same gate.
    monkeypatch.setattr(variety_mod, "actual_dimension", lambda *a, **k: 0)
    case = hessian_mod.run_case(P547, primes=(SURVEY_PRIME,), trials=2, survey=True)
    assert not case.gate.is_nondefective_hypersurface
    assert case == hessian_mod.Case(case.gate)
    assert (case.essential, case.full, case.relations) == (None, None, None)
    with pytest.raises(UsageError, match="refusing Hessian certificate"):
        hessian_mod.run_case(P547, trials=2)


def test_mode_choices_are_case_fields():
    # cmd_hessian prints getattr(case, config.mode): a rename on either side
    # fails here rather than at run time.
    assert set(cli_mod._ARGUMENTS["--mode"]["choices"]) <= set(hessian_mod.Case._fields)


def _call_sites(name):
    """(module, innermost enclosing function) of each call of ``name`` in the
    package and the scripts, one entry per call."""
    sites = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                sites.append((module, function))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, module, child.name if inner else function)

    scripts = Path(__file__).resolve().parent.parent / "scripts"
    for path in sorted([*Path(cli_mod.__file__).parent.glob("*.py"), *scripts.glob("*.py")]):
        visit(ast.parse(path.read_text(), str(path)), path.name, None)
    return sites


@pytest.mark.parametrize("stage", ["certify_hessian_pade", "full_from_essential",
                                   "relation_check"])
def test_each_case_stage_has_one_call_site(stage):
    # hessian and survey each used to chain the stages of a case by hand,
    # and the two chains drifted apart, as did the worked example's; the
    # library's runner is now their only caller.
    assert _call_sites(stage) == [("hessian.py", "run_case")]


def test_certificate_depends_on_check_only_through_params():
    # two passing gates that ran different trials at different seeds
    first = nondefective_hypersurface_check(P547, trials=3, seed=5)
    second = _gate(P547, trials=8, seed=0)
    assert (first.det_trials, second.det_trials) == (3, 1)
    assert first.is_nondefective_hypersurface and second.is_nondefective_hypersurface
    essential = [certify_hessian_pade(c, trials=2, seed=1) for c in (first, second)]
    assert essential[0] == essential[1]
    assert full_from_essential(essential[0], P547) == full_from_essential(
        essential[1], P547)


def test_one_elimination_of_P_at_the_diagnostic_point(monkeypatch, capsys):
    shapes = _record_eliminations(monkeypatch, (hessian_mod, GATE),
                                  (hessian_mod, "certify_hessian_pade"))
    argv = ["hessian", "-n", "2", "-d", "5", "-e", "4", "-m", "7", "--trials", "1"]
    assert cli_mod.main(argv) == 0
    capsys.readouterr()
    # the gate, the certificate, then only the relation matrix M: the
    # relation check reads P's factorisation at the certificate's trial 0
    assert shapes == [GATE, "certify_hessian_pade", (14, 7)]
