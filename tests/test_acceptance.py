"""Acceptance suite: the pinned exit criteria for this package.

Each test prints one PASS/FAIL line (run pytest with -s or grep the captured
output).  Tolerances and runtime budgets are asserted, not just reported.
"""

import random
import time
from contextlib import contextmanager

from taylorpade.detcalc import block_grad_det_at, eliminate
from taylorpade.fields import PRIMES_62, Rationals, derive_seed, random_point
from taylorpade.hessian import (
    NONZERO,
    VANISHES,
    build_M,
    certify_hessian_pade,
    certify_hessian_poly,
    full_from_essential,
    relation_check,
    relation_residual,
)
from taylorpade.pade import column_transform, pade_matrix, random_lambda
from taylorpade.series import SparsePoly, monomials_upto
from taylorpade.variety import (
    TaylorParams,
    actual_dimension,
    expected_dimension,
    nondefective_hypersurface_check,
)
from test_hessian import FERMAT3, GEN_PERAZZO, PERAZZO
from test_pade import GOLDEN_SUSPECTED_TYPOS, _parse_golden

from oracles import (
    GF,
    exp_sub,
    expand_det_poly,
    grad_det_at,
    hessian_det_at,
    jet_grad_det,
    jet_hessian_entry,
)

P547 = TaylorParams(2, 5, 4, 7)
P8510 = TaylorParams(2, 8, 5, 10)
GF0 = GF(PRIMES_62[0])


@contextmanager
def criterion(num, description, budget_s):
    start = time.time()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.time() - start
        print(f"[criterion {num:2d}] {status}  {elapsed:6.2f}s  {description}")
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s ({elapsed:.2f}s)"


def test_criterion_01_golden_pade_matrix():
    with criterion(1, "15x15 golden layout matches entry law up to annotated typos", 1.0):
        P = pade_matrix(2, 5, 4, 7)
        assert (P.nrows, P.ncols) == (15, 15)
        golden = _parse_golden()
        mismatches = {
            (r, c): (golden[r][c], P.entries[r][c])
            for r in range(15)
            for c in range(15)
            if golden[r][c] != P.entries[r][c]
        }
        assert mismatches == GOLDEN_SUSPECTED_TYPOS
        assert len(mismatches) <= 2
        for (r, c) in mismatches:
            assert P.entries[r][c] == exp_sub(P.row_labels[r], P.col_labels[c].sigma)


def test_criterion_02_nondefectiveness_547():
    with criterion(2, "(2,5,4,7): det != 0 at 20/20 points, dimension 34 = expected", 5.0):
        check = nondefective_hypersurface_check(P547, trials=20, ctx=GF0, seed=0)
        assert check.det_nonzero_count == 20
        assert check.det_trials == 20
        assert check.actual_dim == 34 == check.expected_dim
        assert check.verdict == "non-defective hypersurface"


def test_criterion_03_defectivity_3223():
    with criterion(3, "(3,2,2,3): exact rank 17 < 18 expected, 3 rational points", 5.0):
        params = TaylorParams(3, 2, 2, 3)
        actual = actual_dimension(params, ctx=Rationals(), seed=0)
        assert actual == 17
        assert expected_dimension(params) == 18


def test_criterion_04_main_theorem_desk_scale():
    with criterion(4, "(2,5,4,7): 36x36 ambient Hessian det = 0 at 20/20 points", 60.0):
        check = nondefective_hypersurface_check(P547, trials=8, stop_at_nonzero=True)
        cert = full_from_essential(certify_hessian_pade(check, trials=20, seed=0), P547)
        assert cert.verdict == VANISHES
        assert len(cert.trials) == 20
        assert all(t.value == 0 for t in cert.trials)
        assert cert.degree_bound == 36 * 13
        assert {t.prime for t in cert.trials} == set(PRIMES_62)
        assert cert.error_bound_log10 < -300
        assert cert.error_bound is not None and cert.error_bound < 1e-300


def test_criterion_05_second_square_case_8510():
    with criterion(5, "(2,8,5,10): full pipeline, 21x21, vanishing ambient Hessian", 300.0):
        check = nondefective_hypersurface_check(P8510, trials=20, ctx=GF0, seed=0)
        shape = check.params.shape
        assert shape.rows == shape.cols == 21
        assert check.verdict == "non-defective hypersurface"
        cert = full_from_essential(certify_hessian_pade(check, trials=20, seed=0), P8510)
        assert cert.verdict == VANISHES
        assert len(cert.trials) == 20


def test_criterion_06_relation_identity():
    with criterion(6, "M.c = 0 at 50 points, rank bound, corruption detected", 120.0):
        for params, bound in ((P547, 7), (P8510, 11)):
            P = pade_matrix(*params)
            variables = P.variables()
            for t in range(50):
                pt = random_point(variables, GF0, derive_seed("acc6", t))
                fac = eliminate(P.evaluate(pt), GF0, inverse=True)
                rel = relation_check(params, pt, fac, GF0)
                assert rel["residual_is_zero"]
                rank = rel["rank_M"]
                assert 1 <= rank < bound
                if params is P547:
                    assert rank <= 6
        # single-entry corruption must be caught in >= 49 of 50 mutated runs
        P = pade_matrix(2, 5, 4, 7)
        base_block = P547.d - P547.e + 2
        detected = 0
        for t in range(50):
            pt = random_point(P.variables(), GF0, derive_seed("acc6-mut", t))
            bg = block_grad_det_at(P, eliminate(P.evaluate(pt), GF0, inverse=True), GF0)
            rng = random.Random(t)
            key = rng.choice([k for k in sorted(bg) if k[0] > base_block])
            bg[key] = GF0.add(bg[key], 1)
            M = build_M(P547, bg)
            if any(x != 0 for x in relation_residual(M, pt, GF0)):
                detected += 1
        assert detected >= 49


def test_criterion_07_column_operation_invariance():
    with criterion(7, "det(P') = det(P) for 20 random (point, lambda) pairs", 30.0):
        P = pade_matrix(2, 5, 4, 7)
        for t in range(20):
            pt = random_point(P.variables(), GF0, derive_seed("acc7-pt", t))
            lam = random_lambda(P, GF0, derive_seed("acc7-lam", t))
            assert eliminate(column_transform(P, lam, pt, GF0), GF0).det == eliminate(
                P.evaluate(pt), GF0
            ).det


def test_criterion_08_fixture_controls():
    with criterion(8, "Perazzo family vanishes; Fermat and dense cubic do not", 5.0):
        assert certify_hessian_poly(PERAZZO, trials=20, seed=0).verdict == VANISHES
        assert certify_hessian_poly(GEN_PERAZZO, trials=20, seed=0).verdict == VANISHES
        assert certify_hessian_poly(FERMAT3, trials=20, seed=0).verdict == NONZERO
        rng = random.Random(4242)
        dense = SparsePoly.from_terms(
            4, [(g, rng.randint(1, 50)) for g in monomials_upto(4, 3) if sum(g) == 3]
        )
        assert certify_hessian_poly(dense, trials=20, seed=0).verdict == NONZERO


def _random_pattern(rng, max_size):
    k = rng.randint(2, max_size)
    nv = rng.randint(2, 7)
    names = [(i,) for i in range(nv)]
    return [
        [names[rng.randrange(nv)] if rng.random() < 0.85 else None for _ in range(k)]
        for _ in range(k)
    ]


def test_criterion_09_oracle_equivalence():
    with criterion(9, "Jacobi route == jet route; Euler identity at 20 points", 120.0):
        from taylorpade.pade import SymbolicMatrix

        rng = random.Random(303)
        checked = 0
        while checked < 25:
            P = SymbolicMatrix(_random_pattern(rng, 8))
            pt = {g: GF0.sample(rng) for g in P.variables()}
            assert grad_det_at(P, pt, GF0) == jet_grad_det(P, pt, GF0)
            if eliminate(P.evaluate(pt), GF0, inverse=True).inverse is not None:
                labels, H = hessian_det_at(P, pt, GF0)
                idx = rng.randrange(len(labels))
                jdx = rng.randrange(len(labels))
                assert H[idx][jdx] == jet_hessian_entry(
                    P, pt, GF0, labels[idx], labels[jdx]
                )
            checked += 1
        P = pade_matrix(2, 5, 4, 7)
        for t in range(5):
            pt = random_point(P.variables(), GF0, derive_seed("acc9", t))
            assert grad_det_at(P, pt, GF0) == jet_grad_det(P, pt, GF0)
        for t in range(20):
            pt = random_point(P.variables(), GF0, derive_seed("acc9-euler", t))
            f_val = eliminate(P.evaluate(pt), GF0).det
            grad = grad_det_at(P, pt, GF0)
            euler = sum(pt[g] * v for g, v in grad.items()) % GF0.p
            assert euler == 15 * f_val % GF0.p


def test_criterion_10_cone_case_cross_path():
    with criterion(10, "(2,1,1,2): ambient certificate agrees with symbolic poly path", 30.0):
        params = TaylorParams(2, 1, 1, 2)
        check = nondefective_hypersurface_check(params, trials=8, stop_at_nonzero=True)
        pade_cert = full_from_essential(
            certify_hessian_pade(check, trials=20, seed=0), params)
        assert pade_cert.verdict == VANISHES
        P = pade_matrix(2, 1, 1, 2)
        f = expand_det_poly(P, monomials_upto(2, 2))
        poly_cert = certify_hessian_poly(f, trials=20, seed=0)
        assert poly_cert.verdict == pade_cert.verdict
