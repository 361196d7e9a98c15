import random
from fractions import Fraction
from math import comb

import pytest

import taylorpade.variety as variety_mod
from taylorpade.errors import UsageError
from taylorpade.fields import (
    PRIMES_62,
    PrimeField,
    Rationals,
    derive_seed,
    random_point,
)
from taylorpade.detcalc import eliminate
from taylorpade.pade import pade_matrix, reduced_pade
from taylorpade.series import monomials_of_degree, monomials_upto
from taylorpade.variety import (
    TaylorParams,
    actual_dimension,
    expected_dimension,
    nondefective_hypersurface_check,
    random_rational_pair,
    square_family,
    taylor_coeffs,
)

from oracles import (
    Jet,
    JetRing,
    RationalPair,
    TruncatedSeries,
    membership,
    psi_jacobian,
    series_mul,
    taylor_coeffs_ring,
)

P547 = TaylorParams(2, 5, 4, 7)
P3223 = TaylorParams(3, 2, 2, 3)


def test_params_validation():
    with pytest.raises(UsageError):
        TaylorParams(2, 5, 4, 5)
    with pytest.raises(UsageError):
        TaylorParams(0, 1, 1, 2)
    assert P547.ambient_coords == 36
    assert P547.ambient_dim == 35
    assert P547.is_square


def test_taylor_coeffs_p_equals_q(qq):
    p, _ = random_rational_pair(TaylorParams(2, 3, 3, 5), qq, 1)
    # every 0 < |g| <= m is present, so the Pade matrix evaluates at it
    coords = [g for g in monomials_upto(2, 5) if any(g)]
    assert taylor_coeffs(p, p, 5, qq) == {g: qq.zero for g in coords}


def test_taylor_coeffs_geometric(qq):
    coeffs = taylor_coeffs({(0,): Fraction(1)}, {(0,): Fraction(1), (1,): Fraction(-1)}, 4, qq)
    assert coeffs == {(k,): Fraction(1) for k in range(1, 5)}


def test_taylor_coeffs_defining_identity(qq):
    # Q * (1 + sum c_g x^g) = P modulo degree m+1, exactly
    for seed in range(5):
        pq = RationalPair.of_dicts(*random_rational_pair(P547, qq, seed), P547, qq)
        m = 7
        c = taylor_coeffs(pq.p.coeffs, pq.q.coeffs, m, qq)
        t = TruncatedSeries(qq, 2, m, {**c, (0, 0): qq.one})
        lhs = series_mul(pq.q, t, m)
        rhs = TruncatedSeries(qq, 2, m, pq.p.coeffs)
        assert lhs == rhs


def test_rational_pair_validation(qq):
    # taylor_coeffs makes the checks of oracles.RationalPair on the
    # program's coefficient dicts
    one = Fraction(1)
    bad_pairs = [
        ({(0, 0): Fraction(2)}, {(0, 0): one}),
        ({(0, 0): one}, {(1, 0): one}),  # no constant term
        ({}, {(0, 0): one}),
        ({(0, 0): one}, {(0, 0): one, (1, 0, 0): Fraction(3)}),  # arity
    ]
    for p, q in bad_pairs:
        with pytest.raises(UsageError):
            taylor_coeffs(p, q, 3, qq)
    with pytest.raises(UsageError):
        RationalPair.of_dicts(*bad_pairs[0], TaylorParams(2, 1, 1, 3), qq)


EQUALITY_FIELDS = [2, 3, 547, PRIMES_62[0], None]  # None: Q
EQUALITY_CASES = [
    (1, 0, 0, 3), (1, 2, 1, 5), (1, 3, 4, 6),
    (2, 2, 0, 4), (2, 3, 2, 6), (2, 1, 3, 4), (2, 5, 4, 7),
    (3, 2, 2, 4), (3, 1, 0, 2), (3, 3, 2, 5),
    (4, 1, 2, 3), (4, 2, 1, 3), (4, 0, 2, 2),
]


@pytest.mark.parametrize("modulus", EQUALITY_FIELDS,
                         ids=lambda p: "Q" if p is None else f"GF{p}"[:10])
def test_taylor_coeffs_matches_ring_oracle(modulus):
    # Kronecker keys and unreduced sums give the ring-operation expansion key
    # for key, in the same order.  Over GF(2) and GF(3) zero coefficients of
    # P, Q and T, and whole zero layers of T, occur.
    ctx = Rationals() if modulus is None else PrimeField(modulus)
    zero_layers = 0
    for case in EQUALITY_CASES:
        params = TaylorParams(*case)
        n, m = params.n, params.m
        for seed in range(12):
            p, q = random_rational_pair(params, ctx, derive_seed("eq", seed))
            got = taylor_coeffs(p, q, m, ctx)
            want = taylor_coeffs_ring(RationalPair.of_dicts(p, q, params, ctx), m)
            assert list(got.items()) == list(want.items())
            if seed == 0:
                # a numerator reaching degree m+1: its terms beyond m are
                # ignored, not aliased onto lower Kronecker keys
                long_p = random_rational_pair(
                    TaylorParams(n, m + 1, 0, m + 2), ctx, derive_seed("long", seed))[0]
                pq = RationalPair(TruncatedSeries(ctx, n, m + 1, long_p),
                                  TruncatedSeries(ctx, n, params.e, q))
                assert taylor_coeffs(long_p, q, m, ctx) == taylor_coeffs_ring(pq, m)
            zero_layers += sum(
                all(ctx.is_zero(got[g]) for g in monomials_of_degree(n, k))
                for k in range(1, m + 1))
    if modulus in (2, 3):
        assert zero_layers > 0


def test_expected_dimension_examples():
    assert expected_dimension(P3223) == 18
    assert expected_dimension(P547) == 34
    assert expected_dimension(TaylorParams(1, 0, 0, 1)) == 0


def test_actual_dimension_examples(gf):
    assert actual_dimension(P3223, trials=3, ctx=gf, seed=0) == 17
    assert actual_dimension(P3223, trials=3, ctx=Rationals(), seed=0) == 17
    assert actual_dimension(P547, trials=3, ctx=gf, seed=0) == 34
    assert actual_dimension(TaylorParams(1, 1, 1, 3), trials=3, ctx=gf, seed=0) <= 2


def test_jacobian_columns_match_jet_perturbation(gf):
    # perturb a single numerator/denominator coefficient by epsilon and read
    # the epsilon part of the coefficient vector, expanded over jets by the
    # oracle's ring copy of taylor_coeffs: must equal the Jacobian column
    params = TaylorParams(2, 2, 2, 4)
    ring = JetRing(gf, order=1)
    rng = random.Random(0)
    n_p_cols = len(monomials_upto(2, params.d)) - 1  # leading columns vary P
    for trial in range(10):
        p, q = random_rational_pair(params, gf, derive_seed("jac", trial))
        pq = RationalPair.of_dicts(p, q, params, gf)
        rows, cols, jac = psi_jacobian(p, q, params, gf)
        col_index = rng.randrange(len(cols))
        beta = cols[col_index]
        perturb_p = col_index < n_p_cols
        def lift(series, bump):
            coeffs = {g: Jet(c) for g, c in series.coeffs.items()}
            if bump:
                base = coeffs.get(beta, Jet(gf.zero))
                coeffs[beta] = Jet(base.val, {0: gf.one})
            return TruncatedSeries(ring, series.nvars, series.order, coeffs)

        jet_pq = RationalPair(lift(pq.p, perturb_p), lift(pq.q, not perturb_p))
        coeffs = taylor_coeffs_ring(jet_pq, params.m)
        for r, g in enumerate(rows):
            eps = coeffs.get(g, ring.zero).d1.get(0, gf.zero)
            assert eps == jac[r][col_index]


def test_membership_roundtrip(gf):
    for seed in range(50):
        p, q = random_rational_pair(P547, gf, seed)
        T = taylor_coeffs(p, q, 7, gf)
        assert membership(T, P547, gf)


def test_membership_random_point_false(gf):
    coords = [g for g in monomials_upto(2, 7) if any(g)]
    T = random_point(coords, gf, 991)
    assert not membership(T, P547, gf)


def test_membership_zero_point_true(gf):
    coords = [g for g in monomials_upto(2, 7) if any(g)]
    assert membership({g: 0 for g in coords}, P547, gf)


def test_nondefective_check_547(gf):
    check = nondefective_hypersurface_check(P547, trials=20, ctx=gf, seed=0)
    assert check.verdict == "non-defective hypersurface"
    assert check.det_nonzero_count == 20
    assert check.actual_dim == check.expected_dim == 34


def test_nondefective_check_3223(gf):
    check = nondefective_hypersurface_check(P3223, trials=5, ctx=gf, seed=0)
    assert check.verdict == "defective"
    assert check.actual_dim == 17
    assert check.expected_dim == 18
    assert not check.is_nondefective_hypersurface


def test_nondefective_check_2112(gf):
    check = nondefective_hypersurface_check(TaylorParams(2, 1, 1, 2), trials=10, ctx=gf, seed=0)
    assert check.params.shape.square
    assert check.verdict == "non-defective hypersurface"


@pytest.mark.parametrize(
    "params,jacobians", [(P547, 1), (P3223, 3)], ids=["547", "3223"]
)
def test_gate_stops_at_expected_dimension(params, jacobians, monkeypatch, gf):
    # The Jacobian rank cannot exceed the expected dimension, so the gate
    # stops at the first sample that reaches it; a defective case never
    # does and ranks all three.  Each sample eliminates the reduced Pade
    # matrix at T (rows x (cols-1)), not the Jacobian.
    shapes = []
    real = variety_mod.eliminate

    def counted(A, field, inverse=False):
        shapes.append((len(A), len(A[0])))
        return real(A, field, inverse)

    monkeypatch.setattr(variety_mod, "eliminate", counted)
    check = nondefective_hypersurface_check(params, trials=2, ctx=gf, seed=0)
    shape = params.shape
    assert shapes.count((shape.rows, shape.cols - 1)) == jacobians
    assert len(shapes) == 2 + jacobians  # two det trials
    assert check.actual_dim == actual_dimension(params, trials=3, ctx=gf, seed=0)


ORACLE_CASES = [
    ((3, 2, 2, 3), ("gf", "qq"), (0, 7)),  # defective
    ((2, 1, 1, 2), ("gf", "qq"), (0, 7)),  # a cone
    ((2, 3, 5, 4), ("gf", "qq"), (0, 7)),  # e > d: the Pade matrix holds c_0 = 1
    ((1, 0, 3, 4), ("gf", "qq"), (0, 7)),  # d = 0: no p-columns
    ((2, 3, 0, 4), ("gf", "qq"), (0, 7)),  # e = 0: no q-columns
    ((2, 25, 9, 27), ("gf",), (0,)),  # the largest gate-e9 case, 405 x 404
]


@pytest.mark.parametrize(
    "case,field,seed",
    [
        pytest.param(case, f, s, id=f"{''.join(map(str, case))}-{f}-s{s}")
        for case, fields, seeds in ORACLE_CASES
        for f in fields
        for s in seeds
    ],
)
def test_gate_rank_matches_jacobian_oracle(case, field, seed, request):
    # On the gate's own samples, C(d+n,n) - 1 plus the rank of the reduced
    # Pade matrix at T = p/q is the rank of the full Jacobian of (p, q) ->
    # (c_g), expanded by series products in the oracle.
    ctx = request.getfixturevalue(field)
    params = TaylorParams(*case)
    n, d, e, m = case
    P = pade_matrix(*case)
    jacobian_ranks = []
    for t in range(3):
        p, q = random_rational_pair(params, ctx, derive_seed("dim", seed, t))
        jac_rank = eliminate(psi_jacobian(p, q, params, ctx)[2], ctx).rank
        if e == 0:
            pade_rank = 0
        else:
            A = reduced_pade(P).evaluate(taylor_coeffs(p, q, m, ctx), ctx)
            pade_rank = eliminate(A, ctx).rank
        assert comb(d + n, n) - 1 + pade_rank == jac_rank
        jacobian_ranks.append(jac_rank)
    assert actual_dimension(params, trials=3, ctx=ctx, seed=seed) == max(jacobian_ranks)


def test_gate_without_q_columns_ranks_nothing(monkeypatch, gf):
    # e = 0: the rank is C(d+n,n) - 1 at every pair, so no pair is sampled
    # and nothing is eliminated.
    monkeypatch.setattr(variety_mod, "eliminate", None)
    monkeypatch.setattr(variety_mod, "random_rational_pair", None)
    assert actual_dimension(TaylorParams(2, 3, 0, 4), ctx=gf) == comb(5, 2) - 1


def test_square_family():
    fam = square_family(4)
    assert [(p.d, p.e, p.m) for p in fam] == [(5, 4, 7)]
    fam = square_family(5)
    assert [(p.d, p.e, p.m) for p in fam] == [(5, 4, 7), (8, 5, 10)]
    fam = square_family(8)
    assert (20, 8, 22) in [(p.d, p.e, p.m) for p in fam]
    for p in square_family(9):
        assert p.is_square and p.m == p.d + 2 and p.d >= p.e
    with pytest.raises(UsageError):
        square_family(0)


def test_det_trials_schwartz_zippel_margin(gf):
    # for the square non-defective case the determinant is nonzero in at
    # least 19 of 20 trials (generic points over a 62-bit prime)
    check = nondefective_hypersurface_check(P547, trials=20, ctx=gf, seed=123)
    assert check.det_nonzero_count >= 19
