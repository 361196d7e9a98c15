import random
from fractions import Fraction
from itertools import islice
from math import comb

import pytest

import taylorpade.detcalc as detcalc_mod
import taylorpade.variety as variety_mod
from taylorpade.errors import UsageError
from taylorpade.fields import (
    PRIMES_62,
    SURVEY_PRIME,
    Rationals,
    derive_seed,
    random_point,
)
from taylorpade.detcalc import rank_rational, rational_primes
from taylorpade.pade import SymbolicMatrix, pade_matrix, pade_shape
from taylorpade.series import monomials_of_degree, monomials_upto
from taylorpade.variety import (
    TaylorParams,
    actual_dimension,
    expected_dimension,
    lift_taylor_coeffs,
    majorant,
    nondefective_hypersurface_check,
    random_rational_pair,
    square_family,
    taylor_coeffs,
)

from oracles import (
    GF,
    QQ,
    Jet,
    JetRing,
    RationalPair,
    TruncatedSeries,
    eliminate_bareiss,
    membership,
    rank_of,
    psi_jacobian,
    series_mul,
    taylor_coeffs_ring,
)

P547 = TaylorParams(2, 5, 4, 7)
P3223 = TaylorParams(3, 2, 2, 3)


def _lift(p, q, m):
    """The program's integer T = p/q, lifted from ``taylor_coeffs`` mod primes."""
    return lift_taylor_coeffs(p, q, m, lambda prime: taylor_coeffs(p, q, m, GF(prime)))


def test_params_validation():
    with pytest.raises(UsageError):
        TaylorParams(2, 5, 4, 5)
    with pytest.raises(UsageError):
        TaylorParams(0, 1, 1, 2)
    assert P547.ambient_coords == 36
    assert P547.ambient_dim == 35
    assert P547.is_square


def test_params_are_read_only_values():
    params, twin = TaylorParams(2, 5, 4, 7), TaylorParams(2, 5, 4, 7)
    with pytest.raises(AttributeError):
        params.d = 8  # the cached Pade matrix would go stale
    with pytest.raises(UsageError):
        params._replace(m=5)
    assert params == twin and hash(params) == hash(twin) and {params: 1}[twin] == 1
    assert params != TaylorParams(2, 8, 5, 10)
    assert params.pade is params.pade and twin.pade is not params.pade
    assert params.pade.params == (2, 5, 4, 7)


def test_taylor_coeffs_p_equals_q(qq, gf):
    p, _ = random_rational_pair(TaylorParams(2, 3, 3, 5), qq, 1)
    # every 0 < |g| <= m is present, so the Pade matrix evaluates at it,
    # mod a prime and over Q, lifted
    coords = [g for g in monomials_upto(2, 5) if any(g)]
    assert taylor_coeffs(p, p, 5, gf) == {g: 0 for g in coords}
    assert _lift(p, p, 5) == {g: qq.zero for g in coords}


def test_taylor_coeffs_geometric(gf):
    p, q = {(0,): 1}, {(0,): 1, (1,): -1}
    assert taylor_coeffs(p, q, 4, gf) == {(k,): 1 for k in range(1, 5)}
    assert _lift(p, q, 4) == {(k,): 1 for k in range(1, 5)}
    # mod 2, and over Q with alternating signs
    assert taylor_coeffs(p, {(0,): 1, (1,): 1}, 4, GF(2)) == {(k,): 1 for k in range(1, 5)}
    assert _lift(p, {(0,): 1, (1,): 1}, 4) == {
        (k,): (-1) ** k for k in range(1, 5)}


def test_taylor_coeffs_defining_identity(qq):
    # Q * (1 + sum c_g x^g) = P modulo degree m+1, exactly, for the lifted T
    for seed in range(5):
        pq = RationalPair.of_dicts(*random_rational_pair(P547, qq, seed), P547, qq)
        m = 7
        c = _lift(pq.p.coeffs, pq.q.coeffs, m)
        t = TruncatedSeries(qq, 2, m, {**c, (0, 0): qq.one})
        lhs = series_mul(pq.q, t, m)
        rhs = TruncatedSeries(qq, 2, m, pq.p.coeffs)
        assert lhs == rhs


def test_rational_pair_validation(qq, gf):
    # taylor_coeffs makes the checks of oracles.RationalPair on the
    # program's coefficient dicts, whose values are ints
    one = 1
    bad_pairs = [
        ({(0, 0): 2}, {(0, 0): one}),
        ({(0, 0): one}, {(1, 0): one}),  # no constant term
        ({}, {(0, 0): one}),
        ({(0, 0): one}, {(0, 0): one, (1, 0, 0): 3}),  # arity
        ({(0, 0): one, (1, 0): Fraction(1, 2)}, {(0, 0): one}),  # not an int
        ({(0, 0): one}, {(0, 0): one, (0, 1): Fraction(-2, 3)}),
    ]
    for p, q in bad_pairs:
        with pytest.raises(UsageError):
            taylor_coeffs(p, q, 3, gf)
    with pytest.raises(UsageError):
        RationalPair.of_dicts(*bad_pairs[0], TaylorParams(2, 1, 1, 3), qq)


EQUALITY_FIELDS = [2, 3, 547, SURVEY_PRIME, 2**61 + 15, PRIMES_62[0], None]  # None: Q
EQUALITY_CASES = [
    (1, 0, 0, 3), (1, 2, 1, 5), (1, 3, 4, 6),
    (2, 2, 0, 4), (2, 3, 2, 6), (2, 1, 3, 4), (2, 5, 4, 7), (2, 1, 5, 3),
    (3, 2, 2, 4), (3, 1, 0, 2), (3, 3, 2, 5),
    (4, 1, 2, 3), (4, 2, 1, 3), (4, 0, 2, 2),
    (2, 20, 8, 22),
]
EQUALITY_SEEDS = {(2, 20, 8, 22): 2}  # 12 seeds for every other case


def _expands_as_oracle(p, q, m, want, modulus):
    """The program's expansion of p/q equals the oracle's, ``want``, key for
    key and in order, and returns it: ``taylor_coeffs`` over GF(modulus),
    and over Q (modulus None) the lifted T, within the majorant, while the
    exact T reduced mod each prime of ``EQUALITY_FIELDS`` is
    ``taylor_coeffs`` there."""
    if modulus is not None:
        got = taylor_coeffs(p, q, m, GF(modulus))
    else:
        for prime in EQUALITY_FIELDS[:-1]:
            assert list(taylor_coeffs(p, q, m, GF(prime)).items()) == [
                (g, int(c) % prime) for g, c in want.items()]
        got, bound = _lift(p, q, m), majorant(p, q, m)
        assert all(abs(c) <= bound[sum(g)] for g, c in got.items())
    assert list(got.items()) == list(want.items())
    return got


@pytest.mark.parametrize("modulus", EQUALITY_FIELDS,
                         ids=lambda p: "Q" if p is None else f"GF{p}"[:10])
def test_taylor_coeffs_matches_ring_oracle(modulus):
    # Packed layers and unreduced sums give the ring-operation expansion key
    # for key, in the same order.  Over GF(2) and GF(3) zero coefficients of
    # P, Q and T, and whole zero layers of T, occur; (2,1,5,3) has e > m;
    # over Q, (2,20,8,22) takes T's coefficients past 100 bits.
    ctx = QQ() if modulus is None else GF(modulus)
    zero_layers = widest = 0
    for case in EQUALITY_CASES:
        params = TaylorParams(*case)
        n, m = params.n, params.m
        for seed in range(EQUALITY_SEEDS.get(case, 12)):
            p, q = random_rational_pair(params, ctx, derive_seed("eq", seed))
            want = taylor_coeffs_ring(RationalPair.of_dicts(p, q, params, ctx), m)
            got = _expands_as_oracle(p, q, m, want, modulus)
            if seed == 0:
                # a numerator reaching degree m+1: its terms beyond m are
                # ignored, not aliased onto lower Kronecker keys
                long_p = random_rational_pair(
                    TaylorParams(n, m + 1, 0, m + 2), ctx, derive_seed("long", seed))[0]
                pq = RationalPair(TruncatedSeries(ctx, n, m + 1, long_p),
                                  TruncatedSeries(ctx, n, params.e, q))
                _expands_as_oracle(long_p, q, m, taylor_coeffs_ring(pq, m), modulus)
            zero_layers += sum(
                all(ctx.is_zero(got[g]) for g in monomials_of_degree(n, k))
                for k in range(1, m + 1))
            widest = max(widest, *(abs(c).bit_length() for c in got.values()))
    if modulus in (2, 3):
        assert zero_layers > 0
    if modulus is None:
        assert widest > 100
    # caller-given ints near 2^80: over Q the majorant, not
    # DEFAULT_RATIONAL_BOUND, sizes the lift
    rng = random.Random(80)
    p, q = ({g: rng.choice((-1, 1)) * (2**80 - rng.randrange(2**16)) if any(g) else 1
             for g in monomials_upto(2, deg)} for deg in (5, 4))
    want = taylor_coeffs_ring(RationalPair.of_dicts(p, q, P547, ctx), 7)
    _expands_as_oracle(p, q, 7, want, modulus)


def test_expected_dimension_examples():
    assert expected_dimension(P3223) == 18
    assert expected_dimension(P547) == 34
    assert expected_dimension(TaylorParams(1, 0, 0, 1)) == 0


def test_square_cases_expect_a_hypersurface():
    # The gate's hypersurface verdict compares the actual dimension with the
    # expected one only: rows = cols makes C(d+n,n) + C(e+n,n) - 2 equal
    # C(m+n,n) - 2, so a square Pade matrix expects dimension N - 1.
    square = []
    for n in range(1, 6):
        for d in range(40):
            for e in range(40):
                square += [TaylorParams(n, d, e, m) for m in range(d + 1, d + 30)
                           if pade_shape(n, d, e, m).square]
    assert len(square) == 1235
    for params in square:
        assert expected_dimension(params) == params.ambient_dim - 1


def test_actual_dimension_examples(gf):
    assert actual_dimension(P3223, ctx=gf, seed=0) == 17
    assert actual_dimension(P3223, ctx=Rationals(), seed=0) == 17
    assert actual_dimension(P547, ctx=gf, seed=0) == 34
    assert actual_dimension(TaylorParams(1, 1, 1, 3), ctx=gf, seed=0) <= 2


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
    # does and ranks all three.  Each sample eliminates the Pade matrix at T
    # without its sigma = 0 column (rows x (cols-1)), not the Jacobian.
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
    assert check.actual_dim == actual_dimension(params, ctx=gf, seed=0)


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
    # On the gate's own samples, C(d+n,n) - 1 plus the rank of the Pade
    # matrix at T = p/q without its sigma = 0 column is the rank of the full
    # Jacobian of (p, q) -> (c_g), expanded by series products in the oracle.
    ctx = request.getfixturevalue(field)
    params = TaylorParams(*case)
    n, d, e, m = case
    P = pade_matrix(*case)
    jacobian_ranks = []
    for t in range(3):
        p, q = random_rational_pair(params, ctx, derive_seed("dim", seed, t))
        jac_rank = rank_of(psi_jacobian(p, q, params, ctx)[2], ctx)
        if e == 0:
            pade_rank = 0
        else:
            T = (_lift(p, q, m) if field == "qq"
                 else taylor_coeffs(p, q, m, ctx))
            pade_rank = rank_of([row[1:] for row in P.evaluate(T)], ctx)
        assert comb(d + n, n) - 1 + pade_rank == jac_rank
        jacobian_ranks.append(jac_rank)
    assert actual_dimension(params, ctx=ctx, seed=seed) == max(jacobian_ranks)


# every exact-q and gate-e9 case, (1,3,2,6), (2,3,0,4) (e = 0), and the
# square family up to e = 9: (2,5,4,7), (2,8,5,10), (2,20,8,22), (2,25,9,27)
PREFILTER_CASES = sorted({
    (2, 8, 5, 10), (2, 12, 6, 14), (3, 4, 3, 6), (3, 2, 2, 3), (2, 25, 9, 27),
    (1, 3, 2, 6), (2, 3, 0, 4), *map(tuple, square_family(9)),
})


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("case", PREFILTER_CASES, ids=lambda c: "".join(map(str, c)))
def test_rational_prefilter_agrees_with_bareiss(case, seed, qq):
    # The gate's two matrices over Q, P without its sigma = 0 column at the
    # gate's first T and P at its first det point: the rank certified mod primes
    # is Bareiss's, and a square one is full exactly when its det is
    # nonzero.  With e = 0 only P has columns.  The gate ranks the first
    # from T mod each prime it takes, and gets Bareiss's rank too.
    params = TaylorParams(*case)
    P = params.pade
    matrices = [P.evaluate(random_point(P.variables(), qq, derive_seed("det", seed, 0)))]
    if case[2]:
        p, q = random_rational_pair(params, qq, derive_seed("dim", seed, 0))
        T = _lift(p, q, params.m)
        matrices.append([row[1:] for row in P.evaluate(T)])
        tail = SymbolicMatrix([row[1:] for row in P.entries])
        assert variety_mod._pair_rank(tail, p, q, params.m, qq) == eliminate_bareiss(
            matrices[-1]).rank
    for A in matrices:
        fast, exact = rank_rational(A), eliminate_bareiss(A)
        assert fast == exact.rank
        if exact.det is not None:
            assert (fast == len(A)) == (exact.det != 0)


def _primes_per_rank(monkeypatch):
    """Primes each ``rank_rational`` call of the gate takes, in call order."""
    taken, counts = [], []
    body, rank = detcalc_mod._eliminate_modp, variety_mod.rank_rational

    def counted_body(A, ncols, p, inverse):
        taken.append(p)
        return body(A, ncols, p, inverse)

    def counted_rank(A, exact=None):
        taken.clear()
        out = rank(A, exact)
        assert taken == list(islice(rational_primes(), len(taken)))
        counts.append(len(taken))
        return out

    monkeypatch.setattr(detcalc_mod, "_eliminate_modp", counted_body)
    monkeypatch.setattr(variety_mod, "rank_rational", counted_rank)
    return counts


@pytest.mark.parametrize("case,actual,primes", [
    pytest.param(*args, id="".join(map(str, args[0]))) for args in [
        ((2, 8, 5, 10), 64, (1,) * 5),
        ((2, 12, 6, 14), 117, (1,)),
        ((3, 4, 3, 6), 53, (1,)),
        ((2, 25, 9, 27), 404, (1,) * 5),
        # det(P) = 0 identically and P at T less column 0 has rank 8 of 9 at
        # every pair over Q, so no elimination is full rank mod p: each of
        # the four det trials and the three pairs certifies its rank with
        # more primes, SURVEY_PRIME and PRIMES_62[0] alone (about 2^92) or
        # with PRIMES_62[1]
        ((3, 2, 2, 3), 17, (2, 2, 2, 2, 3, 3, 3)),
    ]
])
def test_rational_gate_primes_per_elimination(case, actual, primes, monkeypatch, qq):
    counts = _primes_per_rank(monkeypatch)
    check = nondefective_hypersurface_check(TaylorParams(*case), trials=4,
                                            ctx=qq, seed=0)
    assert check.actual_dim == actual
    assert counts == list(primes)


@pytest.mark.parametrize("case, pairs", [
    pytest.param(case, pairs, id="".join(map(str, case))) for case, pairs in [
        *((tuple(c), 1) for c in square_family(9)), ((3, 4, 3, 6), 1),
        # short of full rank at every pair: the lift reads T mod
        # SURVEY_PRIME, which alone passes twice the majorant
        ((3, 2, 2, 3), 3),
    ]
])
def test_rational_gate_expands_once_per_pair(case, pairs, monkeypatch, qq):
    # Over Q a dimension pair expands T once, mod SURVEY_PRIME: where that
    # prime gives full rank, and where the lift reads its residues alone.
    fields = []
    real = variety_mod.taylor_coeffs
    monkeypatch.setattr(variety_mod, "taylor_coeffs",
                        lambda p, q, m, field: fields.append(field.p) or real(p, q, m, field))
    actual_dimension(TaylorParams(*case), ctx=qq, seed=0)
    assert fields == [SURVEY_PRIME] * pairs


def test_gate_without_q_columns_samples_one_pair(monkeypatch, gf, qq):
    # e = 0: P has no column besides sigma = 0, so a pair ranks an N x 0
    # matrix, 0 over GF(p) and over Q, and the first pair already reaches the
    # expected dimension C(d+n,n) - 1.
    pairs = []
    real = variety_mod.random_rational_pair
    monkeypatch.setattr(variety_mod, "random_rational_pair",
                        lambda *args: pairs.append(args) or real(*args))
    for ctx in (gf, qq):
        assert actual_dimension(TaylorParams(2, 3, 0, 4), ctx=ctx) == comb(5, 2) - 1
    assert len(pairs) == 2


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
