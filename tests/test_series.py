import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taylorpade.errors import UsageError
from taylorpade.fields import PRIMES_62, PrimeField
from taylorpade.series import SparsePoly, monomials_of_degree, monomials_upto

from oracles import (
    TruncatedSeries,
    series_add,
    series_inverse,
    series_is_zero,
    series_mul,
    series_one,
    series_zero,
)


def ts(field, nvars, order, terms):
    return TruncatedSeries(field, nvars, order, dict(terms))


def test_difference_of_squares(qq):
    a = ts(qq, 1, 2, {(0,): Fraction(1), (1,): Fraction(1)})
    b = ts(qq, 1, 2, {(0,): Fraction(1), (1,): Fraction(-1)})
    prod = series_mul(a, b, 2)
    assert prod == ts(qq, 1, 2, {(0,): Fraction(1), (2,): Fraction(-1)})


def test_mul_by_zero(qq):
    a = ts(qq, 2, 3, {(1, 0): Fraction(2), (0, 2): Fraction(5)})
    z = series_zero(qq, 2, 3)
    assert series_is_zero(series_mul(a, z, 3))


def _brute_convolution(a, b, order):
    """Independent oracle: direct convolution over all exponent pairs."""
    f = a.field
    out = {}
    for g, ca in a.coeffs.items():
        for h, cb in b.coeffs.items():
            k = tuple(x + y for x, y in zip(g, h))
            if sum(k) <= order:
                out[k] = f.add(out.get(k, f.zero), f.mul(ca, cb))
    return {k: v for k, v in out.items() if not f.is_zero(v)}


def _random_series(field, nvars, deg, order, rng):
    coeffs = {g: field.sub(rng.randint(-9, 9), field.zero)
              for g in monomials_upto(nvars, deg)}
    return TruncatedSeries(field, nvars, order, coeffs)


def test_mul_matches_convolution_oracle(qq):
    rng = random.Random(7)
    for _ in range(20):
        a = _random_series(qq, 2, 3, 6, rng)
        b = _random_series(qq, 2, 3, 6, rng)
        assert series_mul(a, b, 6).coeffs == _brute_convolution(a, b, 6)


@settings(max_examples=40)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(0, 4))
def test_mul_commutative_associative(seed, nvars, order):
    gf = PrimeField(PRIMES_62[0])
    rng = random.Random(seed)
    a = _random_series(gf, nvars, 2, order, rng)
    b = _random_series(gf, nvars, 2, order, rng)
    c = _random_series(gf, nvars, 2, order, rng)
    assert series_mul(a, b, order) == series_mul(b, a, order)
    left = series_mul(series_mul(a, b, order), c, order)
    right = series_mul(a, series_mul(b, c, order), order)
    assert left == right


def test_mul_distributes(qq):
    rng = random.Random(3)
    a = _random_series(qq, 2, 2, 4, rng)
    b = _random_series(qq, 2, 2, 4, rng)
    c = _random_series(qq, 2, 2, 4, rng)
    assert series_mul(a, series_add(b, c), 4) == series_add(
        series_mul(a, b, 4), series_mul(a, c, 4)
    )


def test_mismatched_contexts_rejected(qq, gf):
    a = series_one(qq, 2, 3)
    b = series_one(qq, 3, 3)
    with pytest.raises(UsageError):
        series_mul(a, b, 3)
    c = series_one(gf, 2, 3)
    with pytest.raises(UsageError):
        series_mul(a, c, 3)


def test_inverse_of_one(qq):
    one = series_one(qq, 2, 5)
    assert series_inverse(one, 5) == one


def test_inverse_geometric_series(qq):
    q = ts(qq, 1, 3, {(0,): Fraction(1), (1,): Fraction(-1)})
    inv = series_inverse(q, 3)
    assert inv == ts(qq, 1, 3, {(k,): Fraction(1) for k in range(4)})


def test_inverse_two_vars(qq):
    q = ts(qq, 2, 2, {(0, 0): Fraction(1), (1, 0): Fraction(1), (0, 1): Fraction(1)})
    inv = series_inverse(q, 2)
    expected = ts(
        qq,
        2,
        2,
        {
            (0, 0): Fraction(1),
            (1, 0): Fraction(-1),
            (0, 1): Fraction(-1),
            (2, 0): Fraction(1),
            (1, 1): Fraction(2),
            (0, 2): Fraction(1),
        },
    )
    assert inv == expected
    # multiply back to 1 modulo degree 3
    assert series_mul(q, inv, 2) == series_one(qq, 2, 2)


@settings(max_examples=30)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(0, 12))
def test_inverse_roundtrip(seed, nvars, order):
    gf = PrimeField(PRIMES_62[0])
    rng = random.Random(seed)
    coeffs = {g: gf.of_fraction(Fraction(rng.randint(-9, 9)))
              for g in monomials_upto(nvars, 3)}
    coeffs[(0,) * nvars] = gf.one
    q = TruncatedSeries(gf, nvars, order, coeffs)
    assert series_mul(q, series_inverse(q, order), order) == series_one(gf, nvars, order)


def test_inverse_requires_unit_constant(qq):
    q = ts(qq, 1, 3, {(0,): Fraction(2), (1,): Fraction(1)})
    with pytest.raises(UsageError, match="constant term"):
        series_inverse(q, 3)
    with pytest.raises(UsageError, match="constant term"):
        series_inverse(series_zero(qq, 1, 3), 3)


def test_truncation_drops_high_degrees(qq):
    a = ts(qq, 1, 4, {(3,): Fraction(1)})
    prod = series_mul(a, a, 4)
    assert series_is_zero(prod)  # degree 6 term truncated


def test_monomials_counts_and_order():
    assert monomials_of_degree(2, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert len(monomials_upto(2, 7)) == 36
    assert monomials_of_degree(1, 5) == [(5,)]
    assert monomials_upto(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_sparse_poly_basics():
    f = SparsePoly.from_terms(2, [((2, 0), 1), ((0, 2), -1)])
    assert f.is_homogeneous() and f.degree() == 2
    g = f.diff(0)
    assert g == SparsePoly.from_terms(2, [((1, 0), 2)])
    gf = PrimeField(PRIMES_62[0])
    assert f.eval(gf, [3, 1]) == 8
    mixed = SparsePoly.from_terms(2, [((2, 0), 1), ((1, 0), 1)])
    assert not mixed.is_homogeneous()


def test_sparse_poly_refuses_floats():
    # 0.1 used to be stored as its binary expansion and certified as exact
    with pytest.raises(UsageError, match="0.1"):
        SparsePoly(2, {(2, 0): 0.1, (1, 1): 1, (0, 2): 1})
    with pytest.raises(UsageError):
        SparsePoly.from_terms(2, [((2, 0), 1), ((2, 0), 1.0)])
    f = SparsePoly(2, {(2, 0): Fraction(1, 10), (1, 1): 1, (0, 2): 0})
    assert f.coeffs == {(2, 0): Fraction(1, 10), (1, 1): 1}


def test_sparse_poly_refuses_wrong_arity():
    with pytest.raises(UsageError, match="wrong arity"):
        SparsePoly(2, {(1,): 1})
    with pytest.raises(UsageError, match="wrong number of coordinate values"):
        SparsePoly(2, {(1, 1): 1}).eval(PrimeField(PRIMES_62[0]), [1])


def test_sparse_poly_eval_costs_log_of_the_exponent(monkeypatch):
    # x^(10^6) used to take 10^6 multiplications, one per unit of exponent
    gf = PrimeField(PRIMES_62[0])
    calls = []
    real = PrimeField.mul

    def counted(self, a, b):
        calls.append(1)
        return real(self, a, b)

    monkeypatch.setattr(PrimeField, "mul", counted)
    value = SparsePoly.from_terms(1, [((10**6,), 1)]).eval(gf, [3])
    assert value == pow(3, 10**6, gf.p)
    assert len(calls) <= 64
