import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taylorpade.errors import UsageError
from taylorpade.fields import (
    _BUILTIN_PRIMES,
    DEFAULT_RATIONAL_BOUND,
    PRIMES_62,
    SURVEY_PRIME,
    PrimeField,
    Rationals,
    derive_seed,
    is_probable_prime,
    point_hash,
    random_point,
)

from oracles import GF, QQ, Jet, JetRing, is_unit, ring_inv


def test_builtin_primes_are_prime_and_62_bit():
    for p in PRIMES_62:
        assert is_probable_prime(p)
        assert 2**61 < p < 2**62


def test_prime_field_skips_miller_rabin_only_for_the_builtin_primes():
    # PrimeField trusts these without a test, so prove each one here.
    assert _BUILTIN_PRIMES == {*PRIMES_62, SURVEY_PRIME}
    assert all(map(is_probable_prime, _BUILTIN_PRIMES))


def test_miller_rabin_composites():
    # psi_12 = 399165290221 * 798330580441 passes every prime base up to 37
    for n in (1, 0, 561, 41041, 2**62 - 1, 3215031751, 318665857834031151167461):
        assert not is_probable_prime(n)
    for n in (2, 3, 5, 97, 2**31 - 1):
        assert is_probable_prime(n)


def test_prime_field_rejects_composite():
    with pytest.raises(UsageError):
        PrimeField(2**62)


def test_field_classes_carry_no_element_arithmetic(gf, qq):
    # elements are plain ints: src/ computes on them with % p itself, and
    # the ring arithmetic the oracles read lives in their GF and QQ
    arithmetic = {"zero", "one", "add", "sub", "mul", "is_zero"}
    for cls in (PrimeField, Rationals):
        assert not arithmetic & set(dir(cls))
    assert gf == PrimeField(gf.p) and qq == Rationals()


def test_prime_field_ops(gf):
    # gf.mul and gf.add are the oracles' GF arithmetic
    p = gf.p
    assert gf.mul(p - 1, p - 1) == 1
    assert gf.add(p - 1, 1) == 0
    assert gf.of_fraction(Fraction(-2, 3)) * 3 % p == p - 2
    assert gf.of_fraction(Fraction(-2)) == p - 2


@pytest.mark.parametrize("field", ["gf", "qq"])
def test_oracle_base_field_inverse(field, request):
    # the field contexts offer no inverse; the oracles' helper does, for
    # eliminate_ring and JetRing.inv over GF(p) and Q
    ctx = request.getfixturevalue(field)
    for a in (ctx.sub(k, ctx.zero) for k in (1, -2, 3, 12345)):
        assert is_unit(ctx, a)
        assert ctx.mul(ring_inv(ctx, a), a) == ctx.one
    assert not is_unit(ctx, ctx.zero)
    with pytest.raises(ZeroDivisionError):
        ring_inv(ctx, ctx.zero)


def test_random_point_deterministic(gf):
    vs = [(i, j) for i in range(6) for j in range(6)]
    a = random_point(vs, gf, 123)
    b = random_point(vs, gf, 123)
    assert a == b
    c = random_point(vs, gf, 124)
    assert a != c
    assert all(0 <= v < gf.p for v in a.values())


def test_random_point_rational_bound():
    pt = random_point([(i,) for i in range(50)], Rationals(), 0)
    bound = DEFAULT_RATIONAL_BOUND
    assert all(-bound <= v <= bound and type(v) is int for v in pt.values())
    assert max(abs(v) for v in pt.values()) > bound // 2


def test_random_point_errors(gf, qq):
    with pytest.raises(UsageError):
        random_point([], gf, 0)


def test_derive_seed_stable():
    assert derive_seed("a", 1) == derive_seed("a", 1)
    assert derive_seed("a", 1) != derive_seed("a", 2)


def test_digests_are_hashlib_sha256():
    # fields takes sha256 from the builtin module where it exists
    for parts in [(), ("gate", 0), ("hessian", 7, 3, "resample", 2), ("det", -1, 10**30)]:
        digest = hashlib.sha256(repr(parts).encode()).digest()
        assert derive_seed(*parts) == int.from_bytes(digest[:8], "big")
    for point in ({(0,): 0}, {(1, 0): -3, (0, 1): 5}, {(i, 2): i * i for i in range(40)}):
        blob = repr(sorted(point.items())).encode()
        assert point_hash(point) == hashlib.sha256(blob).hexdigest()[:16]


def _jet_eval_poly(ring, coeffs, x):
    """Evaluate sum_k coeffs[k] * x^k with jet arithmetic."""
    acc = ring.zero
    power = ring.one
    for c in coeffs:
        acc = ring.add(acc, ring.mul(ring.constant(c), power))
        power = ring.mul(power, x)
    return acc


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5), st.integers(-20, 20))
def test_jet_first_derivative_matches_analytic(coeffs, a):
    # polynomial test functions of degree <= 4, exact over the rationals
    ring = JetRing(QQ(), order=2)
    coeffs = [Fraction(c) for c in coeffs]
    x = ring.variable(Fraction(a), 0)
    val = _jet_eval_poly(ring, coeffs, x)
    analytic = sum(k * c * Fraction(a) ** (k - 1) for k, c in enumerate(coeffs) if k)
    second = sum(
        k * (k - 1) * c * Fraction(a) ** (k - 2) for k, c in enumerate(coeffs) if k >= 2
    )
    assert val.val == sum(c * Fraction(a) ** k for k, c in enumerate(coeffs))
    assert val.d1.get(0, Fraction(0)) == analytic
    # epsilon^2 coefficient is half the second derivative
    assert 2 * val.d2.get((0, 0), Fraction(0)) == second


def test_jet_three_epsilon_products_vanish(qq):
    ring = JetRing(qq, order=2)
    e0 = ring.variable(Fraction(0), 0)
    e1 = ring.variable(Fraction(0), 1)
    e2 = ring.variable(Fraction(0), 2)
    prod = ring.mul(ring.mul(e0, e1), e2)
    assert ring.is_zero(prod)


def test_jet_mixed_second_order(qq):
    # f(u, v) = u*v: d2/dudv = 1 read from the (0,1) coefficient
    ring = JetRing(qq, order=2)
    u = ring.variable(Fraction(3), 0)
    v = ring.variable(Fraction(5), 1)
    prod = ring.mul(u, v)
    assert prod.val == 15
    assert prod.d2[(0, 1)] == 1


def test_jet_inverse(gf):
    ring = JetRing(gf, order=2)
    a = Jet(7, {0: 2, 1: 5}, {(0, 1): 3})
    inv = ring.inv(a)
    assert ring.mul(a, inv) == ring.one
    with pytest.raises(ZeroDivisionError):
        ring.inv(Jet(0, {0: 1}))


def test_first_order_ring_drops_quadratic(gf):
    ring = JetRing(gf, order=1)
    a = ring.variable(3, 0)
    b = ring.variable(4, 1)
    prod = ring.mul(a, b)
    assert prod.d2 == {}
    assert prod.d1 == {0: 4, 1: 3}


@settings(max_examples=50)
@given(
    st.lists(st.integers(-50, 50), min_size=4, max_size=4),
)
def test_prime_field_agrees_with_rationals_mod_p(xs):
    # random expression (a*b - c) * d + a, evaluated both ways
    gf = GF(PRIMES_62[1])

    def of_int(k):
        return gf.of_fraction(Fraction(k))

    a, b, c, d = xs
    exact = (a * b - c) * d + a
    modular = gf.add(
        gf.mul(gf.sub(gf.mul(of_int(a), of_int(b)), of_int(c)), of_int(d)),
        of_int(a),
    )
    assert modular == exact % gf.p
