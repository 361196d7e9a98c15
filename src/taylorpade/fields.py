"""Coefficient arithmetic: arbitrary-precision rationals, word-sized prime
fields, and second-order jets.

A *field context* bundles the operations the rest of the package needs
(``add``, ``mul``, ``inv``, sampling, ...) while keeping the element
representation cheap: prime-field elements are plain ints in ``[0, p)``,
rational elements are ``fractions.Fraction``, jet elements are :class:`Jet`
instances.  Matrix and series code is written against this context protocol,
so the same elimination routine runs over any of the three rings.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from typing import Hashable, Sequence

from .errors import DomainError, UsageError

# Fixed evaluation primes, all just below 2^62: single-word arithmetic with a
# negligible per-trial Schwartz-Zippel failure probability.  Randomized runs
# rotate through this list unless an explicit prime is requested.
PRIMES_62 = (
    4611686018427387847,
    4611686018427387817,
    4611686018427387787,
    4611686018427387761,
    4611686018427387751,
    4611686018427387737,
    4611686018427387733,
    4611686018427387709,
)

DEFAULT_RATIONAL_BOUND = 100

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a base set that is deterministic below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def derive_seed(*parts: Hashable) -> int:
    """Deterministic, platform-independent sub-seed from arbitrary labels."""
    blob = repr(parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


class PrimeField:
    """GF(p) with elements represented as ints in ``[0, p)``."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_probable_prime(p):
            raise UsageError(f"modulus {p} is not prime")
        self.p = p

    zero = 0
    one = 1

    def of_int(self, k: int) -> int:
        return k % self.p

    def of_fraction(self, fr: Fraction) -> int:
        if fr.denominator % self.p == 0:
            raise DomainError(f"denominator divisible by p={self.p}")
        return fr.numerator * pow(fr.denominator, -1, self.p) % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, -1, self.p)

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def is_unit(self, a: int) -> bool:
        return a % self.p != 0

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class Rationals:
    """Exact rational arithmetic on ``fractions.Fraction`` values.

    Random samples are uniform integers in ``[-B, B]``, B =
    ``DEFAULT_RATIONAL_BOUND``, which keeps Bareiss determinant bit growth
    manageable at the matrix sizes this package works with.
    """

    __slots__ = ()

    zero = Fraction(0)
    one = Fraction(1)

    def of_int(self, k: int) -> Fraction:
        return Fraction(k)

    def of_fraction(self, fr: Fraction) -> Fraction:
        return fr

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def is_unit(self, a) -> bool:
        return a != 0

    def sample(self, rng: random.Random) -> Fraction:
        return Fraction(rng.randint(-DEFAULT_RATIONAL_BOUND, DEFAULT_RATIONAL_BOUND))

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("Rationals")

    def __repr__(self) -> str:
        return "Rationals()"


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
        base = self.base
        return Jet(
            base.neg(a.val),
            {i: base.neg(c) for i, c in a.d1.items()},
            {ij: base.neg(c) for ij, c in a.d2.items()},
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
        v_inv = base.inv(a.val)
        w = Jet(base.zero, dict(a.d1), dict(a.d2))
        t = self.mul(w, self.constant(v_inv))  # w/v
        res = self.sub(self.one, t)
        if self.order == 2:
            res = self.add(res, self.mul(t, t))
        return self.mul(res, self.constant(v_inv))

    def is_zero(self, a: Jet) -> bool:
        return self.base.is_zero(a.val) and not a.d1 and not a.d2

    def is_unit(self, a: Jet) -> bool:
        return not self.base.is_zero(a.val)

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


def random_point(variables: Sequence[Hashable], ctx, seed) -> dict:
    """Assign an independent uniform field element to each listed variable.

    Prime field: uniform in ``{0, ..., p-1}``.  Rationals: uniform integers in
    ``[-B, B]`` with ``B = DEFAULT_RATIONAL_BOUND``.  Deterministic under a fixed
    seed.
    """
    if isinstance(ctx, JetRing):
        raise UsageError("random_point needs an exact-rational or prime-field context")
    variables = list(variables)
    if not variables:
        raise UsageError("empty variable list")
    rng = random.Random(seed)
    return {v: ctx.sample(rng) for v in variables}


def point_hash(point: dict) -> str:
    """Short stable digest of a point assignment, for trial records."""
    items = sorted(point.items(), key=lambda kv: kv[0])
    blob = repr(items).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
