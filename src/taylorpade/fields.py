"""Coefficient fields: the rationals and word-sized prime fields.

A field element is a plain int: in ``[0, p)`` over GF(p), and over Q every
value the package samples or computes is an integer.  A field object names
the field and draws its random elements (``sample``); the code that
computes on elements reads ``p`` and reduces with ``% p`` itself.
"""

from __future__ import annotations

import random
from typing import Hashable, Sequence

from .errors import UsageError

try:  # hashlib loads OpenSSL; CPython's builtin module gives the same digests sooner
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256  # CPython 3.12 on
    except ImportError:
        from hashlib import sha256

# Fixed evaluation primes, all just below 2^62: single-word arithmetic with a
# negligible per-trial Schwartz-Zippel failure probability.  ``hessian``'s
# certificate trials rotate through this list, as its reports print each
# trial's prime, and ``detcalc.rank_rational`` tries them after SURVEY_PRIME.
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

# The default field's prime, a survey's certificate trials, and the first
# prime of every rank over Q (``detcalc.rank_rational``): below 2^30, so each
# multiplier p - f is one CPython digit (a 31-bit prime needs two and measured
# slower), and an elimination's slots are about half as wide as over a prime
# of PRIMES_62.
SURVEY_PRIME = 2**30 - 35

_BUILTIN_PRIMES = frozenset((*PRIMES_62, SURVEY_PRIME))  # PrimeField skips Miller-Rabin on these

DEFAULT_RATIONAL_BOUND = 100

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2 to 41, exact below ``MR_EXACT_BELOW`` =
    psi_13 = 3317044064679887385961981, the least strong pseudoprime to them all."""
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
    return int.from_bytes(sha256(blob).digest()[:8], "big")


class PrimeField:
    """GF(p) with elements represented as ints in ``[0, p)``."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p not in _BUILTIN_PRIMES and not is_probable_prime(p):
            raise UsageError(f"modulus {p} is not prime")
        self.p = p

    def of_fraction(self, fr) -> int:
        if fr.denominator % self.p == 0:
            raise UsageError(f"denominator divisible by p={self.p}")
        return fr.numerator * pow(fr.denominator, -1, self.p) % self.p

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


# The gate and the relation check, unless the caller picks a field.  A
# positive outcome (a nonzero det, a rank at its ceiling) is exact over any
# prime.  A negative one is wrong with probability at most degree/p per trial
# (Schwartz-Zippel), for P of order N: N/p for a det trial or the relation
# residual, (N-1)(m+1)/p for a dimension trial and rank_M*(N-1)/p for rank_M.
# At the largest case that pade.MAX_CELLS admits, (2,974,61,976), these are
# below 1.9e-6, 1.8e-3 and 3.4e-3 (README, "Command line").
DEFAULT_FIELD = PrimeField(SURVEY_PRIME)


class Rationals:
    """Q, its elements plain ints: every value the package samples or
    computes over Q is an integer, T = p/q too (q(0) = 1).

    Random samples are uniform integers in ``[-B, B]``, B =
    ``DEFAULT_RATIONAL_BOUND``.  A rank over Q (``detcalc.rank_rational``)
    takes a matrix of these ints as it is, or its residues, and a full one
    needs one prime, almost always ``SURVEY_PRIME``.  A rank short of full
    needs primes past the Hadamard bound, which small integers keep down.
    """

    __slots__ = ()

    def sample(self, rng: random.Random) -> int:
        return rng.randint(-DEFAULT_RATIONAL_BOUND, DEFAULT_RATIONAL_BOUND)

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __repr__(self) -> str:
        return "Rationals()"


def random_point(variables: Sequence[Hashable], ctx, seed) -> dict:
    """Assign an independent uniform field element to each listed variable.

    Prime field: uniform in ``{0, ..., p-1}``.  Rationals: uniform integers in
    ``[-B, B]`` with ``B = DEFAULT_RATIONAL_BOUND``.  Deterministic under a fixed
    seed.
    """
    variables = list(variables)
    if not variables:
        raise UsageError("empty variable list")
    rng = random.Random(seed)
    return {v: ctx.sample(rng) for v in variables}


def point_hash(point: dict) -> str:
    """Short stable digest of a point assignment, for trial records."""
    items = sorted(point.items(), key=lambda kv: kv[0])
    blob = repr(items).encode()
    return sha256(blob).hexdigest()[:16]
