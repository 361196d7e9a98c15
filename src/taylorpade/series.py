"""Exponents, monomials and sparse multivariate polynomials.

Exponents are plain tuples of non-negative ints; a monomial x^g with
g = (g1, ..., gn) is keyed by that tuple.  A polynomial stores a ``dict``
from exponent to a nonzero coefficient, so equality of values is equality
of maps.
"""

from __future__ import annotations

from functools import cache
from itertools import chain

from .errors import UsageError

Exponent = tuple  # tuple[int, ...]


def exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


@cache
def monomials_of_degree(n: int, deg: int) -> tuple:
    """All exponents of total degree ``deg`` in ``n`` variables, lex
    decreasing; built once per (n, deg) and shared, so callers only read it."""
    if n == 1:
        return ((deg,),)
    return tuple((first,) + rest for first in range(deg, -1, -1)
                 for rest in monomials_of_degree(n - 1, deg - first))


@cache
def monomials_upto(n: int, max_deg: int) -> tuple:
    """All exponents of total degree <= ``max_deg``: by increasing degree, lex
    decreasing within a degree; built once per (n, max_deg) and shared."""
    return tuple(chain.from_iterable(monomials_of_degree(n, deg)
                                     for deg in range(max_deg + 1)))


class SparsePoly:
    """Exact sparse polynomial with int or ``Fraction`` coefficients, stored as
    given; a float, whose binary expansion would enter a verdict, is refused.

    Used for explicit hypersurface fixtures (Perazzo, Fermat, ...) where the
    Hessian is formed by formal differentiation.  Variables are indexed
    0..nvars-1.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: dict):
        self.nvars = nvars
        clean = {}
        for g, c in coeffs.items():
            g = tuple(g)
            if len(g) != nvars:
                raise UsageError(f"exponent {g} has wrong arity (nvars={nvars})")
            if not hasattr(c, "denominator"):
                raise UsageError(f"coefficient {c!r} of {g} is not an int or a Fraction")
            if c != 0:
                clean[g] = c
        self.coeffs = clean

    @classmethod
    def from_terms(cls, nvars: int, terms) -> "SparsePoly":
        acc: dict = {}
        for g, c in terms:
            g = tuple(g)
            acc[g] = acc.get(g, 0) + c
        return cls(nvars, acc)

    def degree(self) -> int:
        return max((sum(g) for g in self.coeffs), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(g) for g in self.coeffs}
        return len(degs) <= 1

    def diff(self, i: int) -> "SparsePoly":
        out = {}
        for g, c in self.coeffs.items():
            if g[i] == 0:
                continue
            h = g[:i] + (g[i] - 1,) + g[i + 1 :]
            out[h] = out.get(h, 0) + c * g[i]
        return SparsePoly(self.nvars, out)

    def eval(self, field, values) -> int:
        """Evaluate at a point over a ``PrimeField``; coefficients are mapped
        into it, and each power costs O(log e) through ``pow``."""
        if len(values) != self.nvars:
            raise UsageError("wrong number of coordinate values")
        p, total = field.p, 0
        for g, c in self.coeffs.items():
            term = field.of_fraction(c)
            for x, e in zip(values, g):
                term = term * pow(x, e, p) % p
            total += term
        return total % p
