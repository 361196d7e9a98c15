"""Construction of the symbolic Pade matrix and its column machinery.

The matrix of the linear map Q -> (QT restricted to monomials of degree
d+1..m) has rows labeled by exponents rho with d+1 <= |rho| <= m and columns
by exponents sigma with |sigma| <= e.  Every entry is either zero or the
single coefficient variable c_{rho-sigma}:

    entry(rho, sigma) = Var(rho - sigma)   if sigma <= rho componentwise,
                        Zero               otherwise.

Columns are grouped into blocks C_j with j = m - |sigma|: block C_j is the
matrix of multiplication by the degree-j homogeneous layer of T (together
with the degree j-1 layer hitting the lower row degrees).
"""

from __future__ import annotations

import random
from itertools import chain
from math import comb
from typing import NamedTuple

from .errors import UsageError
from .fields import derive_seed
from .series import Exponent, monomials_of_degree, monomials_upto


class PadeShape(NamedTuple):
    rows: int
    cols: int

    @property
    def square(self) -> bool:
        return self.rows == self.cols


class ColumnLabel(NamedTuple):
    """Column of the Pade matrix: generating block j and the domain monomial
    sigma."""

    block: int
    sigma: Exponent


class SymbolicMatrix:
    """Matrix whose entries are Zero or a single variable, encoded as
    ``None`` or the variable's exponent tuple.

    Instances are immutable by convention; evaluation and column operations
    return fresh data.  ``row_labels``/``col_labels``/``params`` are attached
    by the Pade constructor and may be ``None`` for ad-hoc patterns.  The
    determinant-calculus layer reads ``entries``, and
    ``detcalc.block_grad_det_at``, given P's factorisation at a point, also
    ``col_labels``, refusing a matrix without them.
    """

    def __init__(self, entries, row_labels=None, col_labels=None, params=None):
        self.entries = tuple(tuple(row) for row in entries)
        self.nrows = len(self.entries)
        self.ncols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.ncols:
                raise UsageError("ragged entry grid")
        self.row_labels = tuple(row_labels) if row_labels is not None else None
        self.col_labels = tuple(col_labels) if col_labels is not None else None
        self.params = params
        self._occ = None

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def occurrences(self) -> dict:
        """Map variable -> tuple of (row, col) positions where it appears."""
        if self._occ is None:
            occ: dict = {}
            for r, row in enumerate(self.entries):
                for c, g in enumerate(row):
                    if g is not None:
                        occ.setdefault(g, []).append((r, c))
            self._occ = {g: tuple(ps) for g, ps in occ.items()}
        return self._occ

    def variables(self) -> list:
        return sorted(set(chain.from_iterable(self.entries)) - {None})

    def evaluate(self, point: dict) -> list:
        """The matrix at ``point``, a fresh list of rows.

        This is the package's one entry law, the same over every field.  An
        empty entry (``None``) is 0.  The all-zero exponent c_0 takes its
        value from ``point`` if assigned, else 1 (the affine chart
        c_0 = 1).  Every other variable takes its value from ``point``
        as given, unreduced; the first entry, in row order, whose variable
        ``point`` misses raises ``UsageError``.
        """
        first = next((g for row in self.entries for g in row if g is not None), ())
        cell = {(0,) * len(first): 1, **point, None: 0}
        try:
            return [list(map(cell.__getitem__, row)) for row in self.entries]
        except KeyError as exc:
            raise UsageError(f"point does not assign variable {exc.args[0]}") from None

    def block_columns(self, j: int) -> list:
        """Column indices belonging to block C_j."""
        if self.col_labels is None:
            raise UsageError("matrix has no column block structure")
        cols = [i for i, lab in enumerate(self.col_labels) if lab.block == j]
        if not cols:
            raise UsageError(f"no block C_{j} in this matrix")
        return cols


def pade_shape(n: int, d: int, e: int, m: int) -> PadeShape:
    """Row and column counts of the Pade matrix."""
    if n < 1 or d < 0 or e < 0:
        raise UsageError("need n >= 1, d >= 0, e >= 0")
    if m <= d:
        raise UsageError("need m > d (empty row window otherwise)")
    rows = comb(m + n, n) - comb(d + n, n)
    cols = comb(e + n, n)
    return PadeShape(rows, cols)


# The most cells pade_matrix builds.  A built P takes 8.5-14 bytes a cell,
# and 9-19 at the build's peak (tracemalloc at (2,43,12,45), (2,124,21,126)
# and (3,20,10,30)); near the ceiling, at (3,30,12,40), 8.4 built and 8.7 at
# the peak.  So this is about 35 MB; P at e = 21 of the square family has
# 64 009 cells.  The digests pin refusals at this value.
MAX_CELLS = 4_000_000


def require_buildable(n: int, d: int, e: int, m: int) -> None:
    """Raise ``UsageError`` when the Pade matrix of (n, d, e, m) has more
    than ``MAX_CELLS`` cells, so that ``pade_matrix`` refuses to build it."""
    shape = pade_shape(n, d, e, m)
    cells = shape.rows * shape.cols
    if cells > MAX_CELLS:
        raise UsageError(f"the Pade matrix of {(n, d, e, m)} has {cells} cells, "
                         f"more than the {MAX_CELLS} this package builds")


def pade_matrix(n: int, d: int, e: int, m: int) -> SymbolicMatrix:
    """The symbolic Pade matrix for the given parameters.

    Rows go by decreasing degree and columns by increasing degree, both lex
    decreasing within a degree; this reproduces the reference layout for
    (2,5,4,7).  A shape of more than ``MAX_CELLS`` cells raises
    ``UsageError`` before any entry is built (``require_buildable``).

    Entries are read from a table of every variable P can hold, the
    exponents of degree max(0, d+1-e) to m, by Kronecker key: g gets
    sum_i g_i b^i in base b = m + e + 1.  The digits rho_i - sigma_i of
    key(rho) - key(sigma) lie in [-e, m] and those of a table key tau in
    [0, m]; digits that differ by less than b give equal sums only when
    they are equal, so the difference is a table key only where
    rho - sigma = tau, which is exactly where sigma <= rho componentwise.
    Every other difference misses the table and reads ``None``.  Each row
    is a tuple, and all occurrences of a variable are one tuple object.
    """
    require_buildable(n, d, e, m)
    rows = [g for deg in range(m, d, -1) for g in monomials_of_degree(n, deg)]
    col_labels = [ColumnLabel(block=m - sum(s), sigma=s) for s in monomials_upto(n, e)]
    base = m + e + 1

    def key(g):
        k = 0
        for x in g:
            k = k * base + x
        return k

    below = [g for deg in range(max(0, d + 1 - e), d + 1) for g in monomials_of_degree(n, deg)]
    table = {key(g): g for g in chain(rows, below)}
    col_keys = [key(lab.sigma) for lab in col_labels]
    entries = [tuple(map(table.get, map(key(rho).__sub__, col_keys))) for rho in rows]
    return SymbolicMatrix(entries, rows, col_labels, params=(n, d, e, m))


def lambda_shape(params) -> dict:
    """Expected component layout of a lambda assignment for square m=d+2
    matrices: block j -> list of exponents of degree d_j, in column order."""
    n, d, e, m = params
    base = d - e + 2
    return {j: monomials_of_degree(n, j - base) for j in range(base + 1, m + 1)}


def random_lambda(P: SymbolicMatrix, field, seed) -> dict:
    """Random lambda assignment matching the block structure of P."""
    shape = lambda_shape(P.params)
    rng = random.Random(derive_seed("lambda", seed))
    return {j: {a: field.sample(rng) for a in alphas} for j, alphas in shape.items()}


def column_transform(P: SymbolicMatrix, lam: dict, point: dict, field) -> list:
    """Evaluate P at ``point`` over GF(p), p = ``field.p``, and add, to each
    column of every block C_j with j above the base block, the shifted
    lambda-combination of the base block's columns.

    Column i (1-based) of C_j receives the base block multiplied by the
    padding vector (0_{i-1}, lambda^j, 0_{e-d_j-i+1}).  These are elementary
    column operations, so the determinant is unchanged.
    """
    if not P.is_square:
        raise UsageError("column_transform expects a square Pade matrix")
    if P.params is None or P.col_labels is None:
        raise UsageError("column_transform needs a matrix built by pade_matrix")
    n, d, e, m = P.params
    shape = lambda_shape(P.params)
    if set(lam) != set(shape):
        raise UsageError(f"lambda blocks {sorted(lam)} != expected {sorted(shape)}")
    for j, alphas in shape.items():
        if set(lam[j]) != set(alphas):
            raise UsageError(f"lambda^{j} components do not match degree d_j monomials")

    A = P.evaluate(point)
    base = d - e + 2
    base_cols = P.block_columns(base)
    for j, alphas in shape.items():
        coeffs = [lam[j][a] for a in alphas]  # in base-block column order
        for i, col in enumerate(P.block_columns(j)):  # i is 0-based
            for t, lam_c in enumerate(coeffs):
                src = base_cols[i + t]
                for row in A:
                    row[col] = (row[col] + lam_c * row[src]) % field.p
    return A


def _m2_var(g: Exponent) -> str:
    return "c_" + _m2_seq(g)


def export_m2(P: SymbolicMatrix) -> str:
    """Macaulay2 script reconstructing P entry by entry.

    The script declares one variable per ambient coefficient (all exponents of
    degree <= m), builds the matrix literally under the same ordering
    conventions, and ends with a random-evaluation determinant (or rank) check.
    Output is byte-stable for fixed inputs.
    """
    if P.params is None:
        raise UsageError("export needs a matrix built by pade_matrix")
    n, d, e, m = P.params
    ambient = monomials_upto(n, m)
    lines = [
        f"-- Pade matrix, parameters (n, d, e, m) = ({n}, {d}, {e}, {m})",
        "-- rows: monomials of degree d+1..m, degree decreasing;",
        "-- columns: monomials of degree 0..e, degree increasing;",
        "-- lex decreasing within each degree on both sides.",
        "L = {" + ", ".join(_m2_seq(g) for g in ambient) + "};",
        "C = QQ[apply(L, g -> c_g)];",
        "P = matrix {",
    ]
    body = []
    for row in P.entries:
        cells = ", ".join("0" if g is None else _m2_var(g) for g in row)
        body.append("  {" + cells + "}")
    lines.append(",\n".join(body))
    lines.append("};")
    lines.append(f"assert(numrows P == {P.nrows} and numcols P == {P.ncols});")
    lines.append("vals = apply(gens C, g -> g => random(QQ));")
    if P.is_square:
        lines.append("print det sub(P, vals);")
    else:
        lines.append("print rank sub(P, vals);")
    return "\n".join(lines) + "\n"


def _m2_seq(g: Exponent) -> str:
    if len(g) == 1:
        return str(g[0])
    return "(" + ",".join(str(x) for x in g) + ")"
