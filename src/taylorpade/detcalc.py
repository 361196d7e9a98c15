"""Exact determinants, ranks, adjugates, and derivatives of determinants.

Determinant, rank and inverse all come from one elimination kernel,
``eliminate``, with three bodies: general and symmetric over GF(p), and
Bareiss over Q (no inverse).

Over GF(p) the kernel works on packed rows with delayed modular reduction
(Dumas-Giorgi-Pernet, "Dense linear algebra over word-size prime fields: the
FFLAS and FFPACK packages", ACM TOMS 35(3), 2008), carried over to Python
integers:

* each row is one int; its entries sit in byte-aligned slots of W bits, the
  current column in the lowest slot, then the later columns, then (for an
  inverse) the augmented identity block;
* eliminating one row is one big-int multiply-add done in C,
  ``R_i <- (R_i >> W) + (p - f_i) * Y``, where ``f_i`` is the row's lowest
  slot reduced mod p and ``Y`` is the pivot row's tail, reduced and scaled
  by the pivot's inverse;
* slots are reduced mod p only where they are read: the pivot column once
  per step, the pivot row once when it becomes the pivot, and the inverse
  at the end.  In between a slot only grows, by less than ``p * (p - 1)``
  per step, over at most ``s = min(rows, cols)`` steps;
* W is the smallest multiple of 8 with ``p + s * p * (p - 1) < 2^W``, so
  no slot ever carries into its neighbour (about 136 bits for the 62-bit
  primes of ``fields.PRIMES_62``).

A symmetric square matrix (a Hessian) with no inverse asked takes a body
that stores and updates only the upper triangle, about half the slot
arithmetic of the general one.  Its indices are first permuted, rows and
columns together, so that the nonzero diagonal entries come first; that
keeps det and rank.  Row k holds columns k..n-1, its diagonal in the lowest
slot, with the same W.  Step k takes the pivot row's tail f (columns k+1..,
reduced mod p), packs ``Y = f * pivot^-1`` and adds ``(p - f_i) * Y``,
shifted down by the i-k-1 slots that row i does not hold, to each later row
i with ``f_i != 0``.  The Schur complement of a symmetric matrix is
symmetric, so the column below the pivot is f itself, no row moves, and det
is the product of the pivots.  At the first zero pivot the remaining Schur
complement is unpacked, mirrored into a full matrix and eliminated by the
general body, whose rank and det complete the answer: exact for every
symmetric matrix over every GF(p), p = 2 included.

The derivatives of det(P) at a point come from the adjugate, or from one
inversion plus trace products (Jacobi's formula and its second-order
extension).  The Hessian at an invertible point A = P(x), with X = A^-1, is
``H_ab = det(A) * (t_a t_b - G_ab)``.  If c_a occurs at (r_a(i), cA_i) for
i = 1..|cA|, then ``t_a = sum_i X[cA_i][r_a(i)]`` and

    G_ab = sum_{i, j} X[cB_j][r_a(i)] * X[cA_i][r_b(j)].

The index set of that sum depends only on the column tuples cA and cB, so
the variables are grouped into classes by the tuple of columns of their
occurrences, in occurrence order (exact for any pattern, a variable repeated
within a column included).  For two classes A and B every term is needed,
and the block G[A, B] is one dense product of the vectors
``u_a = (X[cB_j][r_a(i)])_(i,j)`` and ``w_b = (X[cA_i][r_b(j)])_(i,j)``.  In
a Pade matrix c_a occurs in column s exactly when ``d+1 <= |s|+|a| <= m``,
so the classes are the degrees |a|: 185 variables fall into 10 classes at
(2,20,8,22), 553 into 14 at (2,43,12,45).

The w_b of one class pair are packed over B's members in the
byte-aligned slots above, one int ``Wcols[i, j]`` per index, and discarded
after the pair; the row G[a, B] is then one C-level
``sum(map(mul, u_a, Wcols))``.  A slot holds a sum of ``|cA| * |cB|``
products of entries below p, so W is the smallest multiple of 8 with
``|cA| * |cB| * (p - 1)^2 < 2^W``, and each slot is reduced mod p once, when
it is unpacked.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import mul
from typing import NamedTuple

from .errors import DomainError, UsageError
from .fields import PrimeField, Rationals
from .pade import SymbolicMatrix


class Elimination(NamedTuple):
    """Rank, determinant and inverse read off one elimination.

    ``det`` is None for a non-square matrix.  ``inverse`` is None unless it
    was asked for and the matrix is invertible.
    """

    rank: int
    det: object
    inverse: list | None


def eliminate(A, field, inverse: bool = False) -> Elimination:
    """Rank-profile elimination of ``A`` (rectangular allowed), with the
    Gauss-Jordan inverse of a square ``A`` on request.

    Pivot rows are taken column by column and a column without a pivot is
    skipped (rank-profile elimination, Dumas-Pernet-Sultan, ISSAC 2013).  The
    body follows from ``field``:

    * over GF(p), packed rows with delayed reduction (module docstring):
      one multiply-add of W-bit slots per row update, with
      ``p + min(rows, cols) * p * (p - 1) < 2^W`` so slots never carry,
      and ``% p`` applied only to the pivot column, to each pivot row and
      to the final inverse;
    * over GF(p), for a square ``A == A^T`` with no inverse asked, the
      upper triangle only, in slots of the same W and without row swaps
      (module docstring); the Schur complement left at the first zero
      pivot goes to the general body, so rank and det stay exact;
    * over Q, with no inverse asked, fraction-free Bareiss elimination
      (Math. Comp. 22, 1968) of the integer-scaled rows.

    Any other field, and an inverse over Q, raise ``UsageError``.  Every
    body takes as pivot the first remaining row whose entry is nonzero and
    stops once the rank reaches the row count.
    """
    ncols = len(A[0]) if A else 0
    if any(len(row) != ncols for row in A):
        raise UsageError("ragged matrix")
    square = len(A) == ncols
    if inverse and not square:
        raise UsageError("inverse of a non-square matrix")
    if isinstance(field, PrimeField):
        if square and not inverse and _is_symmetric(A):
            rank, det, inv = _eliminate_symmetric_modp(A, field.p)
        else:
            rank, det, inv = _eliminate_modp(A, ncols, field.p, inverse)
    elif isinstance(field, Rationals) and not inverse:
        rank, det, inv = _eliminate_bareiss(A, ncols)
    else:
        what = f"an inverse over {field!r}" if inverse else repr(field)
        raise UsageError(
            f"no elimination for {what}: eliminate runs over GF(p), and over "
            f"Q without an inverse"
        )
    return Elimination(rank, det if square else None, inv)


def _eliminate_modp(A, ncols, p, inverse):
    # Packed rows with delayed reduction; the module docstring gives the
    # layout and the bound on the slot width W (``size`` bytes).
    n = len(A)
    size = ((p + min(n, ncols) * p * (p - 1)).bit_length() + 7) // 8
    W = 8 * size
    mask = (1 << W) - 1
    rows = [_pack([x % p for x in row], size) for row in A]
    if inverse:
        rows = [row | 1 << W * (ncols + i) for i, row in enumerate(rows)]
    det, rank = 1, 0
    for col in range(ncols):
        first = 0 if inverse else rank
        low = [(row & mask) % p for row in rows]
        piv = next((i for i in range(rank, n) if low[i]), None)
        if piv is None:
            det = 0
            rows[first:] = [row >> W for row in rows[first:]]
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            low[rank], low[piv] = low[piv], low[rank]
            det = -det
        pivot = low[rank]
        det = det * pivot % p
        inv = pow(pivot, -1, p)
        tail = rows[rank] >> W
        slots = ncols - col - 1 + (n if inverse else 0)
        Y = _pack([x * inv % p for x in _unpack(tail, slots, size)], size)
        for i in range(first, n):
            f = low[i]
            if i == rank:
                rows[i] = Y
            elif f:
                rows[i] = (rows[i] >> W) + (p - f) * Y
            else:
                rows[i] >>= W
        rank += 1
        if rank == n:
            break
    if not (inverse and rank == n):
        return rank, det, None
    return rank, det, [[x % p for x in _unpack(row, n, size)] for row in rows]


def _is_symmetric(A):
    # Row i against column i, stopping at the first mismatch.
    return all(map(tuple.__eq__, map(tuple, A), zip(*A)))


def _eliminate_symmetric_modp(A, p):
    # Upper-triangle packed rows of a symmetric A (module docstring); W is
    # the bound of _eliminate_modp.
    n = len(A)
    size = ((p + n * p * (p - 1)).bit_length() + 7) // 8
    W = 8 * size
    mask = (1 << W) - 1
    order = sorted(range(n), key=lambda i: not A[i][i] % p)
    rows = [_pack([A[i][j] % p for j in order[k:]], size)
            for k, i in enumerate(order)]
    det = 1
    for k in range(n):
        pivot = (rows[k] & mask) % p
        if not pivot:
            # Hand the Schur complement, mirrored, to the general body.
            s = n - k
            S = [[0] * s for _ in range(s)]
            for a in range(s):
                for b, x in enumerate(_unpack(rows[k + a], s - a, size), a):
                    S[a][b] = S[b][a] = x % p
            rank, sdet, _ = _eliminate_modp(S, s, p, False)
            return k + rank, det * sdet % p, None
        det = det * pivot % p
        f = [x % p for x in _unpack(rows[k] >> W, n - k - 1, size)]
        rows[k] = None
        inv = pow(pivot, -1, p)
        Y = _pack([x * inv % p for x in f], size)
        for j, fi in enumerate(f):
            if fi:
                rows[k + 1 + j] += (p - fi) * (Y >> W * j)
    return n, det, None


def _pack(values, size):
    data = b"".join(map(int.to_bytes, values, repeat(size), repeat("little")))
    return int.from_bytes(data, "little")


def _pack_chunks(values, count, size):
    # _pack of each run of ``count`` values, from one bytes object
    data = b"".join(map(int.to_bytes, values, repeat(size), repeat("little")))
    step = count * size
    return [int.from_bytes(data[j:j + step], "little")
            for j in range(0, len(data), step)]


def _unpack(row, count, size):
    data = row.to_bytes(count * size, "little")
    return [int.from_bytes(data[j:j + size], "little")
            for j in range(0, count * size, size)]


def _eliminate_bareiss(A, ncols):
    # Each row is scaled to integers; every division by the previous pivot is
    # then exact, since each entry is a minor of the scaled matrix.
    scale = 1
    rows = []
    for row in A:
        den = lcm(*(x.denominator for x in row))
        scale *= den
        rows.append([x.numerator * (den // x.denominator) for x in row])
    n = len(rows)
    sign, prev, rank = 1, 1, 0
    for col in range(ncols):
        piv = next((i for i in range(rank, n) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        pivot = rows[rank][col]
        tail = rows[rank][col + 1:]
        for i in range(rank + 1, n):
            f = rows[i][col]
            rows[i][col + 1:] = [(x * pivot - f * y) // prev
                                 for x, y in zip(rows[i][col + 1:], tail)]
        prev = pivot
        rank += 1
        if rank == n:
            break
    return rank, Fraction(sign * prev, scale) if rank == n else Fraction(0), None


def adjugate(A: list, field) -> list:
    """adj(A) with A*adj(A) = det(A)*I over GF(p), defined also for singular
    A.  Over Q ``eliminate`` has no inverse, so this raises ``UsageError``."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise UsageError("adjugate of a non-square matrix")
    if n == 1:
        return [[field.one]]
    fac = eliminate(A, field, inverse=True)
    if fac.inverse is not None:
        return [[field.mul(fac.det, x) for x in row] for row in fac.inverse]
    # Singular case: cofactor by minors, O(n^5) but exercised rarely.
    adj = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [A[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = eliminate(minor, field).det
            if (i + j) % 2:
                cof = field.neg(cof)
            adj[j][i] = cof
    return adj


def block_grad_det_at(P: SymbolicMatrix, point: dict, field) -> dict:
    """Per-block cofactor sums of det(P): (block j, variable g) -> value.

    Sums adj(A)[c][r], A = P(point), over the occurrences (r, c) of g in the
    columns of block j, so summing over blocks gives the partial derivative
    of det(P) in g (Jacobi's formula: d det = tr(adj(A) dA)).  Defined also
    when the evaluation is singular.  These block-restricted sums are
    exactly what the derivative of a column operation supported on one
    block produces, and they are the entries of the relation matrix.
    """
    if not P.is_square:
        raise UsageError("gradient of det needs a square matrix")
    if P.col_labels is None:
        raise UsageError("block gradient needs a matrix with column blocks")
    adj = adjugate(P.evaluate(point, field), field)
    out: dict = {}
    for g, occ in P.occurrences().items():
        for r, c in occ:
            k = (P.col_labels[c].block, g)
            out[k] = field.add(out.get(k, field.zero), adj[c][r])
    return out


def hessian_from_factor(P: SymbolicMatrix, fac: Elimination, field) -> list:
    """Second-derivative matrix of det(P) over GF(p), from the elimination
    ``fac = eliminate(P.evaluate(point, field), field, inverse=True)``.

    Returns H with H[a][b] = d^2 det / dc_a dc_b over the variables
    ``P.variables()``, in that order, by the second-order Jacobi identity

        H_ab = det(A) * (t_a t_b - G_ab),   t_a = tr(X E_a),
        G_ab = tr(X E_a X E_b),   X = A^-1,

    assembled one pair of variable classes at a time (module docstring):
    each block G[A, B] is one dense product, and each of its rows is one
    sum of scalar times packed-int products, with slots of W bits,
    ``|cA| * |cB| * (p - 1)^2 < 2^W``.  Raises ``DomainError`` when the
    elimination found P singular (``fac.inverse`` is None): the class-pair
    product needs X.  An ambient coordinate absent from P would only add a
    zero row and column; ``hessian.full_from_essential`` accounts for those
    without building them.
    """
    if fac.inverse is None:
        raise DomainError(
            f"the Hessian of det(P) needs P invertible, and P is singular "
            f"at this point over {field!r}"
        )
    return _hessian_core(fac.inverse, fac.det, P.occurrences(), P.variables(), field)


def _hessian_core(X, det, occ, labels, field):
    # Class-pair assembly (module docstring).  A class is keyed by the tuple
    # of columns of its members' occurrences, in occurrence order; each
    # member keeps its label index and its own tuple of rows.
    classes: dict = {}
    for i, g in enumerate(labels):
        cols = tuple(c for _, c in occ[g])
        classes.setdefault(cols, []).append((i, tuple(r for r, _ in occ[g])))
    groups = [(cols, *zip(*members)) for cols, members in classes.items()]
    p = field.p
    t = [sum(X[c][r] for r, c in occ[g]) for g in labels]
    XT = list(zip(*X))
    k = len(labels)
    H = [[0] * k for _ in range(k)]
    for first, (cA, idxA, rowsA) in enumerate(groups):
        for cB, idxB, rowsB in groups[first:]:
            # Wcols[i, j] holds X[cA_i][r_b(j)] for every member b of B, and
            # u[i, j] is X[cB_j][r_a(i)], so G_ab = sum over (i, j) of u * w_b.
            Rs = list(zip(*rowsB))
            tB = [t[b] for b in idxB]
            size = ((len(cA) * len(cB) * (p - 1) ** 2).bit_length() + 7) // 8
            Wcols = [w for c in cA for w in _pack_chunks(
                [X[c][r] for R in Rs for r in R], len(idxB), size)]
            for a, ra in zip(idxA, rowsA):
                u = [x for r in ra for x in map(XT[r].__getitem__, cB)]
                ta, Ha = t[a], H[a]
                G = _unpack(sum(map(mul, u, Wcols)), len(idxB), size)
                row = [det * (ta * tb - g) % p for tb, g in zip(tB, G)]
                for b, val in zip(idxB, row):
                    Ha[b] = H[b][a] = val
    return H
