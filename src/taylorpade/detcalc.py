"""Exact determinants, ranks, and derivatives of determinants.

Determinant, rank and inverse all come from one elimination kernel over
GF(p), ``eliminate``.  ``hessian_at`` hands the packed rows of the Hessian
it assembles to a second, private body.  A rank over Q is the GF(p) rank
mod enough primes to certify it (``rank_rational``), of ints or residues:
a full rank mod any prime is exact, so the first prime is the cheapest one.

Over GF(p) the kernel works on packed rows with delayed modular reduction
(Dumas-Giorgi-Pernet, "Dense linear algebra over word-size prime fields: the
FFLAS and FFPACK packages", ACM TOMS 35(3), 2008), carried over to Python
integers:

* each row is one int; its entries sit in byte-aligned slots of W bits, the
  current column in the lowest slot, then the later columns, then (for an
  inverse) the augmented identity block;
* eliminating one row is one big-int multiply-add done in C,
  ``R_i <- (R_i >> W) + m_i * Y``, where ``Y`` is the pivot row's tail
  reduced mod p and ``m_i = (-f_i * pivot^-1) mod p``, ``f_i`` being the
  row's lowest slot reduced mod p.  The pivot's inverse rides in each
  row's scalar multiplier, so no slot of the pivot row is scaled; the
  Gauss-Jordan inverse ends with each row ``pivot * (row of A^-1)`` and is
  scaled by its pivot's inverse once, as it is unpacked;
* slots are reduced mod p only where they are read: the pivot column once
  per step, the pivot row once when it becomes the pivot, and the inverse
  at the end.  In between a slot only grows, by less than ``p * (p - 1)``
  per step, over at most ``s = min(rows, cols)`` steps;
* the pivot row is reduced in packed form, a few big-int operations for
  all its slots (``_reducer``).  With ``k = p.bit_length()`` and
  ``r = 2^k - p`` (so ``0 < r < 2^(k-1)``), a slot ``hi * 2^k + lo`` is
  congruent to ``lo + r * hi``; one fold of every slot is two masks, a
  shift, a multiply by r and an add, and never carries.  The fold count is
  the number of steps of ``B <- 2^k - 1 + r * floor(B / 2^k)`` from
  ``B = 2^W - 1`` to below 4p: 2 for ``fields.PRIMES_62`` and
  ``fields.SURVEY_PRIME``, where r has 6 bits, and up to about ``W - k``
  for a prime just above a power of two, where r is near ``2^(k-1)``.
  Then 2p, where that bound reaches it (at p = 3, 5 and 547, not at those
  two), and after it p, is subtracted from each slot that reaches it:
  adding ``2^(W-1) - c`` to every slot sets a slot's top bit exactly where
  the slot is at least c, and those bits, shifted to the slots' bottoms,
  times c are what to subtract.  The slots end in [0, p), so the bound
  below holds as for a row reduced entry by entry;
* W, the one slot-width rule of both bodies (``_slot_size``, which
  ``variety.taylor_coeffs`` packs by too), is the smallest multiple of 8
  with ``start + steps * p * (p - 1) < 2^W``, where every slot starts
  below ``start`` and is updated over at most ``steps`` steps, so no slot
  ever carries into its neighbour, reduced or not.  The
  general body starts from reduced slots, start p over s steps: about 136
  bits for ``fields.PRIMES_62``, and 72, 9-byte slots, for
  ``fields.SURVEY_PRIME``.  K starts at ``(|c|^2 + 1) * p^2``, for c its
  widest class key (below), over V steps: at every family case up to
  e = 20 the same 136 and 72 bits, and 144 and 80 at e = 21.

Every matrix enters the general body as a list of entries, P at a point
as ``SymbolicMatrix.evaluate`` gives it (the one place that reads P's
entries against a point).  Each distinct value becomes its slot bytes,
``(x % p)``, once per call, and each row is one ``b"".join`` of its
entries' bytes: P at a point holds at most V + 2 distinct values for V
variables.

The symmetric body stores and updates only the upper triangle, about half
the slot arithmetic of the general one.  Row k holds columns k..n-1, its
diagonal in the lowest slot.  The Schur complement of a symmetric matrix is
symmetric, so the column below the pivot is the pivot row's tail, no row
moves, and det is the product of the pivots.  Step k reduces that tail
(columns k+1..) in packed form to Y and walks the later rows i, shifting Y
down one slot per row past the columns that row i does not hold: Y's lowest
slot is then ``f_i``, and a row with ``f_i != 0`` gains
``((-f_i * pivot^-1) mod p) * Y``.  At the first zero pivot the remaining
Schur complement is mirrored into a full matrix for the general body, whose
rank and det complete the answer: exact for every symmetric matrix over
every GF(p), in any row order.

The derivatives of det(P) at a point x where A = P(x) is invertible are
read off one factorisation of A, its ``Elimination`` with the inverse
X = A^-1.  The gradient is Jacobi's formula with adj(A) = det(A) * X
(``block_grad_det_at``).  The Hessian, from its second-order extension, is
``H = det(A) * K``, ``K_ab = t_a t_b - G_ab``, so ``rank H = rank K`` and
``det H = det(A)^V * det K`` for V variables.
If c_a occurs at (r_a(i), cA_i) for i = 1..|cA|, then
``t_a = sum_i X[cA_i][r_a(i)]`` and

    G_ab = sum_{i, j} X[cB_j][r_a(i)] * X[cA_i][r_b(j)].

The index set of that sum depends only on the column tuples cA and cB, so
the variables are grouped into classes by the tuple of columns of their
occurrences, in occurrence order (exact for any pattern, a variable repeated
within a column included).  For two classes A and B the block G[A, B] is
one dense product of ``u_a = (X[cB_j][r_a(i)])_(i,j)`` and
``w_b = (X[cA_i][r_b(j)])_(i,j)``.  In a Pade matrix c_a occurs in column s
exactly when ``d+1 <= |s|+|a| <= m``, so the classes are the degrees |a|:
185 variables fall into 10 classes at (2,20,8,22), 553 into 14 at
(2,43,12,45).

K is assembled straight into the symmetric body's rows, along a plan that
depends on P's occurrence pattern alone (``hessian_plan``), built once per
certificate: a trial only sums t along it, holds X's rows as slot bytes and
forms the class-pair products.  Classes with a one-column key come last: a
single occurrence (r, c) gives ``t_a = X[c][r]`` and ``G_aa = t_a^2``, so
they are K's structurally zero diagonal (23 of 185 entries at (2,20,8,22))
and need no diagonal scan.  Both gathers of X are slices.  A class's
members, sorted by their rows, are cut into runs, whose rows r_a(i) step by
one from member to member at every index i; every class of a square-family
P up to e = 21 is one run, and a random pattern only has more.  Member j of
a run occurs at ``(R_i + j, cA_i)``, R being its first member's rows, so the
run's t values are sums of slices of X's rows.  Each row of X is held once,
as one bytes string of slots.  Per pair of runs A and B, ``Wcols[i, j]``,
the w_b packed over B, is one slice of row cA_i's string, from B's first row
at index j; ``u[i, j]`` for all of A is one list slice of row cB_j of X.  So
no entry of X becomes a bytes object of its own and no gather builds a
tuple: at (2,20,8,22) over ``PRIMES_62[0]`` the assembly's traced peak is
430 KiB, against 980 KiB with a per-entry grid and itemgetters.  a's block
is one C-level ``t_a * T_B + OFF - sum(map(mul, u_a, Wcols))``: ``T_B``
packs B's t values, reduced mod p, and each slot of OFF holds
``|cA| * |cB| * p^2``, which keeps the entry nonnegative and below
``(|cA| * |cB| + 1) * p^2``, at most ``(|c|^2 + 1) * p^2``, the start of
K's slot width.  A row joins its blocks, the diagonal one shifted past the
members before a.
"""

from __future__ import annotations

from itertools import count, groupby, repeat
from math import isqrt, prod
from operator import mul
from typing import NamedTuple

from .errors import UsageError
from .fields import PRIMES_62, SURVEY_PRIME, PrimeField, is_probable_prime
from .pade import SymbolicMatrix


class Elimination(NamedTuple):
    """Rank, determinant and inverse read off one elimination, and the field
    it ran over.

    ``det`` is None for a non-square matrix, else a residue mod p; ``inverse``
    is None unless it was asked for and the matrix is invertible.  ``field``
    is the GF(p) that ``eliminate`` ran over: the derivatives read off a
    factorisation (``block_grad_det_at``, ``hessian_at``) work over it.  It
    is None in a record built by hand.
    """

    rank: int
    det: object
    inverse: list | None
    field: PrimeField | None = None


def eliminate(A, field, inverse: bool = False) -> Elimination:
    """Rank-profile elimination of ``A`` (rectangular allowed) over GF(p),
    with the Gauss-Jordan inverse of a square ``A`` on request.

    Pivot rows are taken column by column and a column without a pivot is
    skipped (rank-profile elimination, Dumas-Pernet-Sultan, ISSAC 2013); the
    pivot is the first remaining row whose entry is nonzero, and elimination
    stops once the rank reaches the row count.  Rows are packed with delayed
    reduction (module docstring): one multiply-add of W-bit slots per row
    update, W by the module docstring's slot-width rule, and ``% p`` applied
    only to the pivot column, to each pivot row and to the final inverse.
    Any other field raises ``UsageError``.
    """
    ncols = _columns(A)
    square = len(A) == ncols
    if inverse and not square:
        raise UsageError("inverse of a non-square matrix")
    if not isinstance(field, PrimeField):
        raise UsageError(f"no elimination over {field!r}: eliminate runs over GF(p)")
    rank, det, inv = _eliminate_modp(A, ncols, field.p, inverse)
    return Elimination(rank, det if square else None, inv, field)


def rational_primes():
    """The moduli of ``rank_rational``, in order: ``fields.SURVEY_PRIME``,
    then ``fields.PRIMES_62``, then each prime below ``PRIMES_62[-1]``,
    descending.  No prime repeats: that walk down from 2^62 would pass
    about 10^17 primes before it reached ``SURVEY_PRIME``, below 2^30."""
    yield SURVEY_PRIME
    yield from PRIMES_62
    yield from filter(is_probable_prime, count(PRIMES_62[-1] - 2, -2))


def rank_rational(A, exact=None) -> int:
    """Exact rank over Q of the int matrix ``A`` from the GF(p) body, mod
    each prime of ``rational_primes`` in turn.

    ``A`` is eliminated as given, or, with ``exact``, is a function giving
    the matrix mod each prime p, as the gate gives P at T mod p; then
    ``exact()`` returns the int matrix, which the first prime that misses
    full rank asks for, and every later one reads.  A minor nonzero mod p is
    a nonzero integer, so a rank mod p never exceeds the rank over Q, and a
    full one is exact at once, almost always at the first prime,
    ``SURVEY_PRIME``, the cheapest (``fields``).  Otherwise r, the
    largest rank seen, is exact once the primes that gave r, each dividing
    every (r+1)-minor, multiply past the Hadamard bound B on every minor,
    the product over rows of ``isqrt(|row|^2) + 1``.  B is computed at the
    first prime that misses full rank.  A zero matrix has B = 1 and takes
    one prime.
    """
    residue = A if exact else None
    best, certified, bound = -1, 1, None
    for p in rational_primes():
        B = residue(p) if residue else A
        ncols = _columns(B)
        rank = _eliminate_modp(B, ncols, p, False)[0]
        if rank == min(len(B), ncols):
            return rank
        if bound is None:
            if residue:
                A, residue = exact(), None
            bound = prod(isqrt(sum(x * x for x in row)) + 1 for row in A)
        if rank > best:
            best, certified = rank, 1
        if rank == best:
            certified *= p
            if certified > bound:
                return best


def _columns(A):
    ncols = len(A[0]) if A else 0
    if any(len(row) != ncols for row in A):
        raise UsageError("ragged matrix")
    return ncols


class _Slots(dict):
    """Value -> its slot bytes, ``(x % p)`` in ``size`` little-endian bytes,
    made on first sight."""

    def __init__(self, p, size):
        super().__init__()
        self.p, self.size = p, size

    def __missing__(self, x):
        self[x] = out = (x % self.p).to_bytes(self.size, "little")
        return out


def _slot_size(p, start, steps):
    # The slot-width rule (module docstring): the bytes of the smallest W
    # with start + steps * p * (p - 1) < 2^W.
    return ((start + steps * p * (p - 1)).bit_length() + 7) // 8


def _eliminate_modp(A, ncols, p, inverse):
    # The general body.  It packs each row of the list A, every slot in
    # [0, p); the module docstring gives the layout and the bound on W.
    size = _slot_size(p, p, min(len(A), ncols))
    cell = _Slots(p, size).__getitem__
    rows = [int.from_bytes(b"".join(map(cell, row)), "little") for row in A]
    n = len(rows)
    W = 8 * size
    mask = (1 << W) - 1
    if inverse:
        rows = [row | 1 << W * (ncols + i) for i, row in enumerate(rows)]
    reduce = _reducer(p, size, ncols - 1 + (n if inverse else 0))
    det, rank, invs = 1, 0, []
    for col in range(ncols):
        first = 0 if inverse else rank
        piv = next((i for i in range(rank, n) if (rows[i] & mask) % p), None)
        if piv is None:
            det = 0
            rows[first:] = [row >> W for row in rows[first:]]
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            det = -det
        pivot = (rows[rank] & mask) % p
        det = det * pivot % p
        invs.append(pow(pivot, -1, p))
        neg_inv = p - invs[-1]
        # Every other row gains m_i * Y, m_i = 0 where f_i is, and drops
        # its lowest slot; the pivot row becomes Y.
        Y = reduce(rows.pop(rank) >> W)
        rows[first:] = [(row >> W) + (row & mask) * neg_inv % p * Y for row in rows[first:]]
        rows.insert(rank, Y)
        rank += 1
        if rank == n:
            break
    if not (inverse and rank == n):
        return rank, det, None
    return rank, det, [[x * inv % p for x in _unpack(row, n, size)]
                       for row, inv in zip(rows, invs)]


def _reducer(p, size, count):
    """The packed reduction of the module docstring: a function taking an
    int of up to ``count`` slots of ``size`` bytes, each below 2^W, to the
    int whose slots are theirs mod p."""
    W = 8 * size
    k = p.bit_length()
    r = (1 << k) - p
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * count, "little")
    low, high = ones * ((1 << k) - 1), ones * ((1 << W - k) - 1)
    folds, bound = 0, (1 << W) - 1
    while bound >= 4 * p:
        bound = (1 << k) - 1 + r * (bound >> k)
        folds += 1
    top = W - 1
    steps = [(ones * ((1 << top) - c), c) for c in (2 * p, p) if bound >= c]

    def reduce(x):
        for _ in range(folds):
            x = (x & low) + r * (x >> k & high)
        for offset, c in steps:
            x -= ((x + offset) >> top & ones) * c
        return x

    return reduce


def _eliminate_symmetric(rows: list, size: int, p: int) -> tuple:
    """(rank, det) over GF(p) of the symmetric matrix whose upper triangle
    is ``rows``: row k holds columns k..n-1 in slots of ``size`` bytes, wide
    enough over n steps by the module docstring's slot-width rule.  Pivots
    run in row order; ``rows`` is consumed."""
    n = len(rows)
    W = 8 * size
    mask = (1 << W) - 1
    reduce = _reducer(p, size, n - 1)
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
            return k + rank, det * sdet % p
        det = det * pivot % p
        neg_inv = p - pow(pivot, -1, p)
        Y = reduce(rows[k] >> W)
        rows[k] = None
        for i in range(k + 1, n):
            # Y now starts at column i, the first that row i holds.
            f = Y & mask
            if f:
                rows[i] += f * neg_inv % p * Y
            Y >>= W
    return n, det


def _pack(values, size):
    data = b"".join(map(int.to_bytes, values, repeat(size), repeat("little")))
    return int.from_bytes(data, "little")


def _unpack(row, count, size):
    data = row.to_bytes(count * size, "little")
    return [int.from_bytes(data[j:j + size], "little")
            for j in range(0, count * size, size)]


def _inverse(fac: Elimination) -> list:
    if fac.inverse is None:
        raise UsageError("derivatives of det(P) need P^-1: P is singular at this point")
    return fac.inverse


def block_grad_det_at(P: SymbolicMatrix, fac: Elimination) -> dict:
    """Per-block cofactor sums of det(P) over ``fac.field``: (block j,
    variable g) -> value.

    ``fac`` factors A = P(point) with its inverse X, and adj(A) = det(A) * X:
    a value is det(A) times the sum of X[c][r] over the occurrences (r, c) of
    g in the columns of block j, so summing over blocks gives the partial
    derivative of det(P) in g (Jacobi's formula: d det = tr(adj(A) dA)).
    These block-restricted sums are exactly what the derivative of a column
    operation supported on one block produces, and they are the entries of
    the relation matrix.  ``fac`` without an inverse raises ``UsageError``.
    """
    if not P.is_square:
        raise UsageError("gradient of det needs a square matrix")
    if P.col_labels is None:
        raise UsageError("block gradient needs a matrix with column blocks")
    X = _inverse(fac)
    out: dict = {}
    for g, occ in P.occurrences().items():
        for r, c in occ:
            k = (P.col_labels[c].block, g)
            out[k] = out.get(k, 0) + X[c][r]
    return {k: fac.det * x % fac.field.p for k, x in out.items()}


def hessian_plan(P: SymbolicMatrix) -> list:
    """K's layout, read off P's occurrence pattern alone (module docstring):
    its runs, each (cols, its first member's rows, its members), a class's
    runs together, the single-occurrence classes last.  K's order is the
    members, run by run; a certificate builds it once for all its trials."""
    occ, classes = P.occurrences(), {}
    for g in P.variables():
        rs, cols = zip(*occ[g])
        classes.setdefault(cols, []).append((rs, g))
    runs = []
    for cols, members in sorted(classes.items(), key=lambda item: len(item[0]) == 1):
        members.sort()
        # A run's members' rows minus their places in the class agree.
        for _, run in groupby(enumerate(members), lambda m: [r - m[0] for r in m[1][0]]):
            rowsA, gA = zip(*(member for _, member in run))
            runs.append((cols, rowsA[0], gA))
    return runs


def hessian_at(plan: list, fac: Elimination) -> tuple:
    """(rank, det) over ``fac.field``, GF(p), of the Hessian H of det(P)
    over ``P.variables()``, at the point where ``fac`` factors P, and
    ``plan`` is ``hessian_plan(P)``.

    K = H / det(P) is assembled from ``fac``'s inverse into the symmetric
    body's packed rows; ``det H = det(P)^V * det K`` for V variables (module
    docstring), and ``fac`` without an inverse raises ``UsageError``.  An
    ambient coordinate absent from P only adds a zero row and column
    (``hessian.full_from_essential``).
    """
    p = fac.field.p
    rows, size, order = _hessian_core(plan, _inverse(fac), p)
    rank, det = _eliminate_symmetric(rows, size, p)
    return rank, pow(fac.det, len(order), p) * det % p


def _hessian_core(plan, X, p):
    # Class-pair assembly of K from X = P(point)^-1 along ``plan``'s runs
    # (module docstring), as (rows, size, order): row k holds
    # K[order[k]][order[j]] for j >= k, unreduced, in slots of ``size`` bytes.
    # Member j of a run occurs at (RA_i + j, cA_i): its t sums X along those.
    ts = [[sum(col) % p for col in zip(*(X[c][r:r + len(gA)] for r, c in zip(RA, cA)))]
          for cA, RA, gA in plan]
    order = [g for _, _, gA in plan for g in gA]
    widest = max((len(cA) for cA, _, _ in plan), default=0)
    size = _slot_size(p, (widest**2 + 1) * p * p, len(order))
    W = 8 * size
    # Row c of X once, as slot bytes: a run's slots in it are one slice.
    Xbytes = [b"".join(map(int.to_bytes, row, repeat(size), repeat("little"))) for row in X]
    rows = []
    for first, ((cA, RA, gA), tA) in enumerate(zip(plan, ts)):
        parts = [[] for _ in gA]
        m = len(gA)
        for (cB, RB, gB), tB in zip(plan[first:], ts[first:]):
            # Wcols[i, j] packs X[cA_i][r_b(j)] over B's members b, ucols[i, j]
            # holds X[cB_j][r_a(i)] over A's members a: G_ab = sum of u_a * w_b.
            n = len(gB)
            TB = _pack(tB, size)
            OFF = _pack([len(cA) * len(cB) * p * p] * n, size)
            Wcols = [int.from_bytes(Xbytes[c][r * size:(r + n) * size], "little")
                     for c in cA for r in RB]
            ucols = [X[c][r:r + m] for r in RA for c in cB]
            for part, ta, u in zip(parts, tA, zip(*ucols)):
                block = ta * TB + OFF - sum(map(mul, u, Wcols))
                part.append(block.to_bytes(n * size, "little"))
        # The diagonal block starts at A's first member: drop the slots
        # before each member's own.
        rows += [int.from_bytes(b"".join(part), "little") >> W * i
                 for i, part in enumerate(parts)]
    return rows, size, order
