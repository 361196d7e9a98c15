import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice, pairwise, permutations
from math import lcm

import pytest

import taylorpade.detcalc as detcalc_mod
from taylorpade.detcalc import (
    _eliminate_modp,
    _eliminate_symmetric,
    _hessian_core,
    _pack,
    _reducer,
    _slot_size,
    _unpack,
    block_grad_det_at,
    eliminate,
    hessian_at,
    hessian_plan,
    rank_rational,
    rational_primes,
)
from taylorpade.errors import UsageError
from taylorpade.fields import (
    MR_EXACT_BELOW,
    PRIMES_62,
    SURVEY_PRIME,
    PrimeField,
    Rationals,
    derive_seed,
    is_probable_prime,
    point_hash,
    random_point,
)
from taylorpade.hessian import (
    GATE_TRIALS,
    certify_hessian_pade,
    certify_hessian_poly,
    build_M,
    full_from_essential,
    relation_check,
    relation_residual,
)
from taylorpade.pade import SymbolicMatrix, pade_matrix
from taylorpade.series import monomials_upto
from taylorpade.variety import (
    TaylorParams,
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
    _dot,
    _perm_sign,
    adjugate,
    block_grad_det_adj,
    det_berkowitz,
    eliminate_bareiss,
    eliminate_ring,
    expand_det_poly,
    grad_det_at,
    hessian_det_at,
    is_unit,
    jet_bilinear,
    jet_grad_det,
    jet_hessian_entry,
    pack_symmetric,
    reverse_within_degree,
    trace_route_Kw,
    unpack_hessian,
)

P62 = PRIMES_62[0]

# Rings of the parametrized elimination test; jets run over GF(P62).
RINGS = {
    "gf": GF(P62),
    "qq": QQ(),
    "jet1": JetRing(GF(P62), order=1),
    "jet2": JetRing(GF(P62), order=2),
}

# Inputs whose determinant is known by hand: (ring, kind) -> [(A, det)].
KNOWN = {
    ("gf", "square"): [
        ([[int(i == j) for j in range(5)] for i in range(5)], 1),
        ([[1, 2], [3, 4]], P62 - 2),
    ],
    ("gf", "singular"): [([[1, 2, 3], [4, 5, 6], [1, 2, 3]], 0)],
    ("qq", "square"): [
        ([[2, 0, 0], [0, 3, 0], [0, 0, 5]], 30),
        ([[Fraction(1, 2), 1], [1, Fraction(1, 3)]], Fraction(1, 6) - 1),
    ],
    ("qq", "singular"): [([[1, 1, 1]] * 3, 0)],
}


def _perm_det(A, ring):
    """Permutation-expansion determinant, the brute-force oracle."""
    n = len(A)
    total = ring.zero
    for perm in permutations(range(n)):
        term = ring.one if _perm_sign(perm) == 1 else ring.sub(ring.zero, ring.one)
        for i in range(n):
            term = ring.mul(term, A[i][perm[i]])
        total = ring.add(total, term)
    return total


def _brute_rank(A, field):
    """Size of the largest nonzero minor."""
    rows, cols = len(A), len(A[0])
    for k in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                minor = [[A[r][c] for c in cs] for r in rs]
                if not field.is_zero(_perm_det(minor, field)):
                    return k
    return 0


def _matmul(X, Y, ring, cols):
    """X times Y, where Y has ``cols`` columns (and possibly no rows)."""
    return [[_dot(ring, row, [y[j] for y in Y]) for j in range(cols)] for row in X]


def _entry(ring, rng):
    if isinstance(ring, JetRing):
        d1 = {rng.randrange(2): rng.randint(1, 9)} if rng.random() < 0.5 else {}
        return Jet(rng.randint(0, 9), d1)
    if isinstance(ring, Rationals):
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
    return rng.randint(-9, 9) % ring.p


def _inputs(name, kind, rng):
    """Known inputs plus random ones: square; singular (a last row twice the
    first, or over jets a first column with no unit entry); and
    rectangular, of rank k by construction as a product through k."""
    ring = RINGS[name]

    def rand(r, c):
        return [[_entry(ring, rng) for _ in range(c)] for _ in range(r)]

    out = list(KNOWN.get((name, kind), []))
    for _ in range(6):
        n = rng.randint(2, 5)
        if kind == "square":
            A = rand(n, n)
        elif kind == "singular":
            A = rand(n, n)
            if isinstance(ring, JetRing):
                for row in A:
                    row[0] = Jet(0, {rng.randrange(2): rng.randint(1, 9)})
            else:
                A[-1] = [ring.add(x, x) for x in A[0]]
        else:
            c = rng.choice([k for k in range(1, 6) if k != n])
            k = rng.randint(0, min(n, c))
            A = _matmul(rand(n, k), rand(k, c), ring, c)
        out.append((A, None))
    return out


@pytest.mark.parametrize("kind", ["square", "singular", "rectangular"])
@pytest.mark.parametrize("name", list(RINGS))
def test_eliminate(name, kind):
    # eliminate runs over GF(p) only; over Q the oracle Bareiss gives rank
    # and det, and the oracle eliminate_ring serves jets and inverses over Q
    ring = RINGS[name]
    elim = {"gf": eliminate, "qq": lambda A, _: eliminate_bareiss(A)}.get(
        name, eliminate_ring)
    elim_inv = eliminate if name == "gf" else eliminate_ring
    rng = random.Random(f"{name}-{kind}")
    for A, known_det in _inputs(name, kind, rng):
        e = elim(A, ring)
        if len(A) != len(A[0]):
            assert e.det is None
            with pytest.raises(UsageError):
                elim_inv(A, ring, inverse=True)
        else:
            det = _perm_det(A, ring)
            assert e.det == det == det_berkowitz(A, ring)
            if known_det is not None:
                assert det == known_det
            if kind == "singular":
                assert not is_unit(ring, det)
            inv = elim_inv(A, ring, inverse=True)
            assert inv.det == det
            assert (inv.inverse is None) == (not is_unit(ring, det))
            if inv.inverse is not None:
                n = len(A)
                eye = [[ring.one if i == j else ring.zero for j in range(n)]
                       for i in range(n)]
                assert _matmul(A, inv.inverse, ring, n) == eye
        if not isinstance(ring, JetRing):
            assert e.rank == _brute_rank(A, ring)
        if name == "qq":
            assert rank_rational(_integral(A)) == e.rank
            for inverse in (False, True):
                with pytest.raises(UsageError):
                    eliminate(A, ring, inverse=inverse)
        if name == "qq" and e.det is not None:
            # the modular route agrees with the rational one
            gf = RINGS["gf"]
            Amod = [[gf.of_fraction(x) for x in row] for row in A]
            assert eliminate(Amod, gf).det == gf.of_fraction(e.det)


def _integral(A):
    """A with each row scaled to ints by the lcm of its denominators, which
    keeps its rank over Q: ``rank_rational`` takes ints."""
    out = []
    for row in A:
        den = lcm(*(x.denominator for x in row))
        out.append([int(x * den) for x in row])
    return out


def test_eliminate_refuses_rings_without_a_body(monkeypatch, gf, qq):
    A = [[1, 2], [3, 4]]
    refused = [([[ring.constant(x) for x in row] for row in A], ring)
               for ring in (JetRing(gf, order=1), JetRing(gf, order=2))]
    refused.append(([[Fraction(x) for x in row] for row in A], qq))
    for B, ring in refused:
        for inverse in (False, True):
            with pytest.raises(UsageError, match="no elimination"):
                eliminate(B, ring, inverse=inverse)
    # the general body gives an int rank, a zero matrix included; the
    # symmetric body is watched too, and no eliminate call takes it
    general = "_eliminate_modp"
    bodies = (general, "_eliminate_symmetric")
    taken = []
    for name in bodies:
        def run(*args, body=getattr(detcalc_mod, name), name=name):
            taken.append(name)
            return body(*args)
        monkeypatch.setattr(detcalc_mod, name, run)
    S = [[1, 2], [2, 1]]
    Z = [[0, 0], [0, 0]]
    cases = [
        (A, gf, True, [general]),
        (A, gf, False, [general]),
        (S, gf, False, [general]),
        (Z, gf, False, [general]),
    ]
    for B, field, inverse, want in cases:
        taken.clear()
        rank = eliminate(B, field, inverse=inverse).rank
        assert type(rank) is int and rank == (0 if B is Z else len(B))
        assert taken == want


def _rand_int_matrix(rng, k, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(k)] for _ in range(k)]


def test_det_exact_trivials():
    assert eliminate_bareiss([[1, 1, 1]] * 3).det == 0
    assert eliminate_bareiss([[2, 0, 0], [0, 3, 0], [0, 0, 5]]).det == 30
    half = [[Fraction(1, 2), 1], [1, Fraction(1, 3)]]
    assert eliminate_bareiss(half).det == Fraction(1, 6) - 1


def test_det_exact_matches_brute_force(qq):
    rng = random.Random(0)
    for k in range(1, 5):
        for _ in range(5):
            A = _rand_int_matrix(rng, k)
            assert eliminate_bareiss(A).det == _perm_det(A, qq)


def test_det_exact_cross_det_modp(gf):
    rng = random.Random(1)
    for _ in range(10):
        A = _rand_int_matrix(rng, 6)
        exact = eliminate_bareiss(A).det
        assert exact.denominator == 1
        modular = eliminate([[x % gf.p for x in row] for row in A], gf).det
        assert modular == exact.numerator % gf.p
        # a nonzero modular value certifies a nonzero exact determinant
        if modular != 0:
            assert exact != 0


def test_eliminate_non_square(gf):
    rect = [[1, 2, 3], [4, 5, 6]]
    assert eliminate(rect, gf).det is None
    with pytest.raises(UsageError):
        eliminate(rect, gf, inverse=True)
    with pytest.raises(UsageError):
        adjugate(rect, gf)
    with pytest.raises(UsageError):
        eliminate([[1, 2], [3]], gf)
    with pytest.raises(UsageError, match="gradient of det needs a square matrix"):
        block_grad_det_at(pade_matrix(2, 1, 1, 3), None)


def _reference_modp(A, p, inverse):
    """The list-of-ints GF(p) elimination that the packed-row kernel
    replaced, kept as its reference: every entry reduced after every update,
    same pivot rule, det sign and early exit."""
    n = len(A)
    ncols = len(A[0]) if A else 0
    rows = [[x % p for x in row] for row in A]
    if inverse:
        for i, row in enumerate(rows):
            row += [int(i == j) for j in range(n)]
    det, rank = 1, 0
    for col in range(ncols):
        piv = next((i for i in range(rank, n) if rows[i][col]), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            det = -det
        row = rows[rank]
        det = det * row[col] % p
        inv = pow(row[col], -1, p)
        tail = [x * inv % p for x in row[col + 1:]]
        row[col + 1:] = tail
        for i in range(0 if inverse else rank + 1, n):
            f = rows[i][col]
            if f and i != rank:
                rows[i][col + 1:] = [(x - f * y) % p
                                     for x, y in zip(rows[i][col + 1:], tail)]
        rank += 1
        if rank == n:
            break
    inv_rows = [row[ncols:] for row in rows] if inverse and rank == n else None
    return rank, det if n == ncols else None, inv_rows


def _modp_inputs(p, rng):
    """Matrices that stress the packed GF(p) kernel: degenerate shapes, tall,
    wide and square up to 60, rank deficiency, zero columns (entries that
    are multiples of p), and entries that are negative, >= p, or all p - 1,
    which let unreduced slots grow as far as the slot-width bound allows."""

    def entry():
        return rng.choice((
            lambda: rng.randrange(p),
            lambda: rng.randrange(-3 * p, 0),
            lambda: rng.randrange(p, 4 * p),
            lambda: p - 1,
            lambda: 0,
        ))()

    def rand(r, c):
        return [[entry() for _ in range(c)] for _ in range(r)]

    out = [[], [[entry()]], [[p - 1]], [[0]], [[], []], rand(5, 1), rand(1, 5)]
    for r, c in ((7, 3), (3, 7), (12, 12), (30, 22), (22, 30)):
        out.append(rand(r, c))
        out.append([[p - 1] * c for _ in range(r)])
    for k in (8, 25, 56):
        A = rand(k, k)
        A[-1] = [a - 2 * b for a, b in zip(A[0], A[k // 2])]  # rank-deficient
        out.append(A)
        B = rand(k, k + 3)
        for row in B:
            row[1] = rng.randint(-2, 2) * p  # a zero column mod p
            row[k // 2] = p * (p - 1)
        out.append(B)
        # p - 1 on and below the diagonal: invertible, full slots
        out.append([[p - 1 if j <= i else entry() for j in range(k)]
                    for i in range(k)])
    return out


@pytest.mark.parametrize("p", [*PRIMES_62, 2, 3, 2**31 - 1, 2**89 - 1])
def test_eliminate_modp_matches_list_reference(p):
    field = PrimeField(p)
    rng = random.Random(p)
    for A in _modp_inputs(p, rng):
        square = len(A) == (len(A[0]) if A else 0)
        for inverse in (False, True) if square else (False,):
            got = eliminate(A, field, inverse=inverse)
            assert got[:3] == _reference_modp(A, p, inverse)


# Every prime the program runs at, tiny ones included; 2^61 + 15, the first
# prime above 2^61, has r = 2^k - p just below 2^(k-1), which takes the most
# folds; the last is the largest prime below MR_EXACT_BELOW, the largest
# --prime the command line takes.
REDUCTION_PRIMES = [2, 3, 5, 7, 547, SURVEY_PRIME, *PRIMES_62, 2**61 + 15,
                    MR_EXACT_BELOW - 168]


@pytest.mark.parametrize("p", REDUCTION_PRIMES)
def test_packed_reduction_reduces_every_slot(p):
    assert is_probable_prime(p)
    rng = random.Random(p)
    # slot widths of a 1 x 1, a 2 x 2 and a 91 x 91 elimination, and wider
    for size in sorted({_slot_size(p, p, s) + extra for s in (1, 2, 91) for extra in (0, 1)}):
        top = (1 << 8 * size) - 1
        slots = [x for x in (0, 1, p - 1, p, 2 * p - 1, 2 * p, 3 * p, 4 * p - 1, top)
                 if x <= top]
        slots += [rng.randrange(top + 1) for _ in range(30)]
        slots += [rng.randrange(min(4 * p, top + 1)) for _ in range(10)]
        rng.shuffle(slots)
        # the reduction's masks may be wider than the int it reduces
        for count in (len(slots), len(slots) + 3):
            got = _reducer(p, size, count)(_pack(slots, size))
            assert _unpack(got, count, size) == [x % p for x in slots] + [0] * (count - len(slots))


# The edge patterns of the gate's oracle cases: n = 3 (det(P) = 0), e > d
# (c_0 = 1 inside P), d = 0 with n = 1, e = 0 (no column once sigma = 0 is
# dropped), and the paper's (2,5,4,7).
AT_POINT_CASES = [(3, 2, 2, 3), (2, 3, 5, 4), (1, 0, 3, 4), (2, 3, 0, 4), (2, 5, 4, 7)]


@pytest.mark.parametrize("p", [3, 547, PRIMES_62[0]])
@pytest.mark.parametrize("case", AT_POINT_CASES, ids=lambda c: "".join(map(str, c)))
def test_eliminate_at_matches_evaluate_then_eliminate(case, p):
    # As the gate and the certificate call it, ``eliminate`` of P evaluated
    # at a random point (c_0 assigned where P holds it), at T = p/q (c_0
    # unassigned, so 1), and P less its sigma = 0 column at T, against the
    # list reference; a point lifted out of [0, p) gives what it reduces to.
    field = PrimeField(p)
    params = TaylorParams(*case)
    P = params.pade
    tail = SymbolicMatrix([row[1:] for row in P.entries])
    assert ((0,) * case[0] in P.variables()) == (case[2] > case[1])
    ranks = set()
    for t in range(4):
        point = random_point(P.variables(), field, derive_seed("at", t))
        lifted = {g: x - 2 * p for g, x in point.items()}
        T = taylor_coeffs(*random_rational_pair(params, field, derive_seed("at", t)),
                          params.m, field)
        for M, at in ((P, point), (P, lifted), (P, T), (tail, T)):
            A = M.evaluate(at)
            # each point assigns every variable of M but perhaps c_0
            assert A == [[0 if g is None else at.get(g, 1) for g in row] for row in M.entries]
            for inverse in (False, True) if M.is_square else (False,):
                got = eliminate(A, field, inverse)
                assert got[:3] == _reference_modp(A, p, inverse)
                if at is lifted:
                    assert got == eliminate(P.evaluate(point), field, inverse)
                ranks.add((M is P, got.rank == min(M.nrows, M.ncols)))
    # P has full rank somewhere, except where det(P) = 0 identically
    assert ((True, True) in ranks) == (case != (3, 2, 2, 3))


def test_eliminate_at_refuses_what_evaluate_and_eliminate_refuse(gf, qq):
    P = pade_matrix(2, 5, 4, 7)
    point = random_point(P.variables(), gf, 1)
    # two variables missing: evaluate names the first that row order meets,
    # c_(7,0) at row 0, column 0, not the smaller exponent
    gone = (P.variables()[0], P.entries[0][0])
    missing = {g: x for g, x in point.items() if g not in gone}
    with pytest.raises(UsageError) as refused:
        P.evaluate(missing)
    assert str(refused.value) == "point does not assign variable (7, 0)"
    A = P.evaluate(point)
    with pytest.raises(UsageError, match="no elimination over Rationals"):
        eliminate(A, qq)
    tall = pade_matrix(2, 3, 5, 4)
    with pytest.raises(UsageError, match="inverse of a non-square matrix"):
        eliminate(tall.evaluate(random_point(tall.variables(), gf, 1)), gf, inverse=True)


def _symmetric_inputs(p, rng):
    """Symmetric matrices for the symmetric GF(p) body: empty, 1x1, all zero,
    all p - 1, and at each size a random one, one whose diagonal is zero mod
    p (entries that are multiples of p), and one of deficient rank (a sum of
    fewer than n symmetric rank-one terms); entries negative or >= p let
    unreduced slots grow as far as the slot-width bound allows."""

    def entry():
        return rng.choice((
            lambda: rng.randrange(p),
            lambda: rng.randrange(-3 * p, 0),
            lambda: rng.randrange(p, 4 * p),
            lambda: p - 1,
            lambda: 0,
        ))()

    def sym(n, diagonal):
        A = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                A[i][j] = A[j][i] = entry()
            A[i][i] = entry() if diagonal else rng.randint(-2, 2) * p
        return A

    out = [[], [[entry()]], [[0]], [[p - 1]], [[0] * 5 for _ in range(5)],
           [[p - 1] * 12 for _ in range(12)]]
    for n in (2, 3, 7, 16, 40):
        out += [sym(n, True), sym(n, False)]
        vs = [[entry() for _ in range(n)] for _ in range(rng.randrange(n))]
        out.append([[sum(v[i] * v[j] for v in vs) for j in range(n)]
                    for i in range(n)])
    return out


def _packed_upper(S, p, size, rng):
    """Upper-triangle rows of the symmetric S, in its own order, for
    ``_eliminate_symmetric`` with slots of ``size`` bytes: each entry raised
    by a multiple of p, often to the largest value below the slot bound
    ``2^W - n * p * (p - 1)``."""
    n, W = len(S), 8 * size
    top = (1 << W) - n * p * (p - 1)
    assert top > p

    def lift(x):
        most = (top - 1 - x % p) // p
        return x % p + p * rng.choice((most, rng.randrange(most + 1)))

    return [sum(lift(S[i][j]) << W * (j - i) for j in range(i, n)) for i in range(n)]


@pytest.mark.parametrize("p", [*PRIMES_62, 2, 3, 5, 2**31 - 1])
def test_symmetric_body_matches_general_body(p, monkeypatch):
    field = PrimeField(p)
    rng = random.Random(p)
    log = []

    def logged(name, body):
        def run(A, *args):
            log.append((name, len(A)))
            return body(A, *args)
        return run

    monkeypatch.setattr(detcalc_mod, "_eliminate_modp",
                        logged("general", _eliminate_modp))
    monkeypatch.setattr(detcalc_mod, "_eliminate_symmetric",
                        logged("symmetric", _eliminate_symmetric))
    midway = first = 0
    for A in _symmetric_inputs(p, rng):
        n = len(A)
        want = _eliminate_modp(A, n, p, False)
        log.clear()
        assert _eliminate_symmetric(*pack_symmetric(A, p), p) == want[:2]
        # at most one hand-off, of the Schur complement left at a zero pivot
        assert len(log) <= 1 and all(s <= n for _, s in log)
        midway += any(0 < s < n for _, s in log)
        # eliminate takes the general body, with an inverse or without
        log.clear()
        assert eliminate(A, field)[:3] == want
        assert log == [("general", n)]
        log.clear()
        eliminate(A, field, inverse=True)
        assert log == [("general", n)]
        # the body as the certificate calls it: A's own order, slots filled
        # up to the bound that leaves room for the elimination's growth
        least = ((p + n * p * (p - 1)).bit_length() + 7) // 8
        for size in (least, least + 1):
            log.clear()
            assert _eliminate_symmetric(_packed_upper(A, p, size, rng), size, p) == want[:2]
            assert len(log) == 1 if want[0] < n else len(log) <= 1
            first += log == [("general", n)] and n > 1
    assert midway  # some Schur complement is handed off after a pivot
    assert first  # and, unsorted, at a zero first diagonal entry


def test_symmetric_body_hands_off_its_schur_complement(monkeypatch, gf):
    calls = []

    def general(A, ncols, p, inverse):
        calls.append([row[:] for row in A])
        return _eliminate_modp(A, ncols, p, inverse)

    monkeypatch.setattr(detcalc_mod, "_eliminate_modp", general)
    # pivots 1, then 0: the 2x2 Schur complement [[0, 1], [1, 0]] is left
    A = [[1, 1, 0], [1, 1, 1], [0, 1, 0]]
    assert _eliminate_symmetric(*pack_symmetric(A, gf.p), gf.p) == (3, gf.p - 1)
    assert calls == [[[0, 1], [1, 0]]]
    # the zero diagonal entry is packed last: pivots 2, 1, -1/2, no hand-off
    calls.clear()
    B = [[0, 1, 0], [1, 2, 0], [0, 0, 1]]
    assert _eliminate_symmetric(*pack_symmetric(B, gf.p), gf.p) == (3, gf.p - 1)
    assert calls == []


def test_rank_trivials(gf):
    assert eliminate([[0, 0], [0, 0]], gf).rank == 0
    assert eliminate([[1, 0, 0], [0, 1, 0], [0, 0, 1]], gf).rank == 3
    rng = random.Random(2)
    u = [rng.randrange(1, gf.p) for _ in range(5)]
    v = [rng.randrange(1, gf.p) for _ in range(7)]
    outer = [[gf.mul(a, b) for b in v] for a in u]
    assert eliminate(outer, gf).rank == 1


def test_rank_rectangular():
    assert rank_rational([[1, 2, 3], [2, 4, 6]]) == 1


def _primes_taken(monkeypatch):
    """The moduli of each GF(p) elimination that ``rank_rational`` runs."""
    taken = []

    def body(A, ncols, p, inverse):
        taken.append(p)
        return _eliminate_modp(A, ncols, p, inverse)

    monkeypatch.setattr(detcalc_mod, "_eliminate_modp", body)
    return taken


def test_rank_rational_needs_a_third_prime(monkeypatch):
    # Full rank over Q, rank 1 mod each of the first two primes; their
    # product is below the Hadamard bound 2 * (p0 * p1 + 1), so the answer
    # comes from the third prime, where the rank is full.
    p0, p1, p2 = islice(rational_primes(), 3)
    assert (p0, p1) == (SURVEY_PRIME, PRIMES_62[0])
    A = [[p0 * p1, 0], [0, 1]]
    taken = _primes_taken(monkeypatch)
    assert rank_rational(A) == eliminate_bareiss(A).rank == 2
    assert taken == [p0, p1, p2]
    assert eliminate([[p0 * p1, 0], [0, 1]], PrimeField(p0))[:3] == (1, 0, None)


def test_rank_rational_takes_full_rank_from_the_second_prime(monkeypatch):
    # Every maximal minor is a multiple of the first row, a multiple of
    # SURVEY_PRIME: rank 1 there, and full rank over Q from PRIMES_62[0].
    p0, p1 = islice(rational_primes(), 2)
    A = [[p0 * 3, p0 * 5, p0 * 7], [2, 11, 13]]
    taken = _primes_taken(monkeypatch)
    assert rank_rational(A) == eliminate_bareiss(A).rank == 2
    assert taken == [p0, p1] == [SURVEY_PRIME, PRIMES_62[0]]
    assert eliminate(A, PrimeField(p0)).rank == 1


def test_rank_rational_reads_residues_until_a_prime_misses_full_rank(monkeypatch):
    # Given as a residue per prime, the matrix of the test above is read
    # mod SURVEY_PRIME only: rank 1 there calls ``exact`` once, and the next
    # prime ranks what it returned.  A full rank at the first prime never
    # calls it.
    p0, p1 = islice(rational_primes(), 2)
    A = [[p0 * 3, p0 * 5, p0 * 7], [2, 11, 13]]
    for M, want, residues, exacts in ((A, 2, [p0], 1), ([[1, 2], [3, 4]], 2, [p0], 0)):
        read, lifted = [], []
        taken = _primes_taken(monkeypatch)
        rank = rank_rational(lambda p: read.append(p) or [[x % p for x in row] for row in M],
                             lambda: lifted.append(M) or M)
        assert rank == want == eliminate_bareiss(M).rank
        assert read == residues and len(lifted) == exacts
        assert taken == [p0, p1][:exacts + 1]


def test_rank_rational_runs_past_the_listed_primes(monkeypatch):
    # Rank 1 with entries near 2^300: the Hadamard bound, about 2^603,
    # exceeds the product of SURVEY_PRIME and the eight PRIMES_62 (about
    # 2^526), so the certificate takes primes below them.
    rng = random.Random(4)
    u = [2**300 + rng.randrange(2**64) for _ in range(2)]
    A = [u, [3 * x for x in u]]
    taken = _primes_taken(monkeypatch)
    assert rank_rational(A) == eliminate_bareiss(A).rank == 1
    assert taken == list(islice(rational_primes(), len(taken))) and len(taken) > 9
    assert taken[:9] == [SURVEY_PRIME, *PRIMES_62]
    # PRIMES_62 are the eight largest primes below 2^62, and the primes
    # taken after them are every smaller one, in descending order
    assert taken[1:] == [n for n in range(2**62 - 1, taken[-1] - 1, -1)
                         if is_probable_prime(n)]


def test_rank_rational_of_a_zero_matrix_takes_one_prime(monkeypatch):
    for A in ([[0, 0], [0, 0]], [[0] * 3]):
        taken = _primes_taken(monkeypatch)
        assert rank_rational(A) == eliminate_bareiss(A).rank == 0
        assert taken == [next(rational_primes())]


def test_adjugate_identity_prime_field(gf):
    rng = random.Random(3)
    for k in range(1, 11):
        A = [[rng.randrange(gf.p) for _ in range(k)] for _ in range(k)]
        adj = adjugate(A, gf)
        det = eliminate(A, gf).det
        prod = [
            [sum(A[i][t] * adj[t][j] for t in range(k)) % gf.p for j in range(k)]
            for i in range(k)
        ]
        for i in range(k):
            for j in range(k):
                assert prod[i][j] == (det if i == j else 0)


def _minors_adjugate(A, field):
    """adj(A) by cofactors: n^2 determinants of (n-1)x(n-1) minors, the
    reference for ``adjugate``'s singular branch."""
    n = len(A)
    if n == 1:
        return [[field.one]]
    adj = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[A[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            adj[j][i] = (-1) ** (i + j) * eliminate(minor, field).det % field.p
    return adj


def _rank_r_matrix(n, r, field, rng):
    """An n x n matrix of rank r over ``field``: a sum of r rank-one products,
    drawn again until the rank is exactly r."""
    p = field.p
    while True:
        us = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
        vs = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
        A = [[sum(u[i] * v[j] for u, v in zip(us, vs)) % p for j in range(n)]
             for i in range(n)]
        if eliminate(A, field).rank == r:
            return A


def test_adjugate_identity_rationals_and_singular(qq):
    # every rank r = 0..k at sizes k = 1..8: rank k reads det * A^-1, rank
    # k - 1 the bordered matrix, lower ranks give 0; over Q there is no
    # inverse to start from, so adjugate refuses
    for p in (2, 3, 5, PRIMES_62[3]):
        gf = GF(p)
        rng = random.Random(p)
        for k, r in [(k, r) for k in range(1, 9) for r in range(k + 1)]:
            A = [[0]] if (k, r) == (1, 0) else _rank_r_matrix(k, r, gf, rng)
            adj = adjugate(A, gf)
            det = eliminate(A, gf).det
            assert (det != 0) == (r == k)
            assert adj == _minors_adjugate(A, gf)
            for i in range(k):
                for j in range(k):
                    s = sum(A[i][t] * adj[t][j] for t in range(k)) % p
                    assert s == (det if i == j else 0)
            # A.adj(A) = 0 holds for any multiple of a singular A's adjugate;
            # det(A + u v^T) = det(A) + v^T adj(A) u pins the adjugate itself
            u = [rng.randrange(p) for _ in range(k)]
            v = [rng.randrange(p) for _ in range(k)]
            B = [[(A[i][j] + u[i] * v[j]) % p for j in range(k)] for i in range(k)]
            vadj = sum(v[i] * adj[i][j] * u[j] for i in range(k) for j in range(k))
            assert eliminate(B, gf).det == (det + vadj) % p
            with pytest.raises(UsageError):
                adjugate([[Fraction(x) for x in row] for row in A], qq)


def test_relation_check_at_a_singular_point_eliminates_at_most_three_times(monkeypatch):
    # P of (2,5,4,7) is 15 x 15 and singular at both points, where the
    # program's relation check refuses the factorisation, which has no
    # inverse; M from the oracle's adjugate satisfies the identity there too.
    # The adjugate eliminates P once with its inverse and B = [[P, u],
    # [v^T, 0]] once (rank 14 only), not a determinant per minor.
    params = TaylorParams(2, 5, 4, 7)
    P = params.pade
    calls = []

    def counted(A, *args):
        calls.append(len(A))
        return _eliminate_modp(A, *args)

    monkeypatch.setattr(detcalc_mod, "_eliminate_modp", counted)
    for p, seed, rank in ((547, 301, 14), (5, 141, 13)):
        field = GF(p)
        point = random_point(P.variables(), field, seed)
        fac = eliminate(P.evaluate(point), field, inverse=True)
        assert fac.rank == rank
        with pytest.raises(UsageError, match="singular at this point"):
            relation_check(params, point, fac)
        calls.clear()
        M = build_M(params, block_grad_det_adj(P, point, field))
        assert not any(relation_residual(M, point, field))
        assert calls == ([15, 16] if rank == 14 else [15])


def test_berkowitz_matches_elimination(gf):
    rng = random.Random(5)
    for k in range(1, 7):
        A = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
        Amod = [[x % gf.p for x in row] for row in A]
        assert det_berkowitz(Amod, gf) == eliminate(Amod, gf).det
        assert det_berkowitz(A, QQ()) == _perm_det(A, QQ())


def test_jet_det_identity_plus_epsilon(gf):
    ring = JetRing(gf, order=2)
    for k in (2, 4):
        for diag in (True, False):
            jets = [
                [ring.one if i == j else ring.zero for j in range(k)]
                for i in range(k)
            ]
            if diag:
                jets[1][1] = ring.add(jets[1][1], ring.variable(0, 0))
                expect = ring.add(ring.one, ring.variable(0, 0))
            else:
                jets[0][1] = ring.variable(0, 0)
                expect = ring.one
            assert eliminate_ring(jets, ring).det == expect
            assert det_berkowitz(jets, ring) == expect


def test_grad_generic_2x2(gf):
    P = SymbolicMatrix([[("a",), ("b",)], [("c",), ("d",)]])
    pt = {("a",): 2, ("b",): 3, ("c",): 5, ("d",): 7}
    grad = grad_det_at(P, pt, gf)
    assert grad[("a",)] == 7
    assert grad[("d",)] == 2
    assert grad[("b",)] == gf.sub(gf.zero, 5)
    assert grad[("c",)] == gf.sub(gf.zero, 3)
    assert ("z",) not in grad


def _random_pattern(rng, max_size=8, repeat=True):
    k = rng.randint(2, max_size)
    nv = rng.randint(2, k * k if repeat else k * k)
    vars_ = [(i,) for i in range(nv)]
    entries = [
        [vars_[rng.randrange(nv)] if rng.random() < 0.85 else None for _ in range(k)]
        for _ in range(k)
    ]
    return SymbolicMatrix(entries)


def _nonsingular_point(P, field, rng):
    for _ in range(50):
        pt = {g: field.sample(rng) for g in P.variables()}
        if eliminate(P.evaluate(pt), field).det != 0:
            return pt
    return None


def test_grad_matches_jet_oracle_on_random_patterns(gf):
    rng = random.Random(6)
    done = 0
    while done < 10:
        P = _random_pattern(rng, max_size=6)
        pt = {g: gf.sample(rng) for g in P.variables()}
        assert grad_det_at(P, pt, gf) == jet_grad_det(P, pt, gf)
        done += 1


def test_grad_matches_jet_oracle_on_pade(gf):
    P = pade_matrix(2, 5, 4, 7)
    pt = random_point(P.variables(), gf, 9)
    assert grad_det_at(P, pt, gf) == jet_grad_det(P, pt, gf)


def test_grad_matches_jet_oracle_at_singular_points():
    # the adjugate route against the jet route where P has rank n - 1 (the
    # bordered matrix) and rank <= n - 2 (adj = 0); the ranks are asserted,
    # so no seed can miss a branch
    P = pade_matrix(2, 5, 4, 7)
    for p, seed, rank in ((2, 2, 14), (2, 0, 13), (3, 1, 14), (3, 4, 13), (5, 5, 14),
                          (5, 141, 13)):
        field = GF(p)
        pt = random_point(P.variables(), field, seed)
        assert eliminate(P.evaluate(pt), field).rank == rank
        grad = grad_det_at(P, pt, field)
        assert grad == jet_grad_det(P, pt, field)
        assert any(grad.values()) == (rank == 14)
    rng = random.Random(10)
    seen = {"n-1": 0, "low": 0}
    for p in (2, 3, 5):
        field = GF(p)
        for _ in range(15):
            P = _random_pattern(rng, max_size=6)
            n = P.nrows
            for _ in range(10):
                pt = {g: field.sample(rng) for g in P.variables()}
                rank = eliminate(P.evaluate(pt), field).rank
                if rank < n:
                    assert grad_det_at(P, pt, field) == jet_grad_det(P, pt, field)
                    seen["n-1" if rank == n - 1 else "low"] += 1
    assert min(seen.values()) >= 10


def test_hessian_generic_2x2(gf):
    P = SymbolicMatrix([[("a",), ("b",)], [("c",), ("d",)]])
    pt = {("a",): 2, ("b",): 3, ("c",): 5, ("d",): 7}
    labels, H = hessian_det_at(P, pt, gf)
    idx = {g: i for i, g in enumerate(labels)}
    assert H[idx[("a",)]][idx[("d",)]] == 1
    assert H[idx[("a",)]][idx[("b",)]] == 0
    assert H[idx[("a",)]][idx[("a",)]] == 0
    assert H[idx[("b",)]][idx[("c",)]] == gf.p - 1


def test_hessian_symmetry_and_jet_agreement(gf):
    rng = random.Random(7)
    done = 0
    while done < 10:
        P = _random_pattern(rng, max_size=5)
        pt = _nonsingular_point(P, gf, rng)
        if pt is None:
            continue
        labels, H = hessian_det_at(P, pt, gf)
        for i in range(len(labels)):
            for j in range(i, len(labels)):
                assert H[i][j] == H[j][i]
                assert H[i][j] == jet_hessian_entry(P, pt, gf, labels[i], labels[j])
        done += 1


def _reference_hessian_core(Ainv, det, occ, present, p):
    """The occurrence-pair loop that the class-pair kernel replaced, kept as
    its reference: one scalar product per pair of occurrences, each entry
    reduced mod p once at the end."""
    k = len(present)
    tr1 = [sum(Ainv[c][r] for r, c in occ[g]) for g in present]
    H = [[0] * k for _ in range(k)]
    for i in range(k):
        occ_i = occ[present[i]]
        for j in range(i, k):
            occ_j = occ[present[j]]
            tr2 = 0
            for r, c in occ_i:
                for r2, c2 in occ_j:
                    tr2 += Ainv[c2][r] * Ainv[c][r2]
            val = det * (tr1[i] * tr1[j] - tr2) % p
            H[i][j] = val
            H[j][i] = val
    return H


HESSIAN_PRIMES = (2, 3, 2**31 - 1, 2**89 - 1, *PRIMES_62)


@pytest.fixture(scope="module")
def hessian_patterns():
    """(name, P, its plan) of random patterns, which repeat variables within
    a column, and of Pade matrices: every square-family case with e <= 9,
    (2,1,1,2), and (2,8,5,10) with the lex order inside each degree
    reversed.  Built once for the module's tests, which only read them."""
    rng = random.Random(12)
    out = [(f"random{i}", _random_pattern(rng, max_size=8)) for i in range(12)]
    out += [(str(tuple(c)), pade_matrix(*c)) for c in square_family(9)]
    out.append(("(2, 1, 1, 2)", pade_matrix(2, 1, 1, 2)))
    out.append(("(2, 8, 5, 10) within-degree reversed",
                reverse_within_degree(pade_matrix(2, 8, 5, 10))))
    return [(name, P, hessian_plan(P)) for name, P in out]


def _column_repeats(P):
    return any(len({c for _, c in ps}) < len(ps) for ps in P.occurrences().values())


def _class_sizes(P):
    # The kernel's classes: variables keyed by the columns of their
    # occurrences, in occurrence order.
    return Counter(tuple(c for _, c in ps) for ps in P.occurrences().values())


def _class_runs(P):
    # The runs the kernel cuts each class into: its members sorted by their
    # rows, cut wherever a row at some occurrence does not step by one.
    rows: dict = {}
    for ps in P.occurrences().values():
        rows.setdefault(tuple(c for _, c in ps), []).append(tuple(r for r, _ in ps))
    return {key: 1 + sum(any(b != a + 1 for a, b in zip(x, y)) for x, y in pairwise(sorted(rs)))
            for key, rs in rows.items()}


def test_hessian_core_matches_reference(hessian_patterns):
    # The kernel is checked on any matrix X, not only on inverses: a random
    # X, X with every entry p - 1, which makes each G slot |cA| * |cB| *
    # (p - 1)^2, and X = 0, which leaves each K slot at its offset
    # |cA| * |cB| * p^2, so a slot one byte narrower carries.  det(P) * K,
    # unpacked, must be the reference H.  The reference costs 0.3 s at
    # (2,20,8,22) and 0.6 s at (2,25,9,27) over GF(p), so those two cases
    # take the full X at 2^89 - 1 and a random X at a 62-bit prime, and the
    # others take all three at every prime.
    patterns = [(name, P) for name, P, _ in hessian_patterns]
    assert any(_column_repeats(P) for _, P in patterns)
    # A one-member class is a run of one, whose slices hold one slot.
    assert any(1 in _class_sizes(P).values() for _, P in patterns)
    assert any(len(key) == 1 for _, P in patterns for key in _class_sizes(P))
    # Every class of a Pade matrix is one run, whose gathers of X are one
    # slice per occurrence; some random class splits into several runs.
    assert all(set(_class_runs(P).values()) == {1}
               for name, P in patterns if not name.startswith("random"))
    assert any(max(_class_runs(P).values()) > 1 for _, P in patterns)
    rng = random.Random(13)
    for name, P, plan in hessian_patterns:
        labels, occ, k = P.variables(), P.occurrences(), P.nrows
        # The plan holds each class's runs, keyed by its columns.
        assert Counter(cols for cols, _, _ in plan) == _class_runs(P), name
        full = lambda p: [[p - 1] * k for _ in range(k)]
        zero = lambda p: [[0] * k for _ in range(k)]
        rand = lambda p: [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
        if k > 40:
            inputs = [(2**89 - 1, full), (PRIMES_62[3], rand)]
        else:
            inputs = [(p, X) for p in HESSIAN_PRIMES for X in (full, zero, rand)]
        for p, make in inputs:
            X, det = make(p), rng.randrange(1, p)
            packed = _hessian_core(plan, X, p)
            H = [[det * x % p for x in row] for row in unpack_hessian(labels, packed, p)]
            assert H == _reference_hessian_core(X, det, occ, labels, p), (name, p)
        # K's order lists each class's members together, sorted by their rows.
        cols = lambda g: tuple(c for _, c in occ[g])
        place: dict = {}
        for g in packed[2]:
            place.setdefault(cols(g), len(place))
        assert packed[2] == sorted(packed[2], key=lambda g: (place[cols(g)], occ[g])), name


def test_hessian_orders_the_single_occurrence_classes_last(gf, hessian_patterns):
    # Their diagonal entries are K's structural zeros; every other class of
    # a Pade matrix has a nonzero diagonal at a random point.
    rng = random.Random(15)
    for _, P, plan in hessian_patterns:
        pt = _nonsingular_point(P, gf, rng)
        if pt is None:
            continue
        fac = eliminate(P.evaluate(pt), gf, inverse=True)
        rows, size, order = _hessian_core(plan, fac.inverse, gf.p)
        occ, mask = P.occurrences(), (1 << 8 * size) - 1
        single = [len(occ[g]) == 1 for g in order]
        assert single == sorted(single)
        diagonal = [row & mask for row in rows]
        assert all(x % gf.p == 0 for x, s in zip(diagonal, single) if s)
        if P.col_labels is not None:
            assert all(x % gf.p for x, s in zip(diagonal, single) if not s)


@pytest.mark.parametrize("prime, size", [(SURVEY_PRIME, 9), (P62, 17)],
                         ids=["survey", "p62"])
def test_hessian_slot_width_follows_the_prime(prime, size):
    # A 30-bit prime packs K of (2,20,8,22) in 9-byte slots, a 62-bit one in
    # 17; both ranks agree with the general body on the unpacked K.
    field = PrimeField(prime)
    P = pade_matrix(2, 20, 8, 22)
    pt = _nonsingular_point(P, field, random.Random(17))
    fac = eliminate(P.evaluate(pt), field, inverse=True)
    packed = _hessian_core(hessian_plan(P), fac.inverse, prime)
    assert packed[1] == size
    labels = P.variables()
    K = unpack_hessian(labels, packed, prime)
    general = eliminate(K, field)
    assert general.rank == len(labels)
    assert _eliminate_symmetric(*packed[:2], prime) == (general.rank, general.det)
    assert _eliminate_symmetric(*pack_symmetric(K, prime), prime) == (
        general.rank, general.det)


# Every square case up to e = 12 at both default primes, then (2,5,4,7) at
# the largest primes below 2^33 and 2^65, where K's slot is 10 and 18 bytes:
# the widths that the family reaches only from e = 21.
_PROBES = [*((tuple(c), p, size) for c in square_family(12)
             for p, size in ((SURVEY_PRIME, 9), (P62, 17))),
           ((2, 5, 4, 7), 2**33 - 9, 10), ((2, 5, 4, 7), 2**65 - 49, 18)]


@pytest.mark.parametrize("case, prime, size", _PROBES, ids=[
    "-".join(map(str, case)) + f"-{size}B" for case, _, size in _PROBES])
def test_packed_K_passes_the_trace_route_probe(case, prime, size):
    # Freivalds' check of the packed K: K.w read off its unpacked rows, at a
    # uniform w, equals the trace route's product from the same X, so a
    # wrong K passes with probability at most 1/p.
    field = PrimeField(prime)
    P = pade_matrix(*case)
    labels = P.variables()
    rng = random.Random(derive_seed("probe", case, prime))
    pt = _nonsingular_point(P, field, rng)
    fac = eliminate(P.evaluate(pt), field, inverse=True)
    packed = _hessian_core(hessian_plan(P), fac.inverse, prime)
    assert packed[1] == size
    w = {g: field.sample(rng) for g in labels}
    Kw = [sum(x * w[b] for x, b in zip(row, labels)) % prime
          for row in unpack_hessian(labels, packed, prime)]
    assert dict(zip(labels, Kw)) == trace_route_Kw(P, fac, w, prime)


@pytest.mark.parametrize("prime", [SURVEY_PRIME, P62, 547], ids=["survey", "p62", "547"])
def test_hessian_at_is_the_rank_and_det_of_the_full_hessian(prime, hessian_patterns):
    # Refused exactly where P is singular, the zero point included, as the
    # factorisation there has no inverse; elsewhere the general body's
    # (rank, det) of H = det(P) * K, built by the oracle.  At 547 a random
    # point of a large P is singular too, at times.
    field = PrimeField(prime)
    rng = random.Random(prime)
    names, patterns, plans = zip(*hessian_patterns)
    assert {"(2, 5, 4, 7)", "(2, 20, 8, 22)"} <= set(names)
    singular = regular = 0
    for P, plan in zip(patterns, plans):
        labels = P.variables()
        for pt in (dict.fromkeys(labels, 0), {g: field.sample(rng) for g in labels}):
            fac = eliminate(P.evaluate(pt), field, inverse=True)
            if fac.det == 0:
                with pytest.raises(UsageError, match="singular at this point"):
                    hessian_at(plan, fac)
                singular += 1
                continue
            h = eliminate(hessian_det_at(P, pt, field)[1], field)
            assert hessian_at(plan, fac) == (h.rank, h.det)
            regular += 1
    assert singular >= len(patterns) and regular
    assert prime != 547 or singular > len(patterns)


def _zero_padded(labels, H, ambient):
    """H over ``labels`` placed inside the ambient Hessian: zero rows and
    columns for the ambient coordinates that are not labels."""
    idx = {g: i for i, g in enumerate(labels)}
    return [
        [
            H[idx[a]][idx[b]] if a in idx and b in idx else 0
            for b in ambient
        ]
        for a in ambient
    ]


@pytest.mark.parametrize("case", [(2, 5, 4, 7), (2, 8, 5, 10)], ids=["547", "8510"])
def test_full_certificate_matches_zero_padded_hessian(case):
    # The full certificate is derived from the essential trials without
    # building the ambient H; here that H is built, at the certificate's own
    # points, and eliminated.
    params = TaylorParams(*case)
    P = pade_matrix(*case)
    ambient = monomials_upto(2, params.m)
    if case == (2, 5, 4, 7):
        missing = set(ambient) - set(P.variables())
        assert missing == {(0, 0), (1, 0), (0, 1)}
    check = nondefective_hypersurface_check(params, trials=GATE_TRIALS,
                                            stop_at_nonzero=True)
    for seed in (0, 7, 123):
        essential = certify_hessian_pade(check, trials=2, seed=seed)
        full = full_from_essential(essential, params)
        assert full.degree_bound == len(ambient) * (P.nrows - 2)
        for s, t in zip(essential.trials, full.trials):
            fld = PrimeField(t.prime)
            pt = random_point(P.variables(), fld, t.seed)
            assert point_hash(pt) == t.point_digest
            labels, H = hessian_det_at(P, pt, fld)
            # the essential trial eliminated K = H / det(P), not H
            h = eliminate(H, fld)
            assert (s.value, s.corank) == (h.det, len(labels) - h.rank)
            h = eliminate(_zero_padded(labels, H, ambient), fld)
            assert (t.value, t.corank) == (h.det, len(ambient) - h.rank)


def test_full_certificate_corank_matches_symbolic_poly_2112():
    P = pade_matrix(2, 1, 1, 2)
    f = expand_det_poly(P, monomials_upto(2, 2))
    poly = certify_hessian_poly(f, trials=5, seed=0)
    params = TaylorParams(2, 1, 1, 2)
    check = nondefective_hypersurface_check(params, trials=GATE_TRIALS,
                                            stop_at_nonzero=True)
    full = full_from_essential(certify_hessian_pade(check, trials=5, seed=0), params)
    assert [t.corank for t in full.trials] == [t.corank for t in poly.trials]


def test_jet_bilinear_at_a_singular_point_matches_symbolic(gf):
    # generic 3x3 pattern, point chosen with row3 = row1 + row2 so the
    # evaluation is singular: the Jacobi route refuses it, and unit vectors
    # in jet_bilinear give the symbolic second derivatives
    names = [(i,) for i in range(9)]
    P = SymbolicMatrix([names[0:3], names[3:6], names[6:9]])
    rng = random.Random(8)
    vals = [rng.randrange(1, 100) for _ in range(6)]
    pt = dict(zip(names[:6], vals))
    for t in range(3):
        pt[names[6 + t]] = (vals[t] + vals[3 + t]) % gf.p
    A = P.evaluate(pt)
    assert eliminate(A, gf).det == 0
    with pytest.raises(UsageError, match="singular"):
        hessian_det_at(P, pt, gf)
    f = expand_det_poly(P, names)
    for i in range(9):
        for j in range(9):
            expect = f.diff(i).diff(j).eval(gf, vals + [pt[g] for g in names[6:]])
            assert jet_bilinear(P, pt, gf, {names[i]: 1}, {names[j]: 1}) == expect


def test_euler_identity_on_patterns(gf):
    rng = random.Random(9)
    for _ in range(5):
        P = _random_pattern(rng, max_size=6)
        pt = {g: gf.sample(rng) for g in P.variables()}
        f_val = eliminate(P.evaluate(pt), gf).det
        grad = grad_det_at(P, pt, gf)
        s = sum(pt[g] * v for g, v in grad.items()) % gf.p
        assert s == P.nrows * f_val % gf.p


def test_block_grad_sums_to_full_gradient(gf):
    P = pade_matrix(2, 5, 4, 7)
    pt = random_point(P.variables(), gf, 11)
    bg = block_grad_det_at(P, eliminate(P.evaluate(pt), gf, inverse=True))
    full = grad_det_at(P, pt, gf)
    agg = {}
    for (j, g), v in bg.items():
        agg[g] = gf.add(agg.get(g, 0), v)
    assert agg == full


def _float_det(A):
    A = [row[:] for row in A]
    n = len(A)
    det = 1.0
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(A[i][k]))
        if abs(A[piv][k]) < 1e-12:
            return 0.0
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            det = -det
        det *= A[k][k]
        for i in range(k + 1, n):
            f = A[i][k] / A[k][k]
            for j in range(k, n):
                A[i][j] -= f * A[k][j]
    return det


def test_gradient_matches_central_finite_differences(qq):
    rng = random.Random(10)
    P = _random_pattern(rng, max_size=4)
    pt = {g: Fraction(rng.randint(1, 9)) for g in P.variables()}
    grad = jet_grad_det(P, pt, qq)
    h = 1e-6
    for g, exact in grad.items():
        up = dict(pt)
        dn = dict(pt)
        up[g] = float(up[g]) + h
        dn[g] = float(dn[g]) - h
        up = {k: float(v) for k, v in up.items()}
        dn = {k: float(v) for k, v in dn.items()}
        approx = (_float_det(P.evaluate(up)) -
                  _float_det(P.evaluate(dn))) / (2 * h)
        assert approx == pytest.approx(float(exact), rel=1e-6, abs=1e-4)


def test_expand_det_poly_matches_brute_force(gf):
    rng = random.Random(11)
    P = _random_pattern(rng, max_size=4)
    labels = P.variables()
    f = expand_det_poly(P, labels)
    for _ in range(5):
        pt = {g: gf.sample(rng) for g in labels}
        direct = eliminate(P.evaluate(pt), gf).det
        assert f.eval(gf, [pt[g] for g in labels]) == direct


def test_evaluate_missing_variable_raises(gf):
    P = pade_matrix(2, 1, 1, 2)
    with pytest.raises(UsageError):
        P.evaluate({})
