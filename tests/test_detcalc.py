import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taylorpade.detcalc as detcalc_mod
from taylorpade.detcalc import (
    _eliminate_modp,
    _eliminate_symmetric_modp,
    _hessian_core,
    adjugate,
    block_grad_det_at,
    eliminate,
)
from taylorpade.errors import DomainError, UsageError
from taylorpade.fields import (
    PRIMES_62,
    PrimeField,
    Rationals,
    point_hash,
    random_point,
)
from taylorpade.hessian import (
    certify_hessian_pade,
    certify_hessian_poly,
    full_from_essential,
)
from taylorpade.pade import SymbolicMatrix, pade_matrix
from taylorpade.series import monomials_upto
from taylorpade.variety import (
    TaylorParams,
    nondefective_hypersurface_check,
    square_family,
)

from oracles import (
    Jet,
    JetRing,
    det_berkowitz,
    eliminate_ring,
    expand_det_poly,
    grad_det_at,
    hessian_det_at,
    is_unit,
    jet_bilinear,
    jet_grad_det,
    jet_hessian_entry,
)

P62 = PRIMES_62[0]

# Rings of the parametrized elimination test; jets run over GF(P62).
RINGS = {
    "gf": PrimeField(P62),
    "qq": Rationals(),
    "jet1": JetRing(PrimeField(P62), order=1),
    "jet2": JetRing(PrimeField(P62), order=2),
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
        sign = 1
        seen = [False] * n
        for i in range(n):
            if not seen[i]:
                j, ln = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    ln += 1
                if ln % 2 == 0:
                    sign = -sign
        term = ring.one if sign == 1 else ring.neg(ring.one)
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


def _dot(ring, xs, ys):
    s = ring.zero
    for x, y in zip(xs, ys):
        s = ring.add(s, ring.mul(x, y))
    return s


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
    # eliminate has no body over jets, and none for an inverse over Q; the
    # oracle eliminate_ring serves those
    ring = RINGS[name]
    elim = eliminate_ring if name.startswith("jet") else eliminate
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
            with pytest.raises(UsageError):
                eliminate(A, ring, inverse=True)
        if name == "qq" and e.det is not None:
            # the modular route agrees with the rational one
            gf = RINGS["gf"]
            Amod = [[gf.of_fraction(x) for x in row] for row in A]
            assert eliminate(Amod, gf).det == gf.of_fraction(e.det)


def test_eliminate_refuses_rings_without_a_body(monkeypatch, gf, qq):
    A = [[1, 2], [3, 4]]
    for order in (1, 2):
        ring = JetRing(gf, order=order)
        jets = [[ring.constant(x) for x in row] for row in A]
        for inverse in (False, True):
            with pytest.raises(UsageError, match="no elimination"):
                eliminate(jets, ring, inverse=inverse)
    with pytest.raises(UsageError, match="no elimination for an inverse over"):
        eliminate(A, qq, inverse=True)
    # each of the three bodies gives an int rank, a zero matrix included
    general, symmetric, bareiss = bodies = (
        "_eliminate_modp", "_eliminate_symmetric_modp", "_eliminate_bareiss")
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
        (S, gf, False, [symmetric]),
        (Z, gf, False, [symmetric, general]),  # hand-off at the zero pivot
        (A, qq, False, [bareiss]),
        (Z, qq, False, [bareiss]),
        ([[1, 2, 3]], qq, False, [bareiss]),
    ]
    for B, field, inverse, want in cases:
        taken.clear()
        rank = eliminate(B, field, inverse=inverse).rank
        assert type(rank) is int and rank == (0 if B is Z else len(B))
        assert taken == want


def _rand_int_matrix(rng, k, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(k)] for _ in range(k)]


def test_det_exact_trivials(qq):
    assert eliminate([[1, 1, 1]] * 3, qq).det == 0
    assert eliminate([[2, 0, 0], [0, 3, 0], [0, 0, 5]], qq).det == 30
    half = [[Fraction(1, 2), 1], [1, Fraction(1, 3)]]
    assert eliminate(half, qq).det == Fraction(1, 6) - 1


def test_det_exact_matches_brute_force(qq):
    rng = random.Random(0)
    for k in range(1, 5):
        for _ in range(5):
            A = _rand_int_matrix(rng, k)
            assert eliminate(A, qq).det == _perm_det(A, qq)


def test_det_exact_cross_det_modp(gf, qq):
    rng = random.Random(1)
    for _ in range(10):
        A = _rand_int_matrix(rng, 6)
        exact = eliminate(A, qq).det
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
            assert tuple(got) == _reference_modp(A, p, inverse)


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


@pytest.mark.parametrize("p", [*PRIMES_62, 2, 3, 2**31 - 1])
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
    monkeypatch.setattr(detcalc_mod, "_eliminate_symmetric_modp",
                        logged("symmetric", _eliminate_symmetric_modp))
    midway = 0
    for A in _symmetric_inputs(p, rng):
        n = len(A)
        want = _eliminate_modp(A, n, p, False)
        log.clear()
        assert _eliminate_symmetric_modp(A, p) == want
        # at most one hand-off, of the Schur complement left at a zero pivot
        assert len(log) <= 1 and all(s <= n for _, s in log)
        midway += any(0 < s < n for _, s in log)
        # eliminate takes the symmetric body, and the general one when an
        # inverse is asked
        log.clear()
        assert tuple(eliminate(A, field)) == want
        assert log[0] == ("symmetric", n)
        log.clear()
        eliminate(A, field, inverse=True)
        assert log == [("general", n)]
    assert midway  # some Schur complement is handed off after a pivot


def test_symmetric_body_hands_off_its_schur_complement(monkeypatch, gf):
    calls = []

    def general(A, ncols, p, inverse):
        calls.append([row[:] for row in A])
        return _eliminate_modp(A, ncols, p, inverse)

    monkeypatch.setattr(detcalc_mod, "_eliminate_modp", general)
    # pivots 1, then 0: the 2x2 Schur complement [[0, 1], [1, 0]] is left
    A = [[1, 1, 0], [1, 1, 1], [0, 1, 0]]
    assert tuple(eliminate(A, gf)) == (3, gf.p - 1, None)
    assert calls == [[[0, 1], [1, 0]]]
    # the zero diagonal entry is moved last: pivots 2, 1, -1/2, no hand-off
    calls.clear()
    assert tuple(eliminate([[0, 1, 0], [1, 2, 0], [0, 0, 1]], gf)) == (3, gf.p - 1, None)
    assert calls == []
    # a square matrix that is not symmetric takes the general body whole
    calls.clear()
    B = [[1, 1, 0], [1, 1, 1], [1, 1, 0]]
    assert tuple(eliminate(B, gf)) == (2, 0, None)
    assert calls == [B]


def test_rank_trivials(gf):
    assert eliminate([[0, 0], [0, 0]], gf).rank == 0
    assert eliminate([[1, 0, 0], [0, 1, 0], [0, 0, 1]], gf).rank == 3
    rng = random.Random(2)
    u = [rng.randrange(1, gf.p) for _ in range(5)]
    v = [rng.randrange(1, gf.p) for _ in range(7)]
    outer = [[gf.mul(a, b) for b in v] for a in u]
    assert eliminate(outer, gf).rank == 1


def test_rank_rectangular(qq):
    assert eliminate([[1, 2, 3], [2, 4, 6]], qq).rank == 1
    assert eliminate([[Fraction(1, 2)], [Fraction(1, 3)]], qq).rank == 1


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


def test_adjugate_identity_rationals_and_singular(gf, qq):
    # the singular branch (cofactors by minors) over GF(p); over Q there is
    # no inverse to start from, so adjugate refuses
    rng = random.Random(4)
    p = gf.p
    for k in range(2, 11):
        A = [[rng.randint(-5, 5) % p for _ in range(k)] for _ in range(k)]
        if k % 2 == 0:
            A[-1] = A[0][:]  # force singularity on even sizes
        adj = adjugate(A, gf)
        det = eliminate(A, gf).det
        if k % 2 == 0:
            assert det == 0
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


def test_berkowitz_matches_elimination(gf):
    rng = random.Random(5)
    for k in range(1, 7):
        A = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
        Amod = [[x % gf.p for x in row] for row in A]
        assert det_berkowitz(Amod, gf) == eliminate(Amod, gf).det
        assert det_berkowitz(A, Rationals()) == _perm_det(A, Rationals())


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
    assert grad[("b",)] == gf.neg(5)
    assert grad[("c",)] == gf.neg(3)
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
        if eliminate(P.evaluate(pt, field), field).det != field.zero:
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


def _hessian_core_patterns():
    """Random patterns, which repeat variables within a column, and Pade
    matrices: every square-family case with e <= 9, (2,1,1,2), and the
    within-increasing layout of (2,8,5,10)."""
    rng = random.Random(12)
    out = [(f"random{i}", _random_pattern(rng, max_size=8)) for i in range(12)]
    out += [(str(c.astuple()), pade_matrix(*c.astuple())) for c in square_family(9)]
    out.append(("(2, 1, 1, 2)", pade_matrix(2, 1, 1, 2)))
    out.append(("(2, 8, 5, 10) within-increasing",
                pade_matrix(2, 8, 5, 10, within_increasing=True)))
    return out


def _column_repeats(P):
    return any(len({c for _, c in ps}) < len(ps) for ps in P.occurrences().values())


def test_hessian_core_matches_reference():
    # The kernel is checked on any matrix X, not only on inverses: a random
    # X, and X with every entry p - 1, which fills each packed slot to its
    # bound |cA| * |cB| * (p - 1)^2, so a slot one byte narrower carries.
    # The reference costs 0.3 s at (2,20,8,22) and 0.6 s at (2,25,9,27) over
    # GF(p), so those two cases take the full X at 2^89 - 1 and a random X
    # at a 62-bit prime, and the others take both at every prime.
    patterns = _hessian_core_patterns()
    assert any(_column_repeats(P) for _, P in patterns)
    rng = random.Random(13)
    for name, P in patterns:
        labels, occ, k = P.variables(), P.occurrences(), P.nrows
        full = lambda p: [[p - 1] * k for _ in range(k)]
        rand = lambda p: [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
        if k > 40:
            inputs = [(2**89 - 1, full), (PRIMES_62[3], rand)]
        else:
            inputs = [(p, X) for p in HESSIAN_PRIMES for X in (full, rand)]
        for p, make in inputs:
            X, det = make(p), rng.randrange(1, p)
            got = _hessian_core(X, det, occ, labels, PrimeField(p))
            assert got == _reference_hessian_core(X, det, occ, labels, p), (name, p)


def _zero_padded(labels, H, ambient, field):
    """H over ``labels`` placed inside the ambient Hessian: zero rows and
    columns for the ambient coordinates that are not labels."""
    idx = {g: i for i, g in enumerate(labels)}
    return [
        [
            H[idx[a]][idx[b]] if a in idx and b in idx else field.zero
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
    check = nondefective_hypersurface_check(params, trials=8, stop_at_nonzero=True)
    for seed in (0, 7, 123):
        full = full_from_essential(
            certify_hessian_pade(check, trials=2, seed=seed), params)
        assert full.degree_bound == len(ambient) * (P.nrows - 2)
        for t in full.trials:
            fld = PrimeField(t.prime)
            pt = random_point(P.variables(), fld, t.seed)
            assert point_hash(pt) == t.point_digest
            labels, H = hessian_det_at(P, pt, fld)
            h = eliminate(_zero_padded(labels, H, ambient, fld), fld)
            assert (t.value, t.corank) == (h.det, len(ambient) - h.rank)


def test_full_certificate_corank_matches_symbolic_poly_2112():
    P = pade_matrix(2, 1, 1, 2)
    f = expand_det_poly(P, monomials_upto(2, 2))
    poly = certify_hessian_poly(f, trials=5, seed=0)
    params = TaylorParams(2, 1, 1, 2)
    check = nondefective_hypersurface_check(params, trials=8, stop_at_nonzero=True)
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
    A = P.evaluate(pt, gf)
    assert eliminate(A, gf).det == 0
    with pytest.raises(DomainError, match="singular"):
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
        f_val = eliminate(P.evaluate(pt, gf), gf).det
        grad = grad_det_at(P, pt, gf)
        s = sum(pt[g] * v for g, v in grad.items()) % gf.p
        assert s == P.nrows * f_val % gf.p


def test_block_grad_sums_to_full_gradient(gf):
    P = pade_matrix(2, 5, 4, 7)
    pt = random_point(P.variables(), gf, 11)
    bg = block_grad_det_at(P, pt, gf)
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
        approx = (_float_det(P.evaluate(up, Rationals())) -
                  _float_det(P.evaluate(dn, Rationals()))) / (2 * h)
        assert approx == pytest.approx(float(exact), rel=1e-6, abs=1e-4)


def test_expand_det_poly_matches_brute_force(gf):
    rng = random.Random(11)
    P = _random_pattern(rng, max_size=4)
    labels = P.variables()
    f = expand_det_poly(P, labels)
    for _ in range(5):
        pt = {g: gf.sample(rng) for g in labels}
        direct = eliminate(P.evaluate(pt, gf), gf).det
        assert f.eval(gf, [pt[g] for g in labels]) == direct


def test_evaluate_missing_variable_raises(gf):
    P = pade_matrix(2, 1, 1, 2)
    with pytest.raises(UsageError):
        P.evaluate({}, gf)
