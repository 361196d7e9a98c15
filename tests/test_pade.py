import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taylorpade.detcalc import block_grad_det_at, eliminate
from taylorpade.errors import UsageError
from taylorpade.fields import random_point
import taylorpade.pade as pade_mod
from taylorpade.pade import (
    SymbolicMatrix,
    column_transform,
    export_m2,
    pade_matrix,
    pade_shape,
    random_lambda,
)
from taylorpade.series import monomials_of_degree, monomials_upto

from oracles import exp_sub, reverse_within_degree

# The 15x15 layout for (n,d,e,m) = (2,5,4,7) as displayed in the worked
# example, transcribed cell by cell ('.' = zero, 'ab' = c_(a,b)).  It is kept
# verbatim, including its one suspected typo; the comparison test records the
# mismatch set explicitly.
GOLDEN_15x15 = [
    "70 60 .  50 .  .  40 .  .  .  30 .  .  .  . ",
    "61 51 60 41 50 .  31 40 .  .  21 30 .  .  . ",
    "52 42 51 32 41 50 22 31 40 .  12 21 30 .  . ",
    "43 33 42 23 32 41 13 22 31 40 03 12 21 30 . ",
    "34 24 33 14 23 32 04 13 22 31 .  03 12 21 30",
    "25 15 23 05 14 23 .  04 13 22 .  .  03 12 21",
    "16 06 15 .  05 14 .  .  04 13 .  .  .  03 12",
    "07 .  06 .  .  05 .  .  .  04 .  .  .  .  03",
    "60 50 .  40 .  .  30 .  .  .  20 .  .  .  . ",
    "51 41 50 31 40 .  21 30 .  .  11 20 .  .  . ",
    "42 32 41 22 31 40 12 21 30 .  02 11 20 .  . ",
    "33 23 32 13 22 31 03 12 21 30 .  02 11 20 . ",
    "24 14 23 04 13 22 .  03 12 21 .  .  02 11 20",
    "15 05 14 .  04 13 .  .  03 12 .  .  .  02 11",
    "06 .  05 .  .  04 .  .  .  03 .  .  .  .  02",
]

# Positions where the displayed layout is suspected to be a typo: the entry
# law c_(rho - sigma) gives a different variable there.
GOLDEN_SUSPECTED_TYPOS = {(5, 2): ((2, 3), (2, 4))}  # (printed, law)


def _parse_golden():
    rows = []
    for line in GOLDEN_15x15:
        row = []
        for tok in line.split():
            row.append(None if tok == "." else (int(tok[0]), int(tok[1])))
        assert len(row) == 15
        rows.append(row)
    return rows


def test_pade_shape_examples():
    assert pade_shape(2, 5, 4, 7) == pade_shape(2, 5, 4, 7).__class__(15, 15)
    s = pade_shape(2, 5, 4, 7)
    assert (s.rows, s.cols, s.square) == (15, 15, True)
    s = pade_shape(3, 2, 2, 3)
    assert (s.rows, s.cols, s.square) == (10, 10, True)
    s = pade_shape(2, 1, 1, 2)
    assert (s.rows, s.cols, s.square) == (3, 3, True)
    assert not pade_shape(2, 1, 1, 3).square


def test_pade_shape_errors():
    with pytest.raises(UsageError):
        pade_shape(2, 5, 4, 5)
    with pytest.raises(UsageError):
        pade_shape(0, 1, 1, 2)


def test_golden_fixture_matches_entry_law():
    start = time.time()
    P = pade_matrix(2, 5, 4, 7)
    golden = _parse_golden()
    assert (P.nrows, P.ncols) == (15, 15)
    mismatches = {}
    for r in range(15):
        for c in range(15):
            if P.entries[r][c] != golden[r][c]:
                mismatches[(r, c)] = (golden[r][c], P.entries[r][c])
    assert mismatches == GOLDEN_SUSPECTED_TYPOS
    assert len(mismatches) <= 2
    # at the flagged position the builder follows the entry law
    (r, c), (_, law) = next(iter(GOLDEN_SUSPECTED_TYPOS.items()))
    assert P.entries[r][c] == exp_sub(P.row_labels[r], P.col_labels[c].sigma) == law
    assert time.time() - start < 1.0


def test_specific_entries():
    P = pade_matrix(2, 5, 4, 7)
    idx = {lab.sigma: i for i, lab in enumerate(P.col_labels)}
    rows = {g: i for i, g in enumerate(P.row_labels)}
    assert P.entries[rows[(7, 0)]][idx[(0, 0)]] == (7, 0)
    assert P.entries[rows[(6, 1)]][idx[(0, 4)]] is None  # sigma not <= rho
    assert P.entries[rows[(2, 5)]][idx[(0, 1)]] == (2, 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 5), st.integers(0, 9), st.integers(1, 4))
@example(n=2, d=1, e=6, dm=2)  # e > m, and c_0 is an entry (e >= d+1)
@example(n=3, d=0, e=3, dm=1)  # e > m = 1
@example(n=1, d=2, e=9, dm=4)  # e > m, one variable
@example(n=4, d=1, e=2, dm=2)  # e = d+1: c_0 on the lowest rows only
def test_entry_law_exhaustive(n, d, e, dm):
    m = d + dm
    shape = pade_shape(n, d, e, m)
    if shape.rows * shape.cols > 2000:
        return
    P = pade_matrix(n, d, e, m)
    assert (P.nrows, P.ncols) == (shape.rows, shape.cols)
    row_set = {g for k in range(d + 1, m + 1) for g in monomials_of_degree(n, k)}
    assert set(P.row_labels) == row_set
    assert {lab.sigma for lab in P.col_labels} == set(monomials_upto(n, e))
    assert ((0,) * n in P.variables()) == (e >= d + 1)
    first = {}  # variable -> its first occurrence, which every other one is
    for r, rho in enumerate(P.row_labels):
        for c, lab in enumerate(P.col_labels):
            want = exp_sub(rho, lab.sigma)
            assert P.entries[r][c] == want
            if want is not None:
                assert sum(want) == sum(rho) - sum(lab.sigma)
                assert first.setdefault(want, P.entries[r][c]) is P.entries[r][c]


def test_occurrence_positions_match_direct_enumeration():
    P = pade_matrix(2, 5, 4, 7)
    rows = {g: i for i, g in enumerate(P.row_labels)}
    cols = {lab.sigma: i for i, lab in enumerate(P.col_labels)}
    occ = P.occurrences()
    for g in P.variables():
        expected = set()
        for sigma in monomials_upto(2, 4):
            rho = tuple(x + y for x, y in zip(g, sigma))
            if 6 <= sum(rho) <= 7:
                expected.add((rows[rho], cols[sigma]))
        assert set(occ[g]) == expected


def test_block_view_widths():
    P = pade_matrix(2, 5, 4, 7)
    widths = {j: len(P.block_columns(j)) for j in (7, 6, 5, 4, 3)}
    assert widths == {7: 1, 6: 2, 5: 3, 4: 4, 3: 5}
    assert sum(widths.values()) == P.ncols
    cols = P.block_columns(5)
    for g in (row[c] for row in P.entries for c in cols if row[c] is not None):
        assert sum(g) in (4, 5)
    with pytest.raises(UsageError):
        P.block_columns(2)
    with pytest.raises(UsageError):
        P.block_columns(8)
    with pytest.raises(UsageError, match="no column block structure"):
        SymbolicMatrix([[None]]).block_columns(0)


def test_squareness_condition_for_d_plus_2_family():
    for d in range(0, 13):
        for e in range(0, min(d, 12) + 1):
            square = pade_shape(2, d, e, d + 2).square
            assert square == ((e + 1) * (e + 2) // 2 == 2 * d + 5)


def test_column_transform_zero_lambda_is_identity(gf):
    P = pade_matrix(2, 5, 4, 7)
    point = random_point(P.variables(), gf, 5)
    lam = random_lambda(P, gf, 0)
    zero_lam = {j: {a: gf.zero for a in comps} for j, comps in lam.items()}
    assert column_transform(P, zero_lam, point, gf) == P.evaluate(point)


def test_column_transform_det_invariance(gf):
    P = pade_matrix(2, 5, 4, 7)
    for t in range(20):
        point = random_point(P.variables(), gf, 1000 + t)
        lam = random_lambda(P, gf, 2000 + t)
        before = eliminate(P.evaluate(point), gf).det
        after = eliminate(column_transform(P, lam, point, gf), gf).det
        assert before == after


def test_column_transform_block6_column1_formula(gf):
    # new C_6^1 = C_6^1 + l_30 C_3^1 + l_21 C_3^2 + l_12 C_3^3 + l_03 C_3^4
    P = pade_matrix(2, 5, 4, 7)
    point = random_point(P.variables(), gf, 77)
    lam = random_lambda(P, gf, 88)
    A = P.evaluate(point)
    T = column_transform(P, lam, point, gf)
    c6 = P.block_columns(6)
    c3 = P.block_columns(3)
    order6 = [(3, 0), (2, 1), (1, 2), (0, 3)]
    for r in range(15):
        want = A[r][c6[0]]
        for t, alpha in enumerate(order6):
            want = (want + lam[6][alpha] * A[r][c3[t]]) % gf.p
        assert T[r][c6[0]] == want


def test_column_transform_rejects_bad_lambda(gf):
    P = pade_matrix(2, 5, 4, 7)
    point = random_point(P.variables(), gf, 5)
    lam = random_lambda(P, gf, 0)
    del lam[7]
    with pytest.raises(UsageError):
        column_transform(P, lam, point, gf)
    lam = random_lambda(P, gf, 0)
    lam[6].pop((3, 0))
    with pytest.raises(UsageError):
        column_transform(P, lam, point, gf)


# A square matrix built without pade_matrix: no labels, no parameters.
_UNLABELLED = SymbolicMatrix([[(1, 0), None], [None, (0, 1)]])


@pytest.mark.parametrize("call, message", [
    (lambda gf: SymbolicMatrix([[None, (1, 0)], [None]]), "ragged entry grid"),
    (lambda gf: column_transform(pade_matrix(2, 1, 1, 3), {}, {}, gf),
     "expects a square Pade matrix"),
    (lambda gf: column_transform(_UNLABELLED, {}, {}, gf), "needs a matrix built by pade_matrix"),
    (lambda gf: export_m2(_UNLABELLED), "export needs a matrix built by pade_matrix"),
    (lambda gf: block_grad_det_at(_UNLABELLED, None, gf), "needs a matrix with column blocks"),
], ids=["ragged", "transform-rectangular", "transform-unlabelled", "export-unlabelled",
        "block-grad-unlabelled"])
def test_matrix_without_the_pade_structure_is_refused(call, message, gf):
    with pytest.raises(UsageError, match=message):
        call(gf)


def test_pade_matrix_refuses_a_shape_above_the_cell_ceiling(monkeypatch):
    # P at e = 21, the survey's largest square case timed, is built at the
    # real ceiling; (2,5,4,7), 225 cells, is built just under a lowered one
    # and refused just over it, before any entry is built.
    assert pade_shape(2, 124, 21, 126) == (253, 253)
    assert 253 * 253 < pade_mod.MAX_CELLS
    want = pade_matrix(2, 5, 4, 7).entries
    monkeypatch.setattr(pade_mod, "MAX_CELLS", 225)
    assert pade_matrix(2, 5, 4, 7).entries == want
    monkeypatch.setattr(pade_mod, "MAX_CELLS", 224)
    monkeypatch.setattr(pade_mod, "monomials_of_degree", None)  # building would fail
    with pytest.raises(UsageError) as refused:
        pade_matrix(2, 5, 4, 7)
    assert str(refused.value) == ("the Pade matrix of (2, 5, 4, 7) has 225 cells, "
                                  "more than the 224 this package builds")


def test_export_m2_variable_counts():
    script = export_m2(pade_matrix(2, 5, 4, 7))
    l_line = next(line for line in script.splitlines() if line.startswith("L = "))
    assert l_line.count("(") == 36
    assert "P = matrix {" in script
    assert "c_(7,0)" in script
    script2 = export_m2(pade_matrix(2, 1, 1, 2))
    l2 = next(line for line in script2.splitlines() if line.startswith("L = "))
    assert l2.count("(") == 6
    # one variable: each exponent is printed bare, not as a sequence
    assert "L = {0, 1, 2, 3, 4};" in export_m2(pade_matrix(1, 2, 1, 4)).splitlines()


def test_export_m2_checks_det_when_square_and_rank_otherwise():
    assert export_m2(pade_matrix(2, 5, 4, 7)).endswith("print det sub(P, vals);\n")
    assert export_m2(pade_matrix(2, 1, 1, 3)).endswith("print rank sub(P, vals);\n")


def test_export_m2_idempotent():
    P = pade_matrix(2, 5, 4, 7)
    assert export_m2(P) == export_m2(P)
    assert export_m2(reverse_within_degree(P)) != export_m2(P)


def test_order_variant_preserves_determinant_up_to_sign(gf):
    P = pade_matrix(2, 5, 4, 7)
    Q = reverse_within_degree(P)
    point = random_point(P.variables(), gf, 31)
    d1 = eliminate(P.evaluate(point), gf).det
    d2 = eliminate(Q.evaluate(point), gf).det
    assert d1 == d2 or d1 == gf.sub(gf.zero, d2)
