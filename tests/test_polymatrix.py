import random
from itertools import combinations

import pytest

from fbinv.errors import AllZero, BadSize, NotHomogeneous, NotSquare, ZeroPoint
from fbinv.linalg import RatMatrix
from fbinv.poly import HomPoly
from fbinv.polymatrix import (
    HomPolyMatrix,
    determinant,
    generic_rank,
    maximal_minors,
    poly_gcd_list,
    rank_at_point,
)
from oracles import elimination_determinant, elimination_rank

S = HomPoly.monomial(1, 1, 0)
T = HomPoly.monomial(1, 0, 1)
S2 = HomPoly.monomial(1, 2, 0)
ST = HomPoly.monomial(1, 1, 1)
T2 = HomPoly.monomial(1, 0, 2)


def hp(degree, terms):
    return HomPoly.from_terms(degree, terms)


def degenerate_stable_P():
    """The 2x5 degree-(2,2) matrix used as the running worked example."""
    row1 = [S2, ST, T2, S2, hp(2, [(1, 2, 0), (1, 0, 2)])]
    row2 = [ST, T2, S2, hp(2, [(1, 2, 0), (2, 0, 2)]), hp(2, [(1, 2, 0), (-1, 0, 2)])]
    return HomPolyMatrix.from_rows([row1, row2])


def random_hom_matrix(rng, rows, cols, degrees=None):
    grid = []
    for i in range(rows):
        d = degrees[i] if degrees else rng.randint(0, 3)
        grid.append([
            HomPoly.from_coeffs(d, [rng.randint(-4, 4) for _ in range(d + 1)])
            for _ in range(cols)
        ])
    return HomPolyMatrix.from_rows(grid)


def test_determinant_examples():
    assert determinant(HomPolyMatrix.from_rows([[S, T], [T, S]])) == hp(2, [(1, 2, 0), (-1, 0, 2)])
    # columns 1-2 of the worked example have proportional rows
    assert determinant(HomPolyMatrix.from_rows([[S2, ST], [ST, T2]])).is_zero()
    assert determinant(HomPolyMatrix.from_rows([[HomPoly.constant(1)]])) == HomPoly.constant(1)


def test_determinant_not_square():
    with pytest.raises(NotSquare):
        determinant(HomPolyMatrix.from_rows([[S, T]]))


def test_determinant_equal_rows_is_zero():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 4)
        m = random_hom_matrix(rng, n, n, degrees=[2] * n)
        rows = list(m.entries)
        rows[-1] = rows[0]
        assert determinant(HomPolyMatrix.from_rows(rows)).is_zero()


def test_determinant_matches_elimination():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(1, 4)
        degrees = [rng.randint(0, 3) for _ in range(n)]
        m = random_hom_matrix(rng, n, n, degrees=degrees)
        a = determinant(m)
        b = elimination_determinant(m)
        assert (a - b).is_zero()


def test_maximal_minors_row_vector():
    assert maximal_minors(HomPolyMatrix.from_rows([[S, T]]), 1) == [S, T]


def test_maximal_minors_worked_example():
    P = degenerate_stable_P()
    minors = maximal_minors(P, 2)
    subsets = list(combinations(range(5), 2))
    assert minors[subsets.index((0, 1))].is_zero()
    assert minors[subsets.index((0, 2))] == hp(4, [(1, 4, 0), (-1, 1, 3)])


def test_maximal_minors_bad_size():
    with pytest.raises(BadSize):
        maximal_minors(HomPolyMatrix.from_rows([[S, T]]), 2)


def test_generic_rank_examples():
    m = HomPolyMatrix.from_rows([[S, T], [S.scale(2), T.scale(2)]])
    assert generic_rank(m) == 1
    assert generic_rank(degenerate_stable_P()) == 2
    zero = HomPolyMatrix.from_rows([
        [HomPoly.zero(1), HomPoly.zero(1), HomPoly.zero(1)],
        [HomPoly.zero(1), HomPoly.zero(1), HomPoly.zero(1)],
    ])
    assert generic_rank(zero) == 0


def test_generic_rank_looks_past_the_zeros_of_the_minors():
    # det = (s - t)(s - 2t) vanishes at (1 : 1) and (2 : 1); D = 2, so (3 : 1) decides
    m = HomPolyMatrix.from_rows([[hp(1, [(1, 1, 0), (-1, 0, 1)]), HomPoly.zero(1)],
                                 [HomPoly.zero(1), hp(1, [(1, 1, 0), (-2, 0, 1)])]])
    assert rank_at_point(m, 1, 1) == rank_at_point(m, 2, 1) == 1
    assert generic_rank(m) == 2


def test_generic_rank_matches_fraction_free_elimination():
    rng = random.Random(400)
    deficient = 0
    for _ in range(400):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        if rng.random() < 0.3:
            # A(s, t) B with a constant B of fewer rows than min(rows, cols)
            inner = rng.randint(1, max(1, min(rows, cols) - 1))
            B = RatMatrix.from_rows([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(inner)])
            m = random_hom_matrix(rng, rows, inner).mul_rat(B)
        else:
            m = random_hom_matrix(rng, rows, cols)
        expected = elimination_rank(m)
        deficient += expected < min(rows, cols)
        assert generic_rank(m) == expected, str(m)
    assert deficient >= 60


def test_generic_rank_rejects_a_row_of_mixed_degrees():
    with pytest.raises(NotHomogeneous):
        generic_rank(HomPolyMatrix.from_rows([[S, T], [S2, T]]))


def test_zero_row_adds_nothing_to_the_degree_bound(monkeypatch):
    evaluations = []
    evaluate = HomPolyMatrix.evaluate

    def counted(self, s0, t0):
        evaluations.append((s0, t0))
        return evaluate(self, s0, t0)

    monkeypatch.setattr(HomPolyMatrix, "evaluate", counted)
    big = HomPoly.zero(10**4)
    m = HomPolyMatrix.from_rows([[S, T, S], [big, big, big]])
    # D = 1 from the nonzero row alone: two points, rank 1 at both
    assert generic_rank(m) == 1
    assert evaluations == [(1, 1), (2, 1)]


def test_rank_at_point_examples():
    assert rank_at_point(HomPolyMatrix.from_rows([[S, T]]), 0, 1) == 1
    assert rank_at_point(HomPolyMatrix.from_rows([[S2, ST], [ST, T2]]), 1, 1) == 1
    assert rank_at_point(HomPolyMatrix.from_rows([[S, T], [T, S]]), 1, 1) == 1
    with pytest.raises(ZeroPoint):
        rank_at_point(HomPolyMatrix.from_rows([[S, T]]), 0, 0)


def test_rank_at_point_bounded_by_generic_rank():
    rng = random.Random(99)
    equal = 0
    total = 100
    for _ in range(total):
        m = random_hom_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
        z = (rng.randint(-30, 30), rng.randint(-30, 30))
        if z == (0, 0):
            z = (1, 1)
        rng.randint(0, 10**6)  # spare draw, kept so the sampled matrices stay fixed
        g = generic_rank(m)
        r = rank_at_point(m, *z)
        assert r <= g
        if r == g:
            equal += 1
    assert equal >= 95


def test_poly_gcd_list_examples():
    assert poly_gcd_list([S2, ST]) == S
    assert poly_gcd_list([S, T]) == HomPoly.constant(1)
    s2_t2 = hp(2, [(1, 2, 0), (-1, 0, 2)])
    s_t = hp(1, [(1, 1, 0), (-1, 0, 1)])
    assert poly_gcd_list([s2_t2, s_t]) == s_t
    with pytest.raises(AllZero):
        poly_gcd_list([HomPoly.zero(2), HomPoly.zero(0)])


def test_poly_gcd_divides_inputs():
    from fbinv.poly import dehomogenize

    rng = random.Random(3)
    for _ in range(40):
        fs = []
        for _ in range(3):
            d = rng.randint(0, 3)
            fs.append(HomPoly.from_coeffs(d, [rng.randint(-3, 3) for _ in range(d + 1)]))
        if all(f.is_zero() for f in fs):
            continue
        g = poly_gcd_list(fs)
        for f in fs:
            if f.is_zero():
                continue
            _, rem = dehomogenize(f).divmod(dehomogenize(g))
            assert rem.is_zero()
            assert g.t_valuation() <= f.t_valuation()
            assert g.s_valuation() <= f.s_valuation()
