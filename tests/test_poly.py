import random
import tracemalloc
from fractions import Fraction

import pytest

from fbinv.errors import DegreeExceeded, DegreeMismatch
from fbinv.poly import (
    HomPoly,
    UniPoly,
    dehomogenize,
    homogenize,
    uni_mat_det,
)
from oracles import uni_mat_adjugate, uni_mat_mul


def up(*coeffs):
    return UniPoly.from_coeffs(coeffs)


def test_homogenize_basic():
    # s^2 + 3 at target 2 -> s^2 + 3 t^2
    f = up(3, 0, 1)
    h = homogenize(f, 2)
    assert h.coeff(2, 0) == 1 and h.coeff(0, 2) == 3 and h.coeff(1, 1) == 0


def test_homogenize_constant_to_t():
    assert homogenize(up(1), 1) == HomPoly.monomial(1, 0, 1)


def test_homogenize_linear_to_cubic():
    # 2s - 5 at target 3 -> 2 s t^2 - 5 t^3
    h = homogenize(up(-5, 2), 3)
    assert h == HomPoly.from_terms(3, [(2, 1, 2), (-5, 0, 3)])


def test_homogenize_degree_exceeded():
    with pytest.raises(DegreeExceeded):
        homogenize(up(0, 0, 1), 1)


def test_dehomogenize_examples():
    h = HomPoly.from_terms(2, [(1, 2, 0), (3, 0, 2)])
    assert dehomogenize(h) == up(3, 0, 1)
    assert dehomogenize(HomPoly.monomial(1, 0, 3)) == up(1)
    assert dehomogenize(HomPoly.zero(2)).is_zero()


def test_round_trip_random():
    rng = random.Random(4)
    for _ in range(100):
        d = rng.randint(0, 6)
        f = UniPoly.from_coeffs([rng.randint(-9, 9) for _ in range(rng.randint(0, d + 1))])
        target = max(f.degree, 0) + rng.randint(0, 3)
        assert dehomogenize(homogenize(f, target)) == f


def test_eval_matches_the_term_sum():
    rng = random.Random(5)
    for _ in range(50):
        d = rng.randint(0, 6)
        h = HomPoly.from_coeffs(d, [rng.randint(-4, 4) for _ in range(d + 1)])
        s0, t0 = Fraction(rng.randint(-9, 9), rng.randint(1, 5)), Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        assert h.eval(s0, t0) == sum(c * s0 ** (d - j) * t0**j for j, c in enumerate(h.coeffs))


def test_eval_memory_does_not_grow_with_the_square_of_the_degree():
    zero = HomPoly.zero(10**4)
    tracemalloc.start()
    try:
        assert zero.eval(12345, 6789) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_eval_examples():
    assert HomPoly.monomial(1, 2, 1).eval(2, 1) == 4
    diff = HomPoly.from_terms(2, [(1, 2, 0), (-1, 0, 2)])
    assert diff.eval(1, 1) == 0
    assert HomPoly.monomial(1, 1, 1).eval(Fraction(1, 2), 4) == 2


def test_hompoly_add_degree_rules():
    s = HomPoly.monomial(1, 1, 0)
    with pytest.raises(DegreeMismatch):
        s + HomPoly.monomial(1, 2, 0)
    assert (HomPoly.zero(3) + s) == s
    assert (s + HomPoly.zero(5)) == s


def test_hompoly_mul():
    s = HomPoly.monomial(1, 1, 0)
    t = HomPoly.monomial(1, 0, 1)
    st = s * t
    assert st == HomPoly.monomial(1, 1, 1)
    assert (s + t) * (s - t) == HomPoly.from_terms(2, [(1, 2, 0), (-1, 0, 2)])


def test_unipoly_divmod_and_gcd():
    a = up(-1, 0, 1)  # s^2 - 1
    b = up(-1, 1)  # s - 1
    q, r = a.divmod(b)
    assert r.is_zero() and q == up(1, 1)
    assert a.gcd(b) == up(-1, 1)
    assert up(1).gcd(up(0, 1)).degree == 0


def test_uni_mat_helpers():
    s = up(0, 1)
    one = up(1)
    grid = [[s, one], [UniPoly.zero(), s]]
    assert uni_mat_det(grid) == up(0, 0, 1)
    adj = uni_mat_adjugate(grid)
    prod = uni_mat_mul(grid, adj)
    assert prod[0][0] == up(0, 0, 1) and prod[0][1].is_zero()
    assert prod[1][0].is_zero() and prod[1][1] == up(0, 0, 1)


def test_str_forms():
    h = HomPoly.from_terms(2, [(1, 2, 0), (-2, 1, 1), (1, 0, 2)])
    assert str(h) == "s^2 - 2*s*t + t^2"
    assert str(up(-1, 0, 2)) == "2*s^2 - 1"
