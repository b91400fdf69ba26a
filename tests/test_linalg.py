import random
from fractions import Fraction

import pytest

from fbinv.errors import ShapeMismatch, SingularMatrix
from fbinv.linalg import RatMatrix, block_matrix, frac, rref


def M(rows):
    return RatMatrix.from_rows(rows)


def test_frac_parsing():
    assert frac("3/4") == Fraction(3, 4)
    assert frac(-2) == Fraction(-2)
    assert frac(Fraction(1, 3)) == Fraction(1, 3)


def test_rref_diagonal():
    reduced, pivots = rref(M([[2, 0], [0, 4]]))
    assert reduced == RatMatrix.identity(2)
    assert pivots == (0, 1)


def test_rref_dependent_rows():
    reduced, pivots = rref(M([[1, 2], [2, 4]]))
    assert reduced == M([[1, 2]])
    assert pivots == (0,)


def test_rref_zero_matrix():
    reduced, pivots = rref(RatMatrix.zeros(3, 2))
    assert reduced.rows == 0 and pivots == ()


def test_rref_idempotent_random():
    rng = random.Random(11)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = M([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
        r1, p1 = m.rref()
        r2, p2 = r1.rref()
        assert r1 == r2 and p1 == p2


def test_inverse_and_det():
    m = M([[1, 2], [3, 5]])
    inv = m.inverse()
    assert m @ inv == RatMatrix.identity(2)
    assert m.det() == -1
    with pytest.raises(SingularMatrix):
        M([[1, 2], [2, 4]]).inverse()


def test_nullspace():
    m = M([[1, 2, 3]])
    ns = m.right_nullspace()
    assert ns.rows == 2
    for row in ns.entries:
        assert sum(a * b for a, b in zip(m.entries[0], row)) == 0
    assert M([[1, 0], [0, 1]]).right_nullspace().rows == 0


def test_matmul_and_stack():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert a @ b == M([[2, 1], [4, 3]])
    assert a.hstack(b).cols == 4
    assert a.vstack(b).rows == 4
    assert a.transpose() == M([[1, 3], [2, 4]])


def test_block_matrix_without_blocks_raises():
    with pytest.raises(ShapeMismatch):
        block_matrix([])
