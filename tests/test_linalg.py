import math
import random
from fractions import Fraction

import pytest

from fbinv.errors import ShapeMismatch, SingularMatrix
from fbinv.linalg import RatMatrix, block_matrix, frac, integer_rref, rref
from oracles import det


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
    assert det(m) == -1
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


def test_integer_rref_matches_rref():
    """Same row space basis as the Fraction rref, with cofactors that rebuild each row."""
    rng = random.Random(23)
    for _ in range(200):
        cols = rng.randint(1, 7)
        rows = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(cols)] for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:  # a dependent row
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
        sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
        reduced = integer_rref(sparse)
        expected, pivots = M(rows).rref()
        assert tuple(min(row) for row, _ in reduced) == pivots
        for (row, cof), want in zip(reduced, expected.entries):
            assert row[min(row)] > 0
            assert math.gcd(*row.values(), *cof.values()) == 1
            assert [Fraction(row.get(c, 0), row[min(row)]) for c in range(cols)] == list(want)
            assert all(sum(k * sparse[i].get(c, 0) for i, k in cof.items()) == row.get(c, 0) for c in range(cols))


def test_integer_rref_stops_at_the_stop_column():
    rows = [{0: 2, 2: 4}, {0: 1, 1: 3}, {1: 6, 2: 2}, {0: 5}]
    reduced = integer_rref(rows, stop=2)
    assert len(reduced) == 1
    row, cof = reduced[0]
    assert set(row) == {2}
    assert all(sum(k * rows[i].get(c, 0) for i, k in cof.items()) == row.get(c, 0) for c in range(3))
    assert 3 not in cof  # the last row was never needed
    assert [min(r) for r, _ in integer_rref(rows)] == [0, 1, 2]
