"""The shared column-subset determinant against fraction-free elimination."""

import random

import pytest

from fbinv.errors import NotSquare
from fbinv.multipoly import MultiPoly, mp_det
from fbinv.poly import HomPoly, UniPoly, uni_mat_det
from fbinv.polymatrix import HomPolyMatrix, determinant
from oracles import bareiss_det

NAMES = ("x", "y", "z")


def random_multipoly(rng, variables):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        exps = tuple(rng.randint(0, 2) for _ in variables)
        terms[exps] = rng.choice([-3, -2, -1, 1, 2, 3])
    return MultiPoly(variables, terms)


def random_grid(rng, n, variables):
    grid = [[random_multipoly(rng, variables) for _ in range(n)] for _ in range(n)]
    shape = rng.choice(["plain", "zero_row", "repeated_row"]) if n >= 2 else "plain"
    if shape == "zero_row":
        grid[rng.randrange(n)] = [MultiPoly(variables) for _ in range(n)]
    elif shape == "repeated_row":
        i, j = rng.sample(range(n), 2)
        grid[j] = list(grid[i])
    return grid, shape


def test_mp_det_matches_bareiss_on_random_grids():
    rng = random.Random(2024)
    shapes = set()
    for n in range(5):
        for nvars in (1, 2, 3):
            variables = NAMES[:nvars]
            for _ in range(6):
                grid, shape = random_grid(rng, n, variables)
                shapes.add(shape)
                det = mp_det(grid, variables)
                assert det == bareiss_det([list(row) for row in grid], variables)
                if shape != "plain":
                    assert det.is_zero()
    assert shapes == {"plain", "zero_row", "repeated_row"}


def test_mp_det_of_empty_grid_is_one():
    assert mp_det([], NAMES) == MultiPoly.constant(NAMES, 1)


@pytest.mark.parametrize("grid", [[[1, 0]], [[1, 0], [0]], [[1], [0]]])
def test_non_square_grid_raises_through_every_wrapper(grid):
    with pytest.raises(NotSquare):
        mp_det([[MultiPoly.constant(NAMES, c) for c in row] for row in grid], NAMES)
    with pytest.raises(NotSquare):
        uni_mat_det([[UniPoly.constant(c) for c in row] for row in grid])
    if len({len(row) for row in grid}) == 1:
        with pytest.raises(NotSquare):
            determinant(HomPolyMatrix.from_rows([[HomPoly.constant(c) for c in row] for row in grid]))
