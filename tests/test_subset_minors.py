"""The one column-subset expansion against determinants taken subset by subset.

`linalg.subset_minors` returns every nonzero k x k minor of a k x N grid from
one shared expansion; `maximal_minors` and the chart builder read their
minors from it.  The references below eliminate each square sub-grid on its
own, by fraction-free elimination, and never call the routine under test.
"""

import random
from fractions import Fraction
from itertools import combinations

from fbinv import stability
from fbinv.arsys import compute_Q, is_observable
from fbinv.linalg import RatMatrix, subset_minors
from fbinv.multipoly import MultiPoly
from fbinv.pencil import from_state_space
from fbinv.poly import HomPoly, UniPoly
from fbinv.polymatrix import HomPolyMatrix, maximal_minors
from fbinv.realization import StateSpace
from fbinv.reference import reference_system
from fbinv.sampling import random_ar_system, random_state_space
from oracles import (
    bareiss_det,
    elimination_determinant,
    per_subset_degeneracy_combination,
    per_subset_rank_combination,
)

NAMES = ("x", "y")
SHAPES = ("plain", "zero_row", "all_zero")


def _shape_grid(rng, grid, zero, shape):
    if shape == "zero_row" and grid:
        grid[rng.randrange(len(grid))] = [zero] * len(grid[0])
    elif shape == "all_zero":
        grid = [[zero] * len(row) for row in grid]
    return grid


def _assert_minors(found, k, width, reference, one):
    """`found` holds exactly the nonzero minors, each equal to the reference determinant."""
    if k == 0:
        assert found == {(): one}
        return
    expected = {}
    for J in combinations(range(width), k):
        det = reference(J)
        if not det.is_zero():
            expected[J] = det
    assert found == expected


def _grids(rng, random_entry, zero):
    """(k, N, grid) for every 0 <= k <= N <= 5, in each shape."""
    for width in range(6):
        for k in range(width + 1):
            for shape in SHAPES:
                grid = [[random_entry() for _ in range(width)] for _ in range(k)]
                yield k, width, _shape_grid(rng, grid, zero, shape)


def test_multipoly_minors_match_bareiss():
    rng = random.Random(31)

    def entry():
        terms = {tuple(rng.randint(0, 2) for _ in NAMES): rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(0, 2))}
        return MultiPoly(NAMES, terms)

    one = MultiPoly.constant(NAMES, 1)
    for k, width, grid in _grids(rng, entry, MultiPoly(NAMES)):
        found = subset_minors(grid, one)
        _assert_minors(found, k, width, lambda J: bareiss_det([[row[j] for j in J] for row in grid], NAMES), one)


def test_unipoly_minors_match_bareiss():
    rng = random.Random(32)

    def as_multi(f):
        return MultiPoly(("x",), {(a,): c for a, c in enumerate(f.coeffs) if c})

    def entry():
        return UniPoly.from_coeffs([rng.randint(-2, 2) for _ in range(rng.randint(0, 3))])

    one = UniPoly.constant(1)
    for k, width, grid in _grids(rng, entry, UniPoly.zero()):
        found = subset_minors(grid, one)
        converted = {J: as_multi(f) for J, f in found.items()}
        multi = [[as_multi(f) for f in row] for row in grid]
        _assert_minors(
            converted,
            k,
            width,
            lambda J: bareiss_det([[row[j] for j in J] for row in multi], ("x",)),
            MultiPoly.constant(("x",), 1),
        )


def test_hompoly_minors_match_elimination():
    """Row-homogeneous grids, as Q and P are, and column-homogeneous ones, as pencils are."""
    rng = random.Random(33)
    one = HomPoly.constant(1)
    for by_rows in (True, False):
        for width in range(6):
            col_degrees = [rng.randint(0, 2) for _ in range(width)]
            for k in range(width + 1):
                for shape in SHAPES:
                    row_degrees = [rng.randint(0, 2) for _ in range(k)]
                    grid = [
                        [
                            HomPoly.from_coeffs(d, [rng.randint(-2, 2) for _ in range(d + 1)])
                            for d in ([row_degrees[i]] * width if by_rows else col_degrees)
                        ]
                        for i in range(k)
                    ]
                    grid = _shape_grid(rng, grid, HomPoly.zero(0), shape)
                    _assert_minors(
                        subset_minors(grid, one),
                        k,
                        width,
                        lambda J: elimination_determinant(HomPolyMatrix.from_rows([[r[j] for j in J] for r in grid])),
                        one,
                    )


def _ar_systems():
    yield reference_system()
    for (m, p, degrees), seed in zip(
        ((2, 2, (2, 2)), (3, 2, (1, 3)), (2, 3, (1, 1, 2)), (2, 3, (0, 1, 3)), (3, 2, (2, 3))), range(5)
    ):
        yield random_ar_system(random.Random(seed), m, p, sum(degrees), row_degrees=degrees)


def _per_subset_minors(matrix, k):
    return [elimination_determinant(matrix.submatrix(range(k), cols)) for cols in combinations(range(matrix.cols), k)]


def test_maximal_minors_match_per_subset_elimination_with_zero_labels():
    matrices = []
    for ar in _ar_systems():
        matrices += [(ar.P, ar.p), (compute_Q(ar).Q, ar.m)]
    for seed, (n, m, p) in enumerate(((2, 1, 1), (3, 2, 1), (2, 1, 2), (3, 2, 2))):
        ss = random_state_space(random.Random(seed), n, m, p)
        # with B = 0 many minors vanish, on columns that differ in degree
        for system in (ss, StateSpace(ss.A, RatMatrix.zeros(n, m), ss.C, ss.D)):
            ps = from_state_space(system)
            matrices.append((ps.augmented_pencil(), ps.n + ps.p))
    zero_labels = set()
    for matrix, k in matrices:
        minors = maximal_minors(matrix, k)
        assert minors == _per_subset_minors(matrix, k), matrix
        zero_labels |= {(k, f.degree) for f in minors if f.is_zero()}
    # pencil rows mix degree-1 and constant entries, so a vanishing minor's label
    # depends on its columns
    assert any((k, d) in zero_labels and (k, d + 1) in zero_labels for k, d in zero_labels)


def _non_observable_systems():
    rng = random.Random(15)
    found = []
    while len(found) < 4:
        ar = random_ar_system(rng, 2, 2, 4, lo=-1, hi=1)
        if not is_observable(ar):
            found.append(ar)
    return found


def test_minor_combinations_match_per_subset_construction_as_integers():
    for ar in list(_ar_systems()) + _non_observable_systems():
        assert stability._stacked_combination(ar, ar.m) == per_subset_degeneracy_combination(ar), ar.P


def _unit_pivot_rows(combination):
    """The reduced rows keyed by column subset, each divided by its pivot: the rational rref."""
    return [{combination.subsets[k]: Fraction(c, row[0][1]) for k, c in row} for row in combination.rows]


def test_stacked_combinations_reduce_to_the_rank_combinations_of_q():
    """rank [P; H] = rank Q H^T + p, so the two (r+1)-size combinations have one rref."""
    for ar in list(_ar_systems()) + _non_observable_systems():
        Q = compute_Q(ar).Q
        for r in range(ar.m):
            stacked = stability._stacked_combination(ar, r + 1)
            assert _unit_pivot_rows(stacked) == _unit_pivot_rows(per_subset_rank_combination(Q, r)), (ar.P, r)
