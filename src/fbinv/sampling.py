"""Seeded random generators for systems and transformations.

Every function takes a `random.Random` so suites are reproducible; nothing
here touches global RNG state.
"""

from __future__ import annotations

import random
from typing import Sequence

from .arsys import ARSystem, validate
from .errors import RankDeficient
from .linalg import RatMatrix
from .poly import HomPoly
from .polymatrix import HomPolyMatrix


def random_rat_matrix(rng: random.Random, rows: int, cols: int, lo: int = -5, hi: int = 5) -> RatMatrix:
    return RatMatrix.from_rows([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def random_invertible(rng: random.Random, n: int, lo: int = -5, hi: int = 5) -> RatMatrix:
    while True:
        m = random_rat_matrix(rng, n, n, lo, hi)
        if m.is_invertible():
            return m


def random_hom_poly(rng: random.Random, degree: int, lo: int = -5, hi: int = 5) -> HomPoly:
    return HomPoly.from_coeffs(degree, [rng.randint(lo, hi) for _ in range(degree + 1)])


def random_composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Random nonnegative integer composition of `total` into `parts` parts."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def random_ar_system(
    rng: random.Random,
    m: int,
    p: int,
    n: int,
    lo: int = -5,
    hi: int = 5,
    row_degrees: Sequence[int] | None = None,
) -> ARSystem:
    """A random valid (full generic row rank) system of McMillan degree n."""
    while True:
        degrees = list(row_degrees) if row_degrees is not None else random_composition(rng, n, p)
        grid = [[random_hom_poly(rng, d, lo, hi) for _ in range(m + p)] for d in degrees]
        try:
            return validate(HomPolyMatrix.from_rows(grid), degrees, m, p)
        except RankDeficient:
            continue


def random_state_space(
    rng: random.Random,
    n: int,
    m: int,
    p: int,
    lo: int = -3,
    hi: int = 3,
    strictly_proper: bool = True,
    observable: bool = False,
    controllable: bool = False,
):
    from .realization import StateSpace

    while True:
        ss = StateSpace(
            A=random_rat_matrix(rng, n, n, lo, hi),
            B=random_rat_matrix(rng, n, m, lo, hi),
            C=random_rat_matrix(rng, p, n, lo, hi),
            D=RatMatrix.zeros(p, m) if strictly_proper else random_rat_matrix(rng, p, m, lo, hi),
        )
        if observable and not ss.is_observable():
            continue
        if controllable and not ss.is_controllable():
            continue
        return ss


def random_feedback_transform(rng: random.Random, n: int, m: int, p: int, lo: int = -3, hi: int = 3):
    from .realization import FeedbackTransform

    return FeedbackTransform(
        S=random_invertible(rng, n, lo, hi),
        T1=random_invertible(rng, m, lo, hi),
        T2=random_invertible(rng, p, lo, hi),
        F=random_rat_matrix(rng, m, p, lo, hi),
    )
