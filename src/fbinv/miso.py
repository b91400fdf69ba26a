"""The concrete quotient for single-output systems.

A nondegenerate 1 x (m+1) system of degree n spans an (m+1)-dimensional
subspace of the degree-<=n polynomials; that subspace, a point of
Grass(m+1, n+1), is a complete invariant of the feedback orbit.
"""

from __future__ import annotations

from fractions import Fraction

from .arsys import ARSystem
from .errors import DegenerateSystem, DimensionMismatch
from .grassmann import GrassmannPoint
from .poly import dehomogenize


def coefficient_matrix(ar: ARSystem) -> list[list[Fraction]]:
    """One row per entry of a single-output system: its coefficients of s^0..s^n at t = 1."""
    rows = []
    for entry in ar.P.entries[0]:
        u = dehomogenize(entry)
        rows.append([u.coeff(a) for a in range(ar.n + 1)])
    return rows


def miso_invariant(ar: ARSystem) -> GrassmannPoint:
    """Canonical point of Grass(m+1, n+1) spanned by the entry coefficient vectors."""
    if ar.p != 1:
        raise DimensionMismatch("the concrete quotient is defined for single-output systems")
    point = GrassmannPoint.from_rows(coefficient_matrix(ar), ar.n + 1)
    if point.subspace_dim != ar.m + 1:
        raise DegenerateSystem(
            f"coefficient span has dimension {point.subspace_dim}, expected {ar.m + 1}"
        )
    return point


def miso_equivalent(ar1: ARSystem, ar2: ARSystem) -> bool:
    """Same feedback orbit invariant: identical canonical subspaces."""
    if ar1.p != 1 or ar2.p != 1:
        raise DimensionMismatch("both systems must be single-output")
    if ar1.m != ar2.m or ar1.n != ar2.n:
        raise DimensionMismatch("systems have different (m, n)")
    return miso_invariant(ar1) == miso_invariant(ar2)


def ambient_dimension_N(m: int, n: int) -> int:
    """Projective dimension of the space of 1 x (m+1) degree-n systems."""
    if m < 1 or n < 1:
        raise DimensionMismatch("m and n must be positive")
    return m * n + m + n
