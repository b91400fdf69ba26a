"""Points of Grassmannians as canonical reduced-echelon bases.

Two subspaces are equal iff their rref bases coincide, so equality is exact
and needs no Pluecker comparison; the Pluecker vector is still available (its
first nonzero coordinate is 1, the minor on the pivot columns) as the
classical invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Sequence

from .errors import ShapeMismatch
from .linalg import RatMatrix

PLUECKER_SIZE_CAP = 20_000


@dataclass(frozen=True)
class GrassmannPoint:
    ambient_dim: int
    canonical_basis: RatMatrix

    def __post_init__(self):
        if self.canonical_basis.cols != self.ambient_dim:
            raise ShapeMismatch("basis vectors do not live in the declared ambient space")
        rows = self.canonical_basis.entries
        pivots = [next((j for j, x in enumerate(row) if x), None) for row in rows]
        echelon = None not in pivots and pivots == sorted(set(pivots))
        if not echelon or any(
            row[j] != (1 if i == k else 0) for k, j in enumerate(pivots) for i, row in enumerate(rows)
        ):
            raise ValueError("the basis is not in reduced row echelon form")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], ambient_dim: int) -> "GrassmannPoint":
        mat = RatMatrix.from_rows(rows, ambient_dim)
        if mat.cols != ambient_dim:
            raise ShapeMismatch("row length does not match ambient dimension")
        reduced, _ = mat.rref()
        return cls(ambient_dim, reduced)

    @property
    def subspace_dim(self) -> int:
        return self.canonical_basis.rows

    @cached_property
    def pluecker(self) -> tuple[Fraction, ...]:
        """Maximal minors of the canonical basis over lexicographic column subsets.

        The first nonzero one is the minor on the pivot columns, which is 1.
        """
        k = self.subspace_dim
        if comb(self.ambient_dim, k) > PLUECKER_SIZE_CAP:
            raise ShapeMismatch(
                f"Pluecker vector of length C({self.ambient_dim},{k}) exceeds the size cap"
            )
        return tuple(
            self.canonical_basis.submatrix(range(k), cols).det()
            for cols in combinations(range(self.ambient_dim), k)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GrassmannPoint)
            and self.ambient_dim == other.ambient_dim
            and self.canonical_basis == other.canonical_basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.canonical_basis.entries))
