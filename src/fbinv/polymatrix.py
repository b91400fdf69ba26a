"""Matrices of homogeneous bivariate polynomials and their exact linear algebra."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import AllZero, BadSize, NotSquare, ShapeMismatch, ZeroPoint
from .linalg import RatMatrix, frac, subset_det
from .multipoly import MultiPoly, bareiss_det, bareiss_rank
from .poly import HomPoly, UniPoly, homogenize

_ST = ("s", "t")


@dataclass(frozen=True)
class HomPolyMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[HomPoly, ...], ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ShapeMismatch("matrix dimensions must be positive")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ShapeMismatch("entry grid does not match declared shape")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[HomPoly]]) -> "HomPolyMatrix":
        grid = tuple(tuple(row) for row in rows)
        return cls(len(grid), len(grid[0]) if grid else 0, grid)

    def at(self, i: int, j: int) -> HomPoly:
        return self.entries[i][j]

    def row(self, i: int) -> tuple[HomPoly, ...]:
        return self.entries[i]

    def transpose(self) -> "HomPolyMatrix":
        return HomPolyMatrix(self.cols, self.rows, tuple(zip(*self.entries)))

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "HomPolyMatrix":
        ri, ci = tuple(row_idx), tuple(col_idx)
        return HomPolyMatrix(len(ri), len(ci), tuple(tuple(self.entries[i][j] for j in ci) for i in ri))

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def mul_rat(self, mat: RatMatrix) -> "HomPolyMatrix":
        """Right-multiply by a constant rational matrix."""
        if self.cols != mat.rows:
            raise ShapeMismatch("inner dimensions differ")
        out = []
        for i in range(self.rows):
            new_row = []
            for j in range(mat.cols):
                acc = None
                for k in range(self.cols):
                    c = mat.entries[k][j]
                    if c == 0:
                        continue
                    term = self.entries[i][k].scale(c)
                    acc = term if acc is None else acc + term
                if acc is None or acc.is_zero():
                    acc = HomPoly.zero(self.row_degree_label(i))
                new_row.append(acc)
            out.append(tuple(new_row))
        return HomPolyMatrix(self.rows, mat.cols, tuple(out))

    def row_degree_label(self, i: int) -> int:
        """Formal degree of row i: the label of any nonzero entry, else the first entry's."""
        degs = [e.degree for e in self.entries[i] if not e.is_zero()]
        return degs[0] if degs else self.entries[i][0].degree

    def evaluate(self, s0, t0) -> RatMatrix:
        s0, t0 = frac(s0), frac(t0)
        return RatMatrix.from_rows([[e.eval(s0, t0) for e in row] for row in self.entries], self.cols)

    def to_multipoly_grid(self) -> list[list[MultiPoly]]:
        grid = []
        for row in self.entries:
            grid.append(
                [
                    MultiPoly(_ST, {(e.degree - j, j): c for j, c in enumerate(e.coeffs) if c != 0})
                    for e in row
                ]
            )
        return grid

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.entries) + "]"


def determinant(matrix: HomPolyMatrix) -> HomPoly:
    """Exact determinant by column-subset expansion.

    For a matrix with uniform per-row (or per-column) degrees the result is
    homogeneous of the summed degrees; a vanishing determinant keeps the
    summed row degrees as its formal label.
    """
    det = subset_det(matrix.entries, HomPoly.constant(1))
    if det is None:
        return HomPoly.zero(sum(matrix.row_degree_label(i) for i in range(matrix.rows)))
    return det


def elimination_determinant(matrix: HomPolyMatrix) -> HomPoly:
    """Determinant by fraction-free (Bareiss) elimination; independent of `determinant`."""
    if matrix.rows != matrix.cols:
        raise NotSquare("determinant of a non-square matrix")
    det = bareiss_det(matrix.to_multipoly_grid(), _ST)
    label = sum(matrix.row_degree_label(i) for i in range(matrix.rows))
    if det.is_zero():
        return HomPoly.zero(label)
    degs = {sum(e) for e in det.terms}
    if len(degs) != 1:
        raise NotSquare("determinant is not homogeneous")  # pragma: no cover
    d = degs.pop()
    out = [Fraction(0)] * (d + 1)
    for (a, b), c in det.terms.items():
        out[b] = c
    return HomPoly(d, tuple(out))


def maximal_minors(matrix: HomPolyMatrix, k: int) -> list[HomPoly]:
    """All k x k minors drawn from the first k rows, in lexicographic column order."""
    if k < 1 or k > min(matrix.rows, matrix.cols):
        raise BadSize(f"minor size {k} out of range for {matrix.rows}x{matrix.cols}")
    top = range(k)
    return [determinant(matrix.submatrix(top, cols)) for cols in combinations(range(matrix.cols), k)]


def rank_at_point(matrix: HomPolyMatrix, s0, t0) -> int:
    s0, t0 = frac(s0), frac(t0)
    if s0 == 0 and t0 == 0:
        raise ZeroPoint("evaluation at (0, 0) is not a projective point")
    return matrix.evaluate(s0, t0).rank()


def generic_rank(matrix: HomPolyMatrix, seed: int = 0) -> int:
    """Rank over the field of rational functions.

    A random integer evaluation gives a lower bound; full evaluated rank is a
    certificate, otherwise fall back to exact fraction-free elimination.
    """
    rng = random.Random(seed)
    s0, t0 = rng.randint(-10_000, 10_000), rng.randint(-10_000, 10_000)
    while s0 == 0 and t0 == 0:  # pragma: no cover - probability 1/(2*10^4+1)^2
        s0, t0 = rng.randint(-10_000, 10_000), rng.randint(-10_000, 10_000)
    bound = min(matrix.rows, matrix.cols)
    if rank_at_point(matrix, s0, t0) == bound:
        return bound
    return bareiss_rank(matrix.to_multipoly_grid(), _ST)


def poly_gcd_list(polys: Sequence[HomPoly]) -> HomPoly:
    """Monic gcd of homogeneous bivariate polynomials.

    Factors s^a t^b are split off exactly, so a degree-0 result certifies that
    the inputs have no common zero on the projective line.
    """
    nonzero = [f for f in polys if not f.is_zero()]
    if not nonzero:
        raise AllZero("gcd of all-zero family")
    s_val = min(f.s_valuation() for f in nonzero)
    t_val = min(f.t_valuation() for f in nonzero)
    core = UniPoly.zero()
    for f in nonzero:
        core = core.gcd(_core_unipoly(f))
        if core.degree == 0:
            break
    return homogenize(core, core.degree).shift(s_val, t_val)


def _core_unipoly(f: HomPoly) -> UniPoly:
    """Strip monomial factors and read the rest as a univariate polynomial."""
    jmin = f.t_valuation()
    jmax = f.degree - f.s_valuation()
    return UniPoly.from_coeffs([f.coeffs[jmax - a] for a in range(jmax - jmin + 1)])
