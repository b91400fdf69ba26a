"""Matrices of homogeneous bivariate polynomials and their exact linear algebra."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import AllZero, BadSize, NotHomogeneous, ShapeMismatch, ZeroPoint
from .linalg import RatMatrix, frac, subset_det, subset_minors
from .poly import HomPoly, UniPoly, homogenize


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

    def transpose(self) -> "HomPolyMatrix":
        return HomPolyMatrix(self.cols, self.rows, tuple(zip(*self.entries)))

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "HomPolyMatrix":
        ri, ci = tuple(row_idx), tuple(col_idx)
        return HomPolyMatrix(len(ri), len(ci), tuple(tuple(self.entries[i][j] for j in ci) for i in ri))

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
        return _degree_label(self.entries[i])

    def evaluate(self, s0, t0) -> RatMatrix:
        s0, t0 = frac(s0), frac(t0)
        return RatMatrix.from_rows([[e.eval(s0, t0) for e in row] for row in self.entries], self.cols)

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.entries) + "]"


def _degree_label(row: Sequence[HomPoly]) -> int:
    """Formal degree of a row: the label of any nonzero entry, else the first entry's."""
    return next((e.degree for e in row if not e.is_zero()), row[0].degree)


def determinant(matrix: HomPolyMatrix) -> HomPoly:
    """Exact determinant by column-subset expansion.

    For a matrix with uniform per-row (or per-column) degrees the result is
    homogeneous of the summed degrees; a vanishing determinant keeps the
    summed row degrees as its formal label.
    """
    det = subset_det(matrix.entries, HomPoly.constant(1))
    if det is None:
        return HomPoly.zero(sum(map(_degree_label, matrix.entries)))
    return det


def maximal_minors(matrix: HomPolyMatrix, k: int) -> list[HomPoly]:
    """All k x k minors drawn from the first k rows, in lexicographic column order.

    A vanishing minor is labelled, as by `determinant`, with the summed
    degree labels of its rows restricted to its columns.
    """
    if k < 1 or k > min(matrix.rows, matrix.cols):
        raise BadSize(f"minor size {k} out of range for {matrix.rows}x{matrix.cols}")
    top = matrix.entries[:k]
    found = subset_minors(top, HomPoly.constant(1))
    return [
        found[cols] if cols in found else HomPoly.zero(sum(_degree_label([row[j] for j in cols]) for row in top))
        for cols in combinations(range(matrix.cols), k)
    ]


def rank_at_point(matrix: HomPolyMatrix, s0, t0) -> int:
    s0, t0 = frac(s0), frac(t0)
    if s0 == 0 and t0 == 0:
        raise ZeroPoint("evaluation at (0, 0) is not a projective point")
    return matrix.evaluate(s0, t0).rank()


def generic_rank(matrix: HomPolyMatrix) -> int:
    """Rank over the field of rational functions k(s, t), exactly.

    Each row must be homogeneous of one degree (zero entries are wildcards).
    Every minor of size up to r = min(rows, cols) is then a binary form of
    degree at most D, the sum of the r largest degrees among the nonzero rows.
    A nonzero binary form of degree at most D vanishes at no more than D
    points of the projective line, so the largest rank at the D + 1 points
    (k : 1), k = 1..D+1, is the generic rank.
    """
    degrees = []
    for row in matrix.entries:
        row_degrees = {e.degree for e in row if not e.is_zero()}
        if len(row_degrees) > 1:
            raise NotHomogeneous(f"row mixes degrees {sorted(row_degrees)}")
        degrees.extend(row_degrees)
    bound = min(matrix.rows, matrix.cols)
    D = sum(sorted(degrees, reverse=True)[:bound])
    best = 0
    for k in range(1, D + 2):
        best = max(best, rank_at_point(matrix, k, 1))
        if best == bound:
            break
    return best


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
