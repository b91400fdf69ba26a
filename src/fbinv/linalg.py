"""Exact rational matrices and the linear algebra the rest of the package sits on.

Everything here is over `fractions.Fraction`, so there are no tolerances
anywhere: ranks, echelon forms and inverses are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import NotSquare, ShapeMismatch, SingularMatrix

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value) -> Fraction:
    """Coerce ints, strings like ``"3/4"`` and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


@dataclass(frozen=True)
class RatMatrix:
    """Immutable matrix of Fractions.  Zero-row matrices are allowed (rref output)."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeMismatch("negative dimensions")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ShapeMismatch("entry grid does not match declared shape")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "RatMatrix":
        grid = tuple(tuple(frac(x) for x in row) for row in rows)
        if grid:
            cols = len(grid[0])
        elif cols is None:
            cols = 0
        return cls(len(grid), cols, grid)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, tuple(tuple(ZERO for _ in range(cols)) for _ in range(rows)))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.cols, self.rows, tuple(zip(*self.entries)) if self.entries else tuple(() for _ in range(self.cols)))

    def scale(self, c) -> "RatMatrix":
        c = frac(c)
        return RatMatrix(self.rows, self.cols, tuple(tuple(c * x for x in row) for row in self.entries))

    def __neg__(self) -> "RatMatrix":
        return self.scale(-1)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition of different shapes")
        return RatMatrix(
            self.rows,
            self.cols,
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = other.cols
        out = []
        for i in range(self.rows):
            ri = self.entries[i]
            out.append(tuple(sum((ri[k] * other.entries[k][j] for k in range(self.cols)), ZERO) for j in range(cols)))
        return RatMatrix(self.rows, cols, tuple(out))

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack with different row counts")
        return RatMatrix(self.rows, self.cols + other.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def vstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.cols:
            raise ShapeMismatch("vstack with different column counts")
        return RatMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "RatMatrix":
        rows = tuple(row_idx)
        cols = tuple(col_idx)
        return RatMatrix(len(rows), len(cols), tuple(tuple(self.entries[i][j] for j in cols) for i in rows))

    def rref(self) -> tuple["RatMatrix", tuple[int, ...]]:
        """Reduced row echelon form with leftmost pivots; zero rows dropped."""
        work = [list(row) for row in self.entries]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for i in range(r, len(work)):
                if work[i][c] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            work[r], work[pivot_row] = work[pivot_row], work[r]
            inv = ONE / work[r][c]
            work[r] = [x * inv for x in work[r]]
            for i in range(len(work)):
                if i != r and work[i][c] != 0:
                    f = work[i][c]
                    work[i] = [a - f * b for a, b in zip(work[i], work[r])]
            pivots.append(c)
            r += 1
            if r == len(work):
                break
        reduced = RatMatrix(r, self.cols, tuple(tuple(row) for row in work[:r]))
        return reduced, tuple(pivots)

    def rank(self) -> int:
        return self.rref()[0].rows

    def right_nullspace(self) -> "RatMatrix":
        """Canonical basis of {v : M v = 0}, one vector per matrix row."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for f in free:
            v = [ZERO] * self.cols
            v[f] = ONE
            for r, pc in enumerate(pivots):
                v[pc] = -reduced.entries[r][f]
            basis.append(tuple(v))
        return RatMatrix(len(basis), self.cols, tuple(basis))

    def inverse(self) -> "RatMatrix":
        if not self.is_square():
            raise SingularMatrix("only square matrices can be inverted")
        aug = self.hstack(RatMatrix.identity(self.rows))
        reduced, pivots = aug.rref()
        if len(pivots) < self.rows or any(p >= self.rows for p in pivots):
            raise SingularMatrix("matrix is singular")
        return reduced.submatrix(range(self.rows), range(self.rows, 2 * self.rows))

    def is_invertible(self) -> bool:
        return self.is_square() and self.rank() == self.rows

    def det(self) -> Fraction:
        if not self.is_square():
            raise SingularMatrix("determinant of a non-square matrix")
        work = [list(row) for row in self.entries]
        n = self.rows
        sign = ONE
        det = ONE
        for k in range(n):
            pivot_row = None
            for i in range(k, n):
                if work[i][k] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                return ZERO
            if pivot_row != k:
                work[k], work[pivot_row] = work[pivot_row], work[k]
                sign = -sign
            piv = work[k][k]
            det *= piv
            for i in range(k + 1, n):
                if work[i][k] != 0:
                    f = work[i][k] / piv
                    work[i] = [a - f * b for a, b in zip(work[i], work[k])]
        return det * sign

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"


def rref(matrix: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    return matrix.rref()


SparseRow = dict[int, int]


def integer_rref(rows: Sequence[Mapping[int, int]], stop: int | None = None) -> list[tuple[SparseRow, SparseRow]]:
    """Reduced row echelon form of sparse integer rows, without fractions.

    Each row maps column indices to nonzero ints; pivots are leftmost.  Rows
    are combined two at a time as `a x - b y` and divided by the content of
    the row together with its cofactors, so entries stay bounded by minors of
    the input augmented with the identity.  Returns the nonzero reduced rows
    in pivot order, each with a positive pivot and its cofactors `cof`, which
    map input row indices to ints with `row == sum(cof[i] * rows[i])`.  When
    a row's pivot lands in column `stop`, that row alone is returned.
    """
    reduced: dict[int, tuple[SparseRow, SparseRow]] = {}  # pivot column -> (row, cofactors)
    for index, source in enumerate(rows):
        row, cof = dict(source), {index: 1}
        # reduced rows hold zeros in each other's pivot columns, so one pass suffices
        for c in [c for c in row if c in reduced]:
            row, cof = _eliminate(row, cof, *reduced[c], c)
        if not row:
            continue
        pivot = min(row)
        if row[pivot] < 0:
            row = {k: -v for k, v in row.items()}
            cof = {k: -v for k, v in cof.items()}
        if pivot == stop:
            return [(row, cof)]
        for c, (other, other_cof) in reduced.items():
            if pivot in other:
                reduced[c] = _eliminate(other, other_cof, row, cof, pivot)
        reduced[pivot] = (row, cof)
    return [reduced[c] for c in sorted(reduced)]


def _eliminate(row: SparseRow, cof: SparseRow, by: SparseRow, by_cof: SparseRow, column: int):
    """Clear `column` of `row` with the positive-pivot row `by`, then remove the content."""
    g = math.gcd(by[column], row[column])
    a, b = by[column] // g, row[column] // g
    row, cof = _axpy(a, row, -b, by), _axpy(a, cof, -b, by_cof)
    g = math.gcd(*row.values(), *cof.values())
    if g > 1:
        row = {k: v // g for k, v in row.items()}
        cof = {k: v // g for k, v in cof.items()}
    return row, cof


def _axpy(a: int, x: SparseRow, b: int, y: SparseRow) -> SparseRow:
    out = {k: a * v for k, v in x.items()}
    for k, v in y.items():
        w = out.get(k, 0) + b * v
        if w:
            out[k] = w
        else:
            del out[k]
    return out


def block_matrix(blocks: Sequence[Sequence[RatMatrix]]) -> RatMatrix:
    rows = None
    for block_row in blocks:
        acc = block_row[0]
        for b in block_row[1:]:
            acc = acc.hstack(b)
        rows = acc if rows is None else rows.vstack(acc)
    if rows is None:
        raise ShapeMismatch("block matrix with no block rows")
    return rows


def subset_minors(rows: Sequence[Sequence], one) -> dict:
    """Every nonzero k x k minor of a k x N grid, by one column-subset expansion.

    After row i the expansion holds, for each i-subset S of the columns, the
    minor on the first i rows and the columns S; every k-subset shares the
    partial minors on its own subsets.  Works for any entry type with
    `is_zero`, `+`, `*` and unary `-`; `one` is the multiplicative unit of
    that type.  Returns a dict from sorted column tuples to the nonzero
    minors, so each caller builds the zeros of its own type.
    """
    acc = {0: one}
    for row in rows:
        entries = [(c, 1 << c, e) for c, e in enumerate(row) if not e.is_zero()]
        nxt = {}
        for mask, val in acc.items():
            for c, bit, e in entries:
                if mask & bit:
                    continue
                # sign of the permutation: columns already taken to the right of c
                term = val * e if bin(mask >> (c + 1)).count("1") % 2 == 0 else val * -e
                key = mask | bit
                nxt[key] = nxt[key] + term if key in nxt else term
        acc = {mask: val for mask, val in nxt.items() if not val.is_zero()}
    return {tuple(c for c in range(mask.bit_length()) if mask >> c & 1): val for mask, val in acc.items()}


def subset_det(grid: Sequence[Sequence], one):
    """Determinant of a square grid by `subset_minors`; None when it vanishes."""
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise NotSquare("determinant of a non-square grid")
    return subset_minors(grid, one).get(tuple(range(n)))
