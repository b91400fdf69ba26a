"""Homogeneous autoregressive systems.

An ARSystem is a full-row-rank p x (m+p) matrix of homogeneous bivariate
polynomials, row i of uniform degree nu_i, with McMillan degree n = sum(nu).
The central tool is a degree-by-degree kernel-generator engine: it produces a
minimal homogeneous generating set of {v : M v^T = 0}, which yields the
cokernel presentation Q of a system, its observable part (a double kernel),
and minimal polynomial kernel bases for the state-space and pencil modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    DegreeMismatch,
    EllTooSmall,
    NotHomogeneous,
    RankDeficient,
    ShapeMismatch,
    SingularTransform,
    SyzygyBudgetExceeded,
)
from .grassmann import GrassmannPoint
from .linalg import RatMatrix
from .poly import HomPoly
from .polymatrix import HomPolyMatrix, generic_rank, maximal_minors, poly_gcd_list


@dataclass(frozen=True)
class ARSystem:
    P: HomPolyMatrix
    row_degrees: tuple[int, ...]
    m: int
    p: int

    @property
    def n(self) -> int:
        """McMillan degree: the sum of the row degrees."""
        return sum(self.row_degrees)

    @property
    def external_dim(self) -> int:
        return self.m + self.p


@dataclass(frozen=True)
class SyzygyBasis:
    """Minimal homogeneous generating set Q of the right-kernel module of P."""

    Q: HomPolyMatrix
    row_degrees: tuple[int, ...]


def validate(P: HomPolyMatrix, row_degrees: Sequence[int], m: int, p: int) -> ARSystem:
    """Check shape, per-row homogeneity degrees and generic full row rank."""
    if m < 1 or p < 1:
        raise ShapeMismatch("m and p must be positive")
    if P.rows != p or P.cols != m + p:
        raise ShapeMismatch(f"expected {p}x{m + p}, got {P.rows}x{P.cols}")
    degrees = tuple(int(d) for d in row_degrees)
    if len(degrees) != p or any(d < 0 for d in degrees):
        raise ShapeMismatch("need one nonnegative degree per row")
    grid = []
    for i, d in enumerate(degrees):
        row = []
        for entry in P.entries[i]:
            if entry.is_zero():
                row.append(HomPoly.zero(d))
            elif entry.degree != d:
                raise NotHomogeneous(f"entry of degree {entry.degree} in a row of degree {d}")
            else:
                row.append(entry)
        grid.append(tuple(row))
    normalized = HomPolyMatrix(p, m + p, tuple(grid))
    if generic_rank(normalized) != p:
        raise RankDeficient("matrix does not have full generic row rank")
    return ARSystem(normalized, degrees, m, p)


def is_observable(ar: ARSystem) -> bool:
    """True iff the maximal minors have no common projective zero (gcd degree 0)."""
    gcd = poly_gcd_list(maximal_minors(ar.P, ar.p))
    return gcd.degree == 0


def act_T(ar: ARSystem, T: RatMatrix) -> ARSystem:
    """Right action P -> P T^{-1} of a constant invertible transformation."""
    if T.rows != ar.external_dim or T.cols != ar.external_dim:
        raise ShapeMismatch("transformation has the wrong size")
    if not T.is_invertible():
        raise SingularTransform("transformation is singular")
    return validate(ar.P.mul_rat(T.inverse()), ar.row_degrees, ar.m, ar.p)


# ---------------------------------------------------------------------------
# Degree-by-degree minimal kernel generators


def _component_offsets(comp_degrees: Sequence[int]) -> tuple[list[int], int]:
    offsets = []
    total = 0
    for d in comp_degrees:
        offsets.append(total)
        if d >= 0:
            total += d + 1
    return offsets, total


def _vectorize(vec: Sequence[HomPoly], comp_degrees: Sequence[int], offsets, total) -> list[Fraction]:
    flat = [Fraction(0)] * total
    for j, (poly, d) in enumerate(zip(vec, comp_degrees)):
        if d < 0 or poly.is_zero():
            continue
        # structurally-zero components may carry a stale degree label; nonzero
        # ones must fill their slot exactly
        if poly.degree != d:
            raise DegreeMismatch("component degree does not match the layout")
        base = offsets[j]
        for k, c in enumerate(poly.coeffs):
            flat[base + k] = c
    return flat


def _multiples(rows, row_degrees, degree: int, comp_degrees: Sequence[int]) -> list[list[Fraction]]:
    """Coefficient vectors of s^a t^b r for each row r of degree e and a + b = degree - e."""
    offsets, total = _component_offsets(comp_degrees)
    out = []
    for row, e in zip(rows, row_degrees):
        gap = degree - e
        for b in range(gap + 1):
            moved = tuple(poly.shift(gap - b, b) for poly in row)
            out.append(_vectorize(moved, comp_degrees, offsets, total))
    return out


def _assemble(flat: Sequence[Fraction], comp_degrees: Sequence[int], offsets) -> tuple[HomPoly, ...]:
    out = []
    for j, d in enumerate(comp_degrees):
        if d < 0:
            out.append(HomPoly.zero(0))
        else:
            base = offsets[j]
            out.append(HomPoly(d, tuple(flat[base : base + d + 1])))
    return tuple(out)


def minimal_kernel_generators(
    M: HomPolyMatrix,
    row_degrees: Sequence[int],
    col_shifts: Sequence[int] | None = None,
    *,
    max_degree: int,
    expected: int,
) -> list[tuple[int, tuple[HomPoly, ...]]]:
    """Minimal homogeneous generators of {v : M v^T = 0}.

    Entry (i, j) of M must be homogeneous of degree row_degrees[i] +
    col_shifts[j] (zero entries are wildcards); a generator of degree d has
    component j homogeneous of degree d - col_shifts[j].  Candidates are found
    by exact linear algebra on coefficients, degree by degree, discarding
    anything already generated by monomial multiples of lower-degree
    generators.  The result is canonical: within each degree the new
    generators are the rows of the kernel's rref whose pivots are not pivots
    of the shifted span.  `expected` is the rank of the kernel module, which
    every caller knows from the shape of M.
    """
    shifts = tuple(col_shifts) if col_shifts is not None else tuple(0 for _ in range(M.cols))
    columns = M.transpose().entries
    gens: list[tuple[int, tuple[HomPoly, ...]]] = []
    if expected == 0:
        return gens
    for d in range(0, max_degree + 1):
        comp_degrees = [d - s for s in shifts]
        offsets, total = _component_offsets(comp_degrees)
        if total == 0:
            continue
        # column (j, k) holds column j of M times s^(d_j - k) t^k
        multiples = _multiples(columns, shifts, d, [e + d for e in row_degrees])
        kernel = RatMatrix.from_rows(multiples).transpose().right_nullspace()
        if kernel.rows == 0:
            continue
        # the span of lower generators lies in the kernel, so its pivots are
        # kernel pivots; each other kernel rref row is a new generator
        reduced, pivots = kernel.rref()
        shifted = _multiples([vec for _, vec in gens], [e for e, _ in gens], d, comp_degrees)
        _, span_pivots = RatMatrix.from_rows(shifted, total).rref()
        old = set(span_pivots)
        for row, pc in zip(reduced.entries, pivots):
            if pc not in old:
                gens.append((d, _assemble(row, comp_degrees, offsets)))
        if len(gens) > expected:  # pragma: no cover - kernel modules are free
            raise SyzygyBudgetExceeded("more generators than the kernel rank allows")
        if len(gens) == expected:
            break
    if len(gens) != expected:
        raise SyzygyBudgetExceeded(
            f"kernel generators incomplete by degree {max_degree} ({len(gens)}/{expected})"
        )
    def sort_key(item):
        degree, vec = item
        flat = tuple(c for poly in vec for c in poly.coeffs)
        return (degree, flat)

    gens.sort(key=sort_key)
    return gens


def minimal_left_kernel(
    M: HomPolyMatrix, row_degrees: Sequence[int], max_degree: int, *, expected: int
) -> list[tuple[int, tuple[HomPoly, ...]]]:
    """Minimal generators of {w : w M = 0} for per-row-uniform M."""
    return minimal_kernel_generators(
        M.transpose(),
        row_degrees=[0] * M.cols,
        col_shifts=row_degrees,
        max_degree=max_degree,
        expected=expected,
    )


def compute_Q(ar: ARSystem) -> SyzygyBasis:
    """Minimal generators of the right-kernel module of P, sorted and normalized.

    For an observable system the row degrees sum to n; in general this
    presents the free part of the cokernel, i.e. the observable part's kernel.
    """
    gens = minimal_kernel_generators(
        ar.P, ar.row_degrees, max_degree=ar.n, expected=ar.m
    )
    rows = tuple(vec for _, vec in gens)
    degrees = tuple(d for d, _ in gens)
    return SyzygyBasis(HomPolyMatrix.from_rows(rows), degrees)


def observable_part(ar: ARSystem) -> ARSystem:
    """The lower-degree observable system presenting the same free behavior.

    Computed as a double kernel: minimal generators of the left-kernel module
    of Q^T, i.e. the right kernel of Q.
    """
    syz = compute_Q(ar)
    gens = minimal_kernel_generators(
        syz.Q, syz.row_degrees, max_degree=ar.n, expected=ar.p
    )
    rows = tuple(vec for _, vec in gens)
    degrees = tuple(d for d, _ in gens)
    return validate(HomPolyMatrix.from_rows(rows), degrees, ar.m, ar.p)


def mul_row_vector(vec: Sequence[HomPoly], M: HomPolyMatrix) -> tuple[HomPoly, ...]:
    """Row vector times polynomial matrix."""
    out = []
    for j in range(M.cols):
        acc = None
        for k, poly in enumerate(vec):
            if poly.is_zero():
                continue
            term = poly * M.entries[k][j]
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else HomPoly.zero(0))
    return tuple(out)


def kernel_product_is_zero(P: HomPolyMatrix, Q: HomPolyMatrix) -> bool:
    """Exact check that P Q^T vanishes identically."""
    for i in range(P.rows):
        for j in range(Q.rows):
            acc = None
            for k in range(P.cols):
                term = P.entries[i][k] * Q.entries[j][k]
                acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                return False
    return True


# ---------------------------------------------------------------------------
# Row-module membership (used to compare kernel bases up to equivalence)


def row_module_contains(
    rows: Sequence[Sequence[HomPoly]],
    row_degrees: Sequence[int],
    vec: Sequence[HomPoly],
    vec_degree: int,
) -> bool:
    """Is vec (homogeneous of vec_degree) in the module generated by the rows?"""
    comp_degrees = [vec_degree] * len(vec)
    offsets, total = _component_offsets(comp_degrees)
    shifted = _multiples(rows, row_degrees, vec_degree, comp_degrees)
    target = _vectorize(vec, comp_degrees, offsets, total)
    span = RatMatrix.from_rows(shifted, total)
    with_target = RatMatrix.from_rows(shifted + [target], total)
    return span.rank() == with_target.rank()


def row_modules_equal(
    rows_a: Sequence[Sequence[HomPoly]],
    degrees_a: Sequence[int],
    rows_b: Sequence[Sequence[HomPoly]],
    degrees_b: Sequence[int],
) -> bool:
    """Mutual reduction: each basis row lies in the module spanned by the other."""
    for vec, d in zip(rows_a, degrees_a):
        if not row_module_contains(rows_b, degrees_b, vec, d):
            return False
    for vec, d in zip(rows_b, degrees_b):
        if not row_module_contains(rows_a, degrees_a, vec, d):
            return False
    return True


# ---------------------------------------------------------------------------
# The Grassmannian embedding by shifted coefficient row spaces


def rho_embedding(ar: ARSystem, ell: int) -> GrassmannPoint:
    """Canonical basis of span{s^a t^b (row i) : a + b = ell - nu_i}.

    Vectors live in Q^{(m+p)(ell+1)}; component k of the external space
    occupies columns k(ell+1)..k(ell+1)+ell, ordered by descending s-power.
    For a valid system the dimension is p(ell+1) - n.
    """
    if ell < ar.n:
        raise EllTooSmall(f"need ell >= McMillan degree ({ar.n}), got {ell}")
    rows = _multiples(ar.P.entries, ar.row_degrees, ell, [ell] * ar.external_dim)
    return GrassmannPoint.from_rows(rows, ar.external_dim * (ell + 1))
