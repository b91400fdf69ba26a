"""Generalized first-order representations K x' + L x + M w = 0.

External variables are ordered w = (y; u) here, forced by the block layout of
the state-space embedding; `reorder_to_input_first` bridges to the (u; y)
convention used by the realization and autoregressive modules.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arsys import ARSystem, minimal_left_kernel, validate
from .errors import NotAdmissible, NotControllable, ShapeMismatch, SingularMatrix, SingularTransform
from .linalg import RatMatrix, block_matrix
from .poly import HomPoly
from .polymatrix import HomPolyMatrix, generic_rank, maximal_minors, poly_gcd_list
from .realization import StateSpace


@dataclass(frozen=True)
class PencilSystem:
    K: RatMatrix
    L: RatMatrix
    M: RatMatrix
    n: int
    m: int
    p: int

    def __post_init__(self):
        if self.K.rows != self.n + self.p or self.K.cols != self.n:
            raise ShapeMismatch("K must be (n+p) x n")
        if self.L.rows != self.n + self.p or self.L.cols != self.n:
            raise ShapeMismatch("L must be (n+p) x n")
        if self.M.rows != self.n + self.p or self.M.cols != self.m + self.p:
            raise ShapeMismatch("M must be (n+p) x (m+p)")

    def pencil_matrix(self) -> HomPolyMatrix:
        """s K + t L as a degree-1 polynomial matrix."""
        grid = []
        for i in range(self.n + self.p):
            grid.append(
                [
                    HomPoly.from_coeffs(1, [self.K.entries[i][j], self.L.entries[i][j]])
                    for j in range(self.n)
                ]
            )
        return HomPolyMatrix.from_rows(grid)

    def augmented_pencil(self) -> HomPolyMatrix:
        """[s K + t L   M] with constant columns appended."""
        grid = []
        for i in range(self.n + self.p):
            row = [
                HomPoly.from_coeffs(1, [self.K.entries[i][j], self.L.entries[i][j]])
                for j in range(self.n)
            ]
            row += [HomPoly.constant(x) for x in self.M.entries[i]]
            grid.append(row)
        return HomPolyMatrix.from_rows(grid)


def is_admissible(ps: PencilSystem) -> bool:
    """The pencil has generically full column rank."""
    return generic_rank(ps.pencil_matrix()) == ps.n


def is_controllable(ps: PencilSystem) -> bool:
    """[sK + tL  M] has full row rank at every point of the projective line."""
    if not is_admissible(ps):
        raise NotAdmissible("controllability is defined for admissible systems")
    aug = ps.augmented_pencil()
    minors = maximal_minors(aug, ps.n + ps.p)
    if all(f.is_zero() for f in minors):
        return False
    return poly_gcd_list(minors).degree == 0


def from_state_space(ss: StateSpace) -> PencilSystem:
    """The block embedding K = [-I; 0], L = [A; C], M = [[0, B], [-I, D]]."""
    n, m, p = ss.n, ss.m, ss.p
    K = block_matrix([[-RatMatrix.identity(n)], [RatMatrix.zeros(p, n)]])
    L = block_matrix([[ss.A], [ss.C]])
    M = block_matrix(
        [
            [RatMatrix.zeros(n, p), ss.B],
            [-RatMatrix.identity(p), ss.D],
        ]
    )
    return PencilSystem(K, L, M, n, m, p)


def act_pencil(ps: PencilSystem, U: RatMatrix, S: RatMatrix, T: RatMatrix) -> PencilSystem:
    """(K, L, M) -> (U K S^{-1}, U L S^{-1}, U M T^{-1})."""
    for mat, size, name in ((U, ps.n + ps.p, "U"), (S, ps.n, "S"), (T, ps.m + ps.p, "T")):
        if mat.rows != size or mat.cols != size:
            raise ShapeMismatch(f"{name} has the wrong size")
        if not mat.is_invertible():
            raise SingularTransform(f"{name} is singular")
    s_inv = S.inverse()
    return PencilSystem(U @ ps.K @ s_inv, U @ ps.L @ s_inv, U @ ps.M @ T.inverse(), ps.n, ps.m, ps.p)


def to_ar(ps: PencilSystem) -> ARSystem:
    """Eliminate the latent variable: a minimal left-kernel basis of the pencil
    applied to M gives the autoregressive rows (in (y; u) column order)."""
    if not is_admissible(ps):
        raise NotAdmissible("pencil does not have full generic column rank")
    if not is_controllable(ps):
        raise NotControllable("augmented pencil loses rank at a projective point")
    # component degrees lag the engine degree by the uniform shift 1
    gens = minimal_left_kernel(
        ps.pencil_matrix(), row_degrees=[1] * (ps.n + ps.p), max_degree=ps.n + 1, expected=ps.p
    )
    P = HomPolyMatrix.from_rows([vec for _, vec in gens]).mul_rat(ps.M)
    return validate(P, [d - 1 for d, _ in gens], m=ps.m, p=ps.p)


def reorder_to_input_first(ar: ARSystem) -> ARSystem:
    """Move the p output columns of a (y; u)-ordered system behind its m input columns."""
    columns = [*range(ar.p, ar.m + ar.p), *range(ar.p)]
    return validate(ar.P.submatrix(range(ar.P.rows), columns), ar.row_degrees, ar.m, ar.p)


def to_state_space(ps: PencilSystem) -> StateSpace:
    """Invert the block embedding on pencils whose leading [K  M_y] block is invertible."""
    n, m, p = ps.n, ps.m, ps.p
    lead = ps.K.hstack(ps.M.submatrix(range(n + p), range(p)))
    if not lead.is_invertible():
        raise SingularMatrix("leading (n+p) x (n+p) block of [K M] is singular")
    U = -lead.inverse()
    Lp = U @ ps.L
    Mp = U @ ps.M
    A = Lp.submatrix(range(n), range(n))
    C = Lp.submatrix(range(n, n + p), range(n))
    B = Mp.submatrix(range(n), range(p, p + m))
    D = Mp.submatrix(range(n, n + p), range(p, p + m))
    return StateSpace(A, B, C, D)
