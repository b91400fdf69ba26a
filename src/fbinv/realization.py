"""State-space systems, the feedback group, and left coprime matrix fractions.

External variables are ordered w = (u; y) throughout this module: an
autoregressive row R acts as R (u; y) = 0 with R = (-N  D), so D y = N u and
the transfer function is D^{-1} N.
"""

from __future__ import annotations

from dataclasses import dataclass
from .arsys import ARSystem, act_T, minimal_left_kernel, rho_embedding, validate
from .errors import NotObservable, ShapeMismatch, SingularTransform
from .linalg import RatMatrix, block_matrix
from .poly import HomPoly, UniPoly, dehomogenize, homogenize, uni_mat_det
from .polymatrix import HomPolyMatrix

UniGrid = tuple[tuple[UniPoly, ...], ...]


@dataclass(frozen=True)
class StateSpace:
    A: RatMatrix
    B: RatMatrix
    C: RatMatrix
    D: RatMatrix

    def __post_init__(self):
        n, m, p = self.A.rows, self.B.cols, self.C.rows
        if self.A.cols != n or self.B.rows != n or self.C.cols != n:
            raise ShapeMismatch("state dimensions are inconsistent")
        if self.D.rows != p or self.D.cols != m:
            raise ShapeMismatch("feedthrough has the wrong shape")

    @property
    def n(self) -> int:
        return self.A.rows

    @property
    def m(self) -> int:
        return self.B.cols

    @property
    def p(self) -> int:
        return self.C.rows

    def is_strictly_proper(self) -> bool:
        return self.D.is_zero()

    def observability_matrix(self) -> RatMatrix:
        blocks = []
        power = self.C
        for _ in range(self.n):
            blocks.append(power)
            power = power @ self.A
        out = blocks[0]
        for b in blocks[1:]:
            out = out.vstack(b)
        return out

    def controllability_matrix(self) -> RatMatrix:
        blocks = []
        power = self.B
        for _ in range(self.n):
            blocks.append(power)
            power = self.A @ power
        out = blocks[0]
        for b in blocks[1:]:
            out = out.hstack(b)
        return out

    def is_observable(self) -> bool:
        return self.n == 0 or self.observability_matrix().rank() == self.n

    def is_controllable(self) -> bool:
        return self.n == 0 or self.controllability_matrix().rank() == self.n


@dataclass(frozen=True)
class FeedbackTransform:
    """State/input/output basis changes plus output feedback u -> u + F y."""

    S: RatMatrix
    T1: RatMatrix
    T2: RatMatrix
    F: RatMatrix

    def __post_init__(self):
        n, m, p = self.S.rows, self.T1.rows, self.T2.rows
        for mat, size, name in ((self.S, n, "S"), (self.T1, m, "T1"), (self.T2, p, "T2")):
            if mat.rows != size or mat.cols != size:
                raise ShapeMismatch(f"{name} must be square")
            if not mat.is_invertible():
                raise SingularTransform(f"{name} is singular")
        if self.F.rows != m or self.F.cols != p:
            raise ShapeMismatch("F must map output space to input space")

    @classmethod
    def identity(cls, n: int, m: int, p: int) -> "FeedbackTransform":
        return cls(
            RatMatrix.identity(n),
            RatMatrix.identity(m),
            RatMatrix.identity(p),
            RatMatrix.zeros(m, p),
        )

    def external_matrix(self) -> RatMatrix:
        """The matrix carrying old external variables to new ones.

        For the composite implemented by `apply_full_feedback` (close the loop
        with F, then change bases) the new (u; y) is
        [[T1, -T1 F], [0, T2]] applied to the old pair: the closed loop reads
        u_old = v + F y, so v = u_old - F y picks up the sign on F.
        """
        return block_matrix([[self.T1, -(self.T1 @ self.F)], [RatMatrix.zeros(self.T2.rows, self.T1.cols), self.T2]])

    def then(self, other: "FeedbackTransform") -> "FeedbackTransform":
        """Composite transform: apply self first, then other."""
        return FeedbackTransform(
            S=other.S @ self.S,
            T1=other.T1 @ self.T1,
            T2=other.T2 @ self.T2,
            F=self.F + self.T1.inverse() @ other.F @ self.T2,
        )


@dataclass(frozen=True)
class MFD:
    """Left matrix fraction (D, N) with G = D^{-1} N; rows carry their degrees."""

    Dmat: UniGrid
    Nmat: UniGrid
    row_degrees: tuple[int, ...]
    improper: bool = False
    reduced_from: int | None = None

    @property
    def p(self) -> int:
        return len(self.Dmat)

    @property
    def m(self) -> int:
        return len(self.Nmat[0]) if self.Nmat and self.Nmat[0] else 0

    @property
    def n(self) -> int:
        return sum(self.row_degrees)


def apply_full_feedback(ss: StateSpace, g: FeedbackTransform) -> StateSpace:
    """Composite of u -> u + F y with the three basis changes, on D = 0 systems."""
    if not ss.is_strictly_proper():
        raise ShapeMismatch("full feedback action is defined for strictly proper systems")
    s_inv = g.S.inverse()
    closed = ss.A + ss.B @ g.F @ ss.C
    return StateSpace(
        A=g.S @ closed @ s_inv,
        B=g.S @ ss.B @ g.T1.inverse(),
        C=g.T2 @ ss.C @ s_inv,
        D=RatMatrix.zeros(ss.p, ss.m),
    )


def apply_extended_feedback(mfd: MFD, T: RatMatrix) -> MFD:
    """Row action (D N) -> (D N) T^{-1}; flags the result improper if the new
    D-block is singular instead of failing."""
    p, m = mfd.p, mfd.m
    if T.rows != m + p or T.cols != m + p:
        raise ShapeMismatch("transformation has the wrong size")
    if not T.is_invertible():
        raise SingularTransform("transformation is singular")
    tinv = T.inverse()
    pair = [list(drow) + list(nrow) for drow, nrow in zip(mfd.Dmat, mfd.Nmat)]
    moved = [
        [
            sum((pair[i][k].scale(tinv.entries[k][j]) for k in range(m + p)), UniPoly.zero())
            for j in range(m + p)
        ]
        for i in range(p)
    ]
    new_D = tuple(tuple(row[:p]) for row in moved)
    new_N = tuple(tuple(row[p:]) for row in moved)
    degrees = tuple(max((f.degree for f in drow + nrow), default=0) for drow, nrow in zip(new_D, new_N))
    degrees = tuple(max(d, 0) for d in degrees)
    improper = uni_mat_det([list(r) for r in new_D]).is_zero()
    return MFD(new_D, new_N, degrees, improper=improper, reduced_from=mfd.reduced_from)


def observable_subsystem(ss: StateSpace) -> StateSpace:
    """Exact Kalman reduction to the observable quotient."""
    reduced, pivots = ss.observability_matrix().rref()
    W = reduced  # rows span the observability row space; W[:, pivots] = I
    r = W.rows
    WA = W @ ss.A
    A_o = WA.submatrix(range(r), pivots)
    C_o = ss.C.submatrix(range(ss.p), pivots)
    B_o = W @ ss.B
    return StateSpace(A_o, B_o, C_o, ss.D)


def left_coprime_mfd(ss: StateSpace, strict: bool = False) -> MFD:
    """Left coprime factorization of C (sI - A)^{-1} B + D.

    The rows of (D  -N) come from a minimal polynomial basis of the left
    kernel of the stacked matrix [sI - A; -C], computed by the homogeneous
    kernel engine on [sI - tA; -C]; row degrees are the observability indices
    and sum to n.  Non-observable systems are reduced first (or rejected with
    strict=True).
    """
    reduced_from = None
    if not ss.is_observable():
        if strict:
            raise NotObservable("the pair (C, A) is not observable")
        reduced_from = ss.n
        ss = observable_subsystem(ss)
    n, m, p = ss.n, ss.m, ss.p
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            s_coeff = 1 if i == j else 0
            row.append(HomPoly.from_coeffs(1, [s_coeff, -ss.A.entries[i][j]]))
        grid.append(row)
    for i in range(p):
        grid.append([HomPoly.constant(-ss.C.entries[i][j]) for j in range(n)])
    if n == 0:
        # the kernel is everything: D = I, N = D-matrix of the system
        D_rows = tuple(tuple(UniPoly.constant(1 if i == j else 0) for j in range(p)) for i in range(p))
        N_rows = tuple(tuple(UniPoly.constant(ss.D.entries[i][j]) for j in range(m)) for i in range(p))
        return MFD(D_rows, N_rows, tuple(0 for _ in range(p)), reduced_from=reduced_from)
    stack = HomPolyMatrix.from_rows(grid)
    gens = minimal_left_kernel(stack, row_degrees=[1] * n + [0] * p, max_degree=n, expected=p)
    D_rows = []
    N_rows = []
    degrees = []
    for d, vec in gens:
        L1 = [dehomogenize(vec[j]) for j in range(n)]
        L2 = [dehomogenize(vec[n + k]) for k in range(p)]
        D_rows.append(tuple(L2))
        nrow = []
        for j in range(m):
            acc = UniPoly.zero()
            for k in range(n):
                acc = acc + L1[k].scale(ss.B.entries[k][j])
            for k in range(p):
                acc = acc + L2[k].scale(ss.D.entries[k][j])
            nrow.append(acc)
        N_rows.append(tuple(nrow))
        degrees.append(d)
    return MFD(tuple(D_rows), tuple(N_rows), tuple(degrees), reduced_from=reduced_from)


def to_hom_ar(mfd: MFD) -> ARSystem:
    """Homogenize each row of (-N  D) to its row degree; columns are (u; y)."""
    rows = []
    for drow, nrow, d in zip(mfd.Dmat, mfd.Nmat, mfd.row_degrees):
        rows.append(
            tuple(homogenize(f, d).scale(-1) for f in nrow) + tuple(homogenize(f, d) for f in drow)
        )
    P = HomPolyMatrix.from_rows(rows)
    return validate(P, mfd.row_degrees, m=mfd.m, p=mfd.p)


def extended_action_consistency(ss: StateSpace, g: FeedbackTransform) -> bool:
    """Do 'transform then factor' and 'factor then act' give the same invariant?

    Both routes are compared through their rho Grassmann points at ell = n.
    """
    route1 = to_hom_ar(left_coprime_mfd(apply_full_feedback(ss, g)))
    route2 = act_T(to_hom_ar(left_coprime_mfd(ss)), g.external_matrix())
    ell = max(route1.n, route2.n)
    return rho_embedding(route1, ell) == rho_embedding(route2, ell)
