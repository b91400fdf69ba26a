"""The Cauchy-Binet chart builder against the direct builders in `oracles`.

The library builds each chart system from a row-reduced constant matrix times
the chart's minors, the matrix read off the maximal minors of P by Laplace
expansion of [P; H].  The direct builders form the products and minors over
the chart parameters themselves, the rank ones on the kernel matrix Q; both
must give the same ideal on every chart, and the builder's rows must encode
the same linear functionals as the minors of Q(s,t) H^T and the coefficients
of det [P; K].
"""

import random
from itertools import combinations

from fbinv import stability
from fbinv.arsys import compute_Q, observable_part
from fbinv.ideals import groebner
from fbinv.linalg import RatMatrix
from fbinv.multipoly import MultiPoly
from fbinv.poly import HomPoly
from fbinv.polymatrix import HomPolyMatrix, determinant, generic_rank
from fbinv.sampling import random_ar_system, random_rat_matrix
from fbinv.stability import GradedBound, StabilityMode, is_nondegenerate, stability_check, stacked_determinant
from oracles import det, direct_degeneracy_chart_system, direct_rank_chart_system

# (p, m, row degrees): balanced n >= mp sizes, and the n < mp composition of
# the witness workload, whose charts have solutions
SIZES = (
    (2, 2, (2, 2)),
    (2, 3, (3, 2)),
    (3, 2, (2, 2, 2)),
    (2, 3, (1, 3)),
)


def _systems():
    for p, m, degrees in SIZES:
        for seed in (0, 1):
            yield random_ar_system(random.Random(seed), m, p, sum(degrees), row_degrees=degrees)


def _span_rank(polys) -> int:
    monomials = sorted({e for g in polys for e in g.terms})
    rows = [[g.terms.get(e, 0) for e in monomials] for g in polys]
    return RatMatrix.from_rows(rows, len(monomials)).rank()


def _assert_same_system(new: list[MultiPoly], old: list[MultiPoly], where):
    new = [g for g in new if not g.is_zero()]
    old = [g for g in old if not g.is_zero()]
    a, b = groebner(new), groebner(old)
    assert (a.status, a.basis) == (b.status, b.basis), where
    assert _span_rank(new) == _span_rank(old) == _span_rank(new + old), where


def test_degeneracy_builder_matches_direct_builder():
    for ar in _systems():
        combination = stability._stacked_combination(ar, ar.m)
        for pivots in combinations(range(ar.external_dim), ar.m):
            new, _ = stability._chart_minor_system(combination, pivots, ar.external_dim)
            old = direct_degeneracy_chart_system(ar, pivots)
            _assert_same_system(new, old, (ar.P, pivots))


def test_rank_builder_matches_direct_builder():
    for ar in _systems():
        Q = compute_Q(observable_part(ar)).Q
        width = ar.external_dim
        for h in range(1, width):
            bound = GradedBound.for_dimension(h, ar.m, ar.p)
            for r in sorted({bound.strict_bound - 1, bound.weak_bound - 1}):
                if not 0 <= r < min(Q.rows, h):
                    continue
                combination = stability._stacked_combination(ar, r + 1)
                for pivots in combinations(range(width), h):
                    new, _ = stability._chart_minor_system(combination, pivots, width)
                    old = direct_rank_chart_system(Q, pivots, width, h, r)
                    _assert_same_system(new, old, (ar.P, h, r, pivots))


def _random_hom_matrix(rng, rows, cols):
    degrees = [rng.randint(0, 2) for _ in range(rows)]
    return HomPolyMatrix.from_rows(
        [[HomPoly.from_coeffs(d, [rng.randint(-3, 3) for _ in range(d + 1)]) for _ in range(cols)] for d in degrees]
    )


def test_cauchy_binet_identity_for_minors_of_q_times_h():
    rng = random.Random(11)
    for _ in range(8):
        rows, width = rng.randint(2, 3), rng.randint(3, 5)
        Q = _random_hom_matrix(rng, rows, width)
        h = rng.randint(1, width)
        H = random_rat_matrix(rng, h, width, -4, 4)
        product = Q.mul_rat(H.transpose())
        for size in range(1, min(rows, h) + 1):
            for R in combinations(range(rows), size):
                for C in combinations(range(h), size):
                    direct = determinant(product.submatrix(R, C))
                    expansion = HomPoly.zero(direct.degree)
                    for J in combinations(range(width), size):
                        expansion = expansion + determinant(Q.submatrix(R, J)).scale(det(H.submatrix(C, J)))
                    assert (direct - expansion).is_zero()


def _evaluate(combination, minors) -> list:
    """The builder's generators at a point, given the point's minors by column subset."""
    return [sum(c * minors[combination.subsets[k]] for k, c in row) for row in combination.rows]


def _same_functionals(builder_values, direct_values):
    """Sampled values of two families of linear functionals: same span iff equal ranks."""
    a = RatMatrix.from_rows(builder_values).transpose()
    b = RatMatrix.from_rows(direct_values).transpose()
    return a.rank() == b.rank() == a.vstack(b).rank()


def test_rank_combination_rows_span_the_minor_coefficients():
    """On sampled H, the reduced rows span the (s,t)-coefficients of the minors of Q H^T."""
    rng = random.Random(12)
    for ar in _systems():
        Q = compute_Q(observable_part(ar)).Q
        width = ar.external_dim
        for r in range(min(Q.rows, width - 1)):
            size = r + 1
            combination = stability._stacked_combination(ar, size)
            builder, direct = [], []
            for _ in range(8):
                H = random_rat_matrix(rng, width - 1, width, -4, 4)
                product = Q.mul_rat(H.transpose())
                for C in combinations(range(width - 1), size):
                    minors = {J: det(H.submatrix(C, J)) for J in combinations(range(width), size)}
                    builder.append(_evaluate(combination, minors))
                    row = []
                    for R in combinations(range(Q.rows), size):
                        minor = determinant(product.submatrix(R, C))
                        degree = sum(Q.row_degree_label(i) for i in R)
                        row.extend(minor.coeff(degree - j, j) for j in range(degree + 1))
                    direct.append(row)
            assert _same_functionals(builder, direct), (ar.P, r)


def test_degeneracy_combination_rows_span_the_stacked_determinant():
    """On sampled K, the reduced rows span the coefficients of det [P; K]."""
    rng = random.Random(13)
    for ar in _systems():
        width = ar.external_dim
        combination = stability._stacked_combination(ar, ar.m)
        builder, direct = [], []
        for _ in range(24):
            K = random_rat_matrix(rng, ar.m, width, -4, 4)
            minors = {J: det(K.submatrix(range(ar.m), J)) for J in combinations(range(width), ar.m)}
            builder.append(_evaluate(combination, minors))
            direct.append(list(stacked_determinant(ar.P, K).coeffs))
        assert _same_functionals(builder, direct), ar.P


def _flag_through(H: RatMatrix) -> RatMatrix:
    """An invertible matrix whose first rows are H, completed by unit rows."""
    flag = H
    for unit in RatMatrix.identity(H.cols).entries:
        extended = flag.vstack(RatMatrix.from_rows([unit]))
        if extended.rank() == extended.rows:
            flag = extended
    return flag


def test_rank_of_p_over_h_exceeds_the_rank_of_q_times_h_by_p(monkeypatch):
    """rank [P; H] = rank Q H^T + p: the identity every rank in `stability` rests on.

    H ranges over random subspaces of every dimension, with entries in [-1, 1]
    so that some meet the row space of P, and over every witness the library
    checks on [P; H] alone: those of exhaustive and generic stability checks,
    and the nondegeneracy witnesses of every solvable chart.  Random flags
    almost never refute, so generic mode draws its flags through the
    exhaustive witness, when there is one; its ranks must then be those of
    Q H^T on that flag.
    """
    rng = random.Random(14)
    lowered = refuted = 0
    for ar in _systems():
        Q = compute_Q(observable_part(ar)).Q
        width = ar.external_dim
        witness = stability_check(ar).witness
        witnesses = [witness] + [r.witness for r in is_nondegenerate(ar).chart_reports]
        if witness is not None:
            flag = _flag_through(witness)
            monkeypatch.setattr(stability, "random_invertible", lambda *args, **kwargs: flag.transpose())
            sampled = stability_check(ar, StabilityMode.GENERIC_SUBSPACE)
            for report in sampled.details:
                H = flag.submatrix(range(report.h), range(width))
                assert report.achieved == generic_rank(Q.mul_rat(H.transpose())), (ar.P, report)
            refuted += sampled.witness is not None
            witnesses.append(sampled.witness)
        samples = [random_rat_matrix(rng, h, width, -1, 1) for h in range(1, width + 1) for _ in range(3)]
        for H in samples + [w for w in witnesses if w is not None]:
            stacked = [list(row) for row in ar.P.entries] + [[HomPoly.constant(x) for x in row] for row in H.entries]
            rank_q = generic_rank(Q.mul_rat(H.transpose()))
            assert generic_rank(HomPolyMatrix.from_rows(stacked)) - ar.p == rank_q, (ar.P, H)
            lowered += rank_q < H.rank()
    assert lowered > 0 and refuted > 0
