import random
from fractions import Fraction

import pytest

from fbinv.arsys import (
    act_T,
    compute_Q,
    is_observable,
    kernel_product_is_zero,
    observable_part,
    rho_embedding,
    row_modules_equal,
    validate,
)
from fbinv.errors import EllTooSmall, NotHomogeneous, RankDeficient, ShapeMismatch, SingularTransform
from fbinv.linalg import RatMatrix
from fbinv.poly import HomPoly
from fbinv.polymatrix import HomPolyMatrix
from fbinv.reference import reference_kernel_rows, reference_system
from fbinv.sampling import random_ar_system, random_invertible
from oracles import UnimodularWitness, check_unimodular_witness, grassmann_point_of, random_observable_ar_system

S = HomPoly.monomial(1, 1, 0)
T = HomPoly.monomial(1, 0, 1)


def hp(degree, terms):
    return HomPoly.from_terms(degree, terms)


def simple_ar():
    return validate(HomPolyMatrix.from_rows([[S, T]]), (1,), m=1, p=1)


def test_validate_simple():
    ar = simple_ar()
    assert ar.n == 1 and ar.m == 1 and ar.p == 1


def test_validate_reference():
    ar = reference_system()
    assert ar.n == 4 and (ar.m, ar.p) == (3, 2)


def test_validate_rejects_mixed_degrees():
    bad = HomPolyMatrix.from_rows([[S, HomPoly.monomial(1, 2, 0)]])
    with pytest.raises(NotHomogeneous):
        validate(bad, (1,), m=1, p=1)


def test_validate_rejects_rank_deficiency():
    zero_row = HomPolyMatrix.from_rows([[HomPoly.zero(1), HomPoly.zero(1)]])
    with pytest.raises(RankDeficient):
        validate(zero_row, (1,), m=1, p=1)
    with pytest.raises(ShapeMismatch):
        validate(HomPolyMatrix.from_rows([[S, T]]), (1,), m=2, p=1)


def test_is_observable_examples():
    assert is_observable(simple_ar())
    s2t2 = hp(2, [(1, 2, 0), (1, 0, 2)])
    assert not is_observable(validate(HomPolyMatrix.from_rows([[s2t2, s2t2]]), (2,), 1, 1))
    s2 = HomPoly.monomial(1, 2, 0)
    st = HomPoly.monomial(1, 1, 1)
    assert not is_observable(validate(HomPolyMatrix.from_rows([[s2, st]]), (2,), 1, 1))


def test_act_T_examples():
    ar = simple_ar()
    swap = RatMatrix.from_rows([[0, 1], [1, 0]])
    swapped = act_T(ar, swap)
    assert swapped.P.entries[0] == (T, S)
    assert act_T(ar, RatMatrix.identity(2)) == ar
    scaled = act_T(ar, RatMatrix.from_rows([[2, 0], [0, 1]]))
    assert scaled.P.entries[0][0] == S.scale(Fraction(1, 2))
    with pytest.raises(SingularTransform):
        act_T(ar, RatMatrix.from_rows([[1, 1], [1, 1]]))


def test_act_T_composition_law():
    rng = random.Random(2)
    for _ in range(10):
        ar = random_ar_system(rng, m=2, p=1, n=2)
        T1 = random_invertible(rng, 3)
        T2 = random_invertible(rng, 3)
        assert act_T(act_T(ar, T1), T2) == act_T(ar, T2 @ T1)


def test_compute_Q_line():
    syz = compute_Q(simple_ar())
    assert syz.row_degrees == (1,)
    assert syz.Q.entries[0] == (T, S.scale(-1))


def test_compute_Q_constant_kernel():
    s2t2 = hp(2, [(1, 2, 0), (1, 0, 2)])
    ar = validate(HomPolyMatrix.from_rows([[s2t2, s2t2]]), (2,), 1, 1)
    syz = compute_Q(ar)
    assert syz.row_degrees == (0,)
    assert syz.Q.entries[0] == (HomPoly.constant(1), HomPoly.constant(-1))


def test_compute_Q_reference_module():
    ar = reference_system()
    syz = compute_Q(ar)
    assert sorted(syz.row_degrees) == [1, 1, 2]
    assert kernel_product_is_zero(ar.P, syz.Q)
    known_rows, known_degrees = reference_kernel_rows()
    assert row_modules_equal(syz.Q.entries, syz.row_degrees, known_rows, known_degrees)


def test_kernel_product_random():
    rng = random.Random(31)
    for _ in range(15):
        m = rng.randint(1, 3)
        p = rng.randint(1, 2)
        n = rng.randint(0, 3)
        ar = random_ar_system(rng, m, p, n)
        syz = compute_Q(ar)
        assert kernel_product_is_zero(ar.P, syz.Q)
        assert len(syz.row_degrees) == m


def test_observable_syzygy_degree_sum():
    rng = random.Random(12)
    for _ in range(15):
        m = rng.randint(1, 3)
        p = rng.randint(1, 2)
        n = rng.randint(0, 3)
        ar = random_observable_ar_system(rng, m, p, n)
        syz = compute_Q(ar)
        assert sum(syz.row_degrees) == ar.n


def test_kernel_matrix_full_rank_at_every_point():
    # for observable systems Q drops rank nowhere on the projective line
    from fbinv.polymatrix import maximal_minors, poly_gcd_list

    rng = random.Random(13)
    for _ in range(10):
        ar = random_observable_ar_system(rng, rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, 3))
        syz = compute_Q(ar)
        assert poly_gcd_list(maximal_minors(syz.Q, ar.m)).degree == 0


def test_observable_part_examples():
    s2t2 = hp(2, [(1, 2, 0), (1, 0, 2)])
    ar = validate(HomPolyMatrix.from_rows([[s2t2, s2t2]]), (2,), 1, 1)
    part = observable_part(ar)
    assert part.n == 0
    assert part.P.entries[0] == (HomPoly.constant(1), HomPoly.constant(1))

    line = simple_ar()
    assert observable_part(line) == line

    s2 = HomPoly.monomial(1, 2, 0)
    st = HomPoly.monomial(1, 1, 1)
    common_factor = validate(HomPolyMatrix.from_rows([[s2, st]]), (2,), 1, 1)
    part = observable_part(common_factor)
    assert part.n == 1
    assert part.P.entries[0] == (S, T)


def test_observable_part_idempotent_and_observable():
    rng = random.Random(77)
    for _ in range(12):
        ar = random_ar_system(rng, rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, 3))
        part = observable_part(ar)
        assert is_observable(part)
        assert observable_part(part) == part
        assert part.n <= ar.n
        assert (part.n == ar.n) == is_observable(ar)


def test_rho_embedding_line():
    point = rho_embedding(simple_ar(), 1)
    assert point.subspace_dim == 1
    assert point.canonical_basis == RatMatrix.from_rows([[1, 0, 0, 1]])
    assert rho_embedding(simple_ar(), 2).subspace_dim == 2


def test_rho_embedding_reference_dimension():
    assert rho_embedding(reference_system(), 4).subspace_dim == 2 * 5 - 4


def test_rho_embedding_ell_too_small():
    with pytest.raises(EllTooSmall):
        rho_embedding(reference_system(), 3)


def test_rho_dimension_formula():
    rng = random.Random(5)
    for _ in range(10):
        m = rng.randint(1, 2)
        p = rng.randint(1, 2)
        n = rng.randint(0, 3)
        ar = random_observable_ar_system(rng, m, p, n)
        for ell in range(ar.n, ar.n + 3):
            assert rho_embedding(ar, ell).subspace_dim == p * (ell + 1) - ar.n


def test_rho_equivariance():
    rng = random.Random(8)
    for _ in range(8):
        m = rng.randint(1, 2)
        p = rng.randint(1, 2)
        ar = random_ar_system(rng, m, p, rng.randint(0, 2))
        T = random_invertible(rng, m + p)
        ell = ar.n + rng.randint(0, 2)
        left = rho_embedding(act_T(ar, T), ell)
        # the block action of T^{-1} on each monomial slot
        tinv = T.inverse()
        width = (m + p) * (ell + 1)
        big = [[Fraction(0)] * width for _ in range(width)]
        for k in range(m + p):
            for kk in range(m + p):
                for j in range(ell + 1):
                    big[k * (ell + 1) + j][kk * (ell + 1) + j] = tinv.entries[k][kk]
        big_mat = RatMatrix.from_rows(big)
        moved = rho_embedding(ar, ell).canonical_basis @ big_mat
        assert left == grassmann_point_of(moved)


def test_act_T_preserves_structure():
    rng = random.Random(10)
    for _ in range(8):
        ar = random_ar_system(rng, 2, 1, 2)
        T = random_invertible(rng, 3)
        moved = act_T(ar, T)
        assert moved.row_degrees == ar.row_degrees
        assert is_observable(moved) == is_observable(ar)
        syz = compute_Q(moved)
        assert kernel_product_is_zero(moved.P, syz.Q)


def test_unimodular_witness_constant():
    ar = reference_system()
    U = RatMatrix.from_rows([[1, 0], [1, 1]])
    grid = [[HomPoly.constant(U.entries[i][j]) for j in range(2)] for i in range(2)]
    transformed_rows = []
    for i in range(2):
        row = []
        for j in range(5):
            acc = HomPoly.zero(2)
            for k in range(2):
                acc = acc + ar.P.entries[k][j].scale(U.entries[i][k])
            row.append(acc)
        transformed_rows.append(row)
    dst = validate(HomPolyMatrix.from_rows(transformed_rows), ar.row_degrees, ar.m, ar.p)
    witness = UnimodularWitness(HomPolyMatrix.from_rows(grid))
    assert check_unimodular_witness(ar, dst, witness)
    assert not check_unimodular_witness(ar, ar, witness)


def test_unimodular_witness_degree_shape():
    # rows of different degrees: U must be lower triangular with the right degrees
    s2 = HomPoly.monomial(1, 2, 0)
    t2 = HomPoly.monomial(1, 0, 2)
    src = validate(
        HomPolyMatrix.from_rows([[S, T, HomPoly.zero(1)], [s2, t2, HomPoly.monomial(1, 1, 1)]]),
        (1, 2),
        m=1,
        p=2,
    )
    U = HomPolyMatrix.from_rows(
        [
            [HomPoly.constant(1), HomPoly.zero(0)],
            [T, HomPoly.constant(1)],
        ]
    )
    rows = [
        list(src.P.entries[0]),
        [T * src.P.entries[0][j] + src.P.entries[1][j] for j in range(3)],
    ]
    dst = validate(HomPolyMatrix.from_rows(rows), (1, 2), m=1, p=2)
    assert check_unimodular_witness(src, dst, UnimodularWitness(U))
