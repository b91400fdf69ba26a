import random
from itertools import combinations

import pytest

from fbinv.arsys import act_T, validate
from fbinv.errors import DegenerateSystem, DimensionMismatch
from fbinv.grassmann import GrassmannPoint
from fbinv.linalg import RatMatrix
from fbinv.miso import ambient_dimension_N, miso_equivalent, miso_invariant
from fbinv.poly import HomPoly
from fbinv.polymatrix import HomPolyMatrix
from fbinv.sampling import random_ar_system, random_invertible
from fbinv.stability import DegeneracyStatus, is_nondegenerate
from oracles import det

S = HomPoly.monomial(1, 1, 0)
T = HomPoly.monomial(1, 0, 1)


def hp(degree, terms):
    return HomPoly.from_terms(degree, terms)


def miso(entries, degree, m):
    return validate(HomPolyMatrix.from_rows([entries]), (degree,), m=m, p=1)


def test_invariant_monomials():
    ar = miso([HomPoly.monomial(1, 2, 0), HomPoly.monomial(1, 0, 2)], 2, 1)
    point = miso_invariant(ar)
    assert point.canonical_basis == RatMatrix.from_rows([[1, 0, 0], [0, 0, 1]])
    assert point.pluecker == (0, 1, 0)


def test_invariant_full_space():
    point = miso_invariant(miso([S, T], 1, 1))
    assert point.canonical_basis == RatMatrix.identity(2)


def test_invariant_same_span():
    a = miso([HomPoly.monomial(1, 2, 0), HomPoly.monomial(1, 0, 2)], 2, 1)
    b = miso([hp(2, [(1, 2, 0), (1, 0, 2)]), hp(2, [(1, 2, 0), (-1, 0, 2)])], 2, 1)
    assert miso_invariant(a) == miso_invariant(b)
    assert miso_equivalent(a, b)


def test_invariant_distinct_spans():
    a = miso([HomPoly.monomial(1, 2, 0), HomPoly.monomial(1, 0, 2)], 2, 1)
    c = miso([HomPoly.monomial(1, 2, 0), HomPoly.monomial(1, 1, 1)], 2, 1)
    assert not miso_equivalent(a, c)


def test_invariant_rejects_degenerate():
    with pytest.raises(DegenerateSystem):
        miso_invariant(miso([S, S.scale(3)], 1, 1))


def test_equivalent_dimension_checks():
    a = miso([S, T], 1, 1)
    b = miso([HomPoly.monomial(1, 2, 0), HomPoly.monomial(1, 0, 2)], 2, 1)
    with pytest.raises(DimensionMismatch):
        miso_equivalent(a, b)


def test_invariance_under_action():
    rng = random.Random(23)
    for _ in range(20):
        m = rng.randint(1, 2)
        n = rng.randint(m, 4)
        ar = random_ar_system(rng, m, 1, n)
        if is_nondegenerate(ar).status != DegeneracyStatus.NONDEGENERATE:
            continue
        base = miso_invariant(ar)
        for _ in range(10):
            T_mat = random_invertible(rng, m + 1)
            assert miso_invariant(act_T(ar, T_mat)) == base
            assert miso_equivalent(ar, act_T(ar, T_mat))


def test_equivalence_relation_properties():
    rng = random.Random(29)
    systems = []
    while len(systems) < 6:
        ar = random_ar_system(rng, 1, 1, 2)
        if is_nondegenerate(ar).status == DegeneracyStatus.NONDEGENERATE:
            systems.append(ar)
    for a in systems:
        assert miso_equivalent(a, a)
        for b in systems:
            assert miso_equivalent(a, b) == miso_equivalent(b, a)
            for c in systems:
                if miso_equivalent(a, b) and miso_equivalent(b, c):
                    assert miso_equivalent(a, c)


def test_pluecker_vector_needs_no_normalisation():
    # the first nonzero maximal minor of an rref basis is the one on its pivot columns: 1
    rng = random.Random(43)
    checked = 0
    while checked < 40:
        amb = rng.randint(2, 6)
        k = rng.randint(1, amb)
        rows = RatMatrix.from_rows([[rng.choice((0, 0, 0, 1, -2, 3)) for _ in range(amb)] for _ in range(k)], amb)
        if rows.rank() < k:
            continue
        checked += 1
        point = GrassmannPoint.from_rows(rows.entries, amb)
        subsets = list(combinations(range(amb), k))
        basis = point.canonical_basis
        assert point.pluecker == tuple(det(basis.submatrix(range(k), cols)) for cols in subsets)
        assert next(c for c in point.pluecker if c != 0) == 1
        # the same point of projective space as the minors of the rows it was built from
        minors = [det(rows.submatrix(range(k), cols)) for cols in subsets]
        first = next(c for c in minors if c != 0)
        assert point.pluecker == tuple(c / first for c in minors)


def test_pluecker_quadratic_relations():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(2, 3)
        ar = random_ar_system(rng, 1, 1, n)
        if is_nondegenerate(ar).status != DegeneracyStatus.NONDEGENERATE:
            continue
        point = miso_invariant(ar)
        amb = point.ambient_dim
        coords = {cols: val for cols, val in zip(combinations(range(amb), 2), point.pluecker)}

        def pl(i, j):
            if i == j:
                return 0
            return coords[(i, j)] if i < j else -coords[(j, i)]

        # Grass(2, *) relations: p_ij p_kl - p_ik p_jl + p_il p_jk = 0
        for (i, j, k, l) in combinations(range(amb), 4):
            assert pl(i, j) * pl(k, l) - pl(i, k) * pl(j, l) + pl(i, l) * pl(j, k) == 0


def test_ambient_dimension():
    assert ambient_dimension_N(1, 1) == 3
    assert ambient_dimension_N(2, 3) == 11
    for m in range(1, 4):
        for n in range(1, 5):
            assert (m + 1) * (n + 1) - 1 == ambient_dimension_N(m, n)
