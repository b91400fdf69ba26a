import random
from fractions import Fraction

import pytest

from oracles import cleared_denominator_identity_holds, mfd_is_left_coprime
from fbinv.errors import NotObservable, ShapeMismatch
from fbinv.linalg import RatMatrix
from fbinv.poly import HomPoly, UniPoly
from fbinv.realization import (
    MFD,
    FeedbackTransform,
    StateSpace,
    apply_extended_feedback,
    apply_full_feedback,
    extended_action_consistency,
    left_coprime_mfd,
    observable_subsystem,
    to_hom_ar,
)
from fbinv.sampling import random_feedback_transform, random_state_space


def scalar_ss(a=0, b=1, c=1, d=0):
    return StateSpace(
        RatMatrix.from_rows([[a]]),
        RatMatrix.from_rows([[b]]),
        RatMatrix.from_rows([[c]]),
        RatMatrix.from_rows([[d]]),
    )


def up(*coeffs):
    return UniPoly.from_coeffs(coeffs)


def scalar_mfd(dpoly, npoly):
    return MFD((((dpoly),),), (((npoly),),), (max(dpoly.degree, 0),))


def test_apply_full_feedback_scalar_loop():
    g = FeedbackTransform(
        RatMatrix.identity(1), RatMatrix.identity(1), RatMatrix.identity(1), RatMatrix.from_rows([[2]])
    )
    out = apply_full_feedback(scalar_ss(), g)
    assert out.A == RatMatrix.from_rows([[2]])
    assert out.B == RatMatrix.identity(1) and out.C == RatMatrix.identity(1)


def test_apply_full_feedback_identity():
    ss = scalar_ss()
    assert apply_full_feedback(ss, FeedbackTransform.identity(1, 1, 1)) == ss


def test_apply_full_feedback_state_scaling():
    g = FeedbackTransform(
        RatMatrix.from_rows([[3]]), RatMatrix.identity(1), RatMatrix.identity(1), RatMatrix.zeros(1, 1)
    )
    out = apply_full_feedback(scalar_ss(), g)
    assert out.A == RatMatrix.from_rows([[0]])
    assert out.B == RatMatrix.from_rows([[3]])
    assert out.C == RatMatrix.from_rows([[Fraction(1, 3)]])


def test_apply_full_feedback_requires_strictly_proper():
    with pytest.raises(ShapeMismatch):
        apply_full_feedback(scalar_ss(d=1), FeedbackTransform.identity(1, 1, 1))


def test_feedback_group_action_law():
    rng = random.Random(40)
    for _ in range(10):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        p = rng.randint(1, 2)
        ss = random_state_space(rng, n, m, p)
        g1 = random_feedback_transform(rng, n, m, p)
        g2 = random_feedback_transform(rng, n, m, p)
        assert apply_full_feedback(apply_full_feedback(ss, g1), g2) == apply_full_feedback(ss, g1.then(g2))


def test_external_matrix_is_a_homomorphism():
    rng = random.Random(41)
    for _ in range(10):
        m = rng.randint(1, 2)
        p = rng.randint(1, 2)
        g1 = random_feedback_transform(rng, 1, m, p)
        g2 = random_feedback_transform(rng, 1, m, p)
        left = g1.then(g2).external_matrix()
        right = g2.external_matrix() @ g1.external_matrix()
        assert left == right


def test_apply_extended_identity():
    mfd = scalar_mfd(up(0, 1), up(1))
    out = apply_extended_feedback(mfd, RatMatrix.identity(2))
    assert out.Dmat == mfd.Dmat and out.Nmat == mfd.Nmat and not out.improper


def test_apply_extended_feed_forward_block():
    mfd = scalar_mfd(up(0, 1), up(1))  # (s, 1)
    out = apply_extended_feedback(mfd, RatMatrix.from_rows([[1, 0], [1, 1]]))
    assert out.Dmat[0][0] == up(-1, 1)  # s - 1
    assert out.Nmat[0][0] == up(1)
    assert not out.improper


def test_apply_extended_diagonal_scaling():
    mfd = scalar_mfd(up(0, 1), up(1))
    out = apply_extended_feedback(mfd, RatMatrix.from_rows([[1, 0], [0, 2]]))
    assert out.Dmat[0][0] == up(0, 1)
    assert out.Nmat[0][0] == up(Fraction(1, 2))


def test_apply_extended_improper_tagging():
    # (s s) T^{-1} with T^{-1} = [[1,0],[-1,1]] zeroes the D-block: tagged, not raised
    mfd = scalar_mfd(up(0, 1), up(0, 1))
    out = apply_extended_feedback(mfd, RatMatrix.from_rows([[1, 0], [1, 1]]))
    assert out.improper
    assert out.Dmat[0][0].is_zero()
    assert out.Nmat[0][0] == up(0, 1)


def test_left_coprime_integrator():
    mfd = left_coprime_mfd(scalar_ss())
    assert mfd.row_degrees == (1,)
    assert mfd.Dmat[0][0] == up(0, 1)
    assert mfd.Nmat[0][0] == up(1)


def test_left_coprime_static_gain():
    # n = 0: the left kernel of the empty stack is everything, so D = I and N is the gain
    gain = RatMatrix.from_rows([[1, 2], [3, 4]])
    ss = StateSpace(RatMatrix.zeros(0, 0), RatMatrix.zeros(0, 2), RatMatrix.zeros(2, 0), gain)
    mfd = left_coprime_mfd(ss)
    assert mfd.row_degrees == (0, 0)
    assert mfd.Dmat == ((up(1), up()), (up(), up(1)))
    assert mfd.Nmat == ((up(1), up(2)), (up(3), up(4)))
    assert cleared_denominator_identity_holds(ss, mfd) and mfd_is_left_coprime(mfd)


def test_left_coprime_double_integrator():
    ss = StateSpace(
        RatMatrix.from_rows([[0, 1], [0, 0]]),
        RatMatrix.from_rows([[0], [1]]),
        RatMatrix.from_rows([[1, 0]]),
        RatMatrix.zeros(1, 1),
    )
    mfd = left_coprime_mfd(ss)
    assert mfd.row_degrees == (2,)
    assert mfd.Dmat[0][0] == up(0, 0, 1)
    assert mfd.Nmat[0][0] == up(1)
    assert cleared_denominator_identity_holds(ss, mfd)


def test_left_coprime_with_feedthrough():
    ss = scalar_ss(d=1)
    mfd = left_coprime_mfd(ss)
    assert mfd.Dmat[0][0] == up(0, 1)
    assert mfd.Nmat[0][0] == up(1, 1)
    assert cleared_denominator_identity_holds(ss, mfd)


def test_left_coprime_identity_suite():
    rng = random.Random(90)
    count = 0
    while count < 25:
        n = rng.randint(1, 4)
        m = rng.randint(1, 2)
        p = rng.randint(1, 2)
        ss = random_state_space(rng, n, m, p, strictly_proper=bool(rng.randint(0, 1)))
        if not ss.is_observable():
            continue
        count += 1
        mfd = left_coprime_mfd(ss)
        assert cleared_denominator_identity_holds(ss, mfd)
        assert mfd.n == ss.n
        if ss.is_controllable():
            # coprimeness needs minimality: row-degree sum must match the
            # McMillan degree of the transfer function itself
            assert mfd_is_left_coprime(mfd)


def test_non_observable_reduction_and_strict():
    # an unobservable mode: block diagonal with an invisible state
    ss = StateSpace(
        RatMatrix.from_rows([[1, 0], [0, 2]]),
        RatMatrix.from_rows([[1], [1]]),
        RatMatrix.from_rows([[1, 0]]),
        RatMatrix.zeros(1, 1),
    )
    assert not ss.is_observable()
    with pytest.raises(NotObservable):
        left_coprime_mfd(ss, strict=True)
    mfd = left_coprime_mfd(ss)
    assert mfd.reduced_from == 2
    assert mfd.n == 1
    reduced = observable_subsystem(ss)
    assert reduced.n == 1 and reduced.is_observable()
    assert cleared_denominator_identity_holds(reduced, mfd)


def test_left_coprime_with_dependent_output_rows():
    # C with dependent rows yields a degree-0 kernel row: one MFD row is constant
    ss = StateSpace(
        RatMatrix.from_rows([[0, 1], [0, 0]]),
        RatMatrix.from_rows([[0], [1]]),
        RatMatrix.from_rows([[1, 0], [1, 0]]),
        RatMatrix.zeros(2, 1),
    )
    assert ss.is_observable()
    mfd = left_coprime_mfd(ss)
    assert sorted(mfd.row_degrees) == [0, 2]
    assert mfd.n == 2
    assert cleared_denominator_identity_holds(ss, mfd)


def test_to_hom_ar_examples():
    mfd = scalar_mfd(up(0, 1), up(1))  # (s, 1)
    ar = to_hom_ar(mfd)
    assert ar.P.entries[0] == (HomPoly.monomial(-1, 0, 1), HomPoly.monomial(1, 1, 0))
    mfd2 = MFD(((up(0, 0, 1),),), ((up(1),),), (2,))
    ar2 = to_hom_ar(mfd2)
    assert ar2.P.entries[0] == (HomPoly.monomial(-1, 0, 2), HomPoly.monomial(1, 2, 0))
    assert ar2.row_degrees == (2,)


def test_consistency_identity_transform():
    assert extended_action_consistency(scalar_ss(), FeedbackTransform.identity(1, 1, 1))


def test_consistency_scalar_feedback():
    g = FeedbackTransform(
        RatMatrix.identity(1), RatMatrix.identity(1), RatMatrix.identity(1), RatMatrix.from_rows([[2]])
    )
    assert extended_action_consistency(scalar_ss(), g)


def test_consistency_random_pairs():
    rng = random.Random(123)
    checked = 0
    while checked < 20:
        n = rng.randint(1, 2)
        m = rng.randint(1, 2)
        p = rng.randint(1, 2)
        ss = random_state_space(rng, n, m, p, observable=True)
        g = random_feedback_transform(rng, n, m, p)
        if not apply_full_feedback(ss, g).is_observable():
            continue
        checked += 1
        assert extended_action_consistency(ss, g)
