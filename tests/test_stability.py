import random

import dataclasses
from fractions import Fraction

import pytest

from fbinv import stability
from fbinv.arsys import act_T, validate
from fbinv.errors import WitnessCheckFailed
from fbinv.ideals import DEFAULT_BUDGET, GroebnerBudget, groebner
from fbinv.multipoly import MultiPoly
from fbinv.linalg import RatMatrix
from fbinv.poly import HomPoly
from fbinv.polymatrix import HomPolyMatrix
from fbinv.reference import reference_degeneracy_witness, reference_system
from fbinv.sampling import random_ar_system, random_invertible, random_rat_matrix
from fbinv.stability import (
    DegeneracyStatus,
    GradedBound,
    MinorCombination,
    StabilityMode,
    StabilityStatus,
    is_nondegenerate,
    is_unit_certificate,
    stability_check,
    stacked_determinant,
)
from oracles import euler_characteristic, laplace_stacked_determinant, nondegenerate_implies_stable_suite

S = HomPoly.monomial(1, 1, 0)
T = HomPoly.monomial(1, 0, 1)


def hp(degree, terms):
    return HomPoly.from_terms(degree, terms)


def miso(entries, degree, m):
    return validate(HomPolyMatrix.from_rows([entries]), (degree,), m=m, p=1)


def test_euler_characteristic():
    assert euler_characteristic(3, 4, 2) == 13
    assert euler_characteristic(2, 0, 0) == 2
    assert euler_characteristic(0, 5, 7) == 5


def test_graded_bounds():
    b = GradedBound.for_dimension(3, 3, 2)
    assert (b.strict_bound, b.weak_bound) == (2, 2)
    b4 = GradedBound.for_dimension(4, 3, 2)
    assert (b4.strict_bound, b4.weak_bound) == (3, 3)
    b_int = GradedBound.for_dimension(2, 2, 2)  # m h/(m+p) = 1 exactly
    assert (b_int.strict_bound, b_int.weak_bound) == (2, 1)
    assert b_int.strict_bound >= b_int.weak_bound


def test_laplace_identity_random():
    rng = random.Random(64)
    for _ in range(20):
        p = rng.randint(1, 3)
        m = rng.randint(1, 3)
        width = m + p
        degrees = [rng.randint(0, 2) for _ in range(p)]
        grid = [
            [HomPoly.from_coeffs(d, [rng.randint(-3, 3) for _ in range(d + 1)]) for _ in range(width)]
            for d in degrees
        ]
        P = HomPolyMatrix.from_rows(grid)
        K = random_rat_matrix(rng, m, width, -4, 4)
        direct = stacked_determinant(P, K)
        laplace = laplace_stacked_determinant(P, K)
        assert (direct - laplace).is_zero()


def test_nondegenerate_line():
    verdict = is_nondegenerate(miso([S, T], 1, 1))
    assert verdict.status == DegeneracyStatus.NONDEGENERATE


def test_degenerate_proportional_entries():
    verdict = is_nondegenerate(miso([S, S.scale(2)], 1, 1))
    assert verdict.status == DegeneracyStatus.DEGENERATE
    assert verdict.witness == RatMatrix.from_rows([[1, 2]])
    assert stacked_determinant(miso([S, S.scale(2)], 1, 1).P, verdict.witness).is_zero()


def test_miso_agreement_with_linear_independence():
    rng = random.Random(6)
    for _ in range(200):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        ar = random_ar_system(rng, m, 1, n, lo=-2, hi=2)
        verdict = is_nondegenerate(ar)
        rows = []
        from fbinv.poly import dehomogenize

        for e in ar.P.entries[0]:
            u = dehomogenize(e)
            rows.append([u.coeff(a) for a in range(n + 1)])
        independent = RatMatrix.from_rows(rows, n + 1).rank() == m + 1
        assert (verdict.status == DegeneracyStatus.NONDEGENERATE) == independent
        if verdict.status == DegeneracyStatus.DEGENERATE:
            assert stacked_determinant(ar.P, verdict.witness).is_zero()
            assert verdict.witness.rank() == ar.m


def test_reference_is_degenerate_with_selector_witness():
    ar = reference_system()
    verdict = is_nondegenerate(ar)
    assert verdict.status == DegeneracyStatus.DEGENERATE
    assert verdict.witness is not None
    assert stacked_determinant(ar.P, verdict.witness).is_zero()
    assert verdict.witness.rank() == 3
    # the known selector-row witness verifies symbolically as well
    known = reference_degeneracy_witness()
    assert stacked_determinant(ar.P, known).is_zero()


def test_nondegenerate_two_output_case():
    # rows s, t and independent constants: det [P; K] involves all columns
    P = validate(
        HomPolyMatrix.from_rows(
            [[S, T, HomPoly.zero(1)], [HomPoly.zero(1), S, T]]
        ),
        (1, 1),
        m=1,
        p=2,
    )
    verdict = is_nondegenerate(P)
    assert verdict.status == DegeneracyStatus.NONDEGENERATE


def test_stability_line_stable():
    verdict = stability_check(miso([S, T], 1, 1))
    assert verdict.status == StabilityStatus.STABLE_CERTIFIED
    assert all(r.strict_ok for r in verdict.details)


def test_stability_repeated_entry_fails_with_witness():
    s2t2 = hp(2, [(1, 2, 0), (1, 0, 2)])
    ar = miso([s2t2, s2t2], 2, 1)
    verdict = stability_check(ar)
    assert verdict.status == StabilityStatus.CRITERION_FAILS
    assert verdict.details[0].weak_ok is False
    assert verdict.witness == RatMatrix.from_rows([[1, 1]])


def test_stability_generic_mode_cannot_certify():
    verdict = stability_check(miso([S, T], 1, 1), mode=StabilityMode.GENERIC_SUBSPACE, seed=3)
    assert verdict.status == StabilityStatus.NOT_CERTIFIED
    assert verdict.details[0].achieved >= verdict.details[0].strict_bound


def test_reference_generic_rank_profile():
    ar = reference_system()
    verdict = stability_check(ar, mode=StabilityMode.GENERIC_SUBSPACE, seed=0)
    by_h = {r.h: r for r in verdict.details}
    assert by_h[3].achieved >= 2
    assert by_h[4].achieved >= 3
    assert verdict.status == StabilityStatus.NOT_CERTIFIED


def test_reference_exhaustive_stable():
    ar = reference_system()
    verdict = stability_check(ar, budget=GroebnerBudget(max_pairs=4000, max_degree=60))
    assert verdict.status == StabilityStatus.STABLE_CERTIFIED


def test_reference_exhaustive_decided_without_s_pairs():
    """Every chart of the reference system has a constant in its linear span."""
    verdict = stability_check(reference_system(), budget=GroebnerBudget(max_pairs=0))
    assert verdict.status == StabilityStatus.STABLE_CERTIFIED
    assert all(r.strict_ok for r in verdict.details)


def test_changed_certificate_fails_the_check():
    x = ("x", "y")
    gens = [
        MultiPoly(x, {(1, 0): 1, (0, 1): 2}),
        MultiPoly(x, {(1, 0): 3, (0, 0): Fraction(1, 2)}),
        MultiPoly(x, {(0, 1): 1, (0, 0): -1}),
    ]
    certificate = groebner(gens).certificate
    assert is_unit_certificate(gens, certificate)
    for i in range(len(gens)):
        changed = list(certificate)
        changed[i] += 1
        assert not is_unit_certificate(gens, changed)
    assert not is_unit_certificate(gens, certificate[:-1])


def test_chart_search_raises_on_a_changed_certificate(monkeypatch):
    def tampered(generators, budget=DEFAULT_BUDGET):
        verdict = groebner(generators, budget)
        if verdict.certificate is None:
            return verdict
        changed = (verdict.certificate[0] + 1,) + verdict.certificate[1:]
        return dataclasses.replace(verdict, certificate=changed)

    monkeypatch.setattr(stability, "groebner", tampered)
    with pytest.raises(WitnessCheckFailed):
        stability_check(reference_system())


def test_chart_search_raises_on_a_rejected_witness():
    # no rows, so no generators: every chart is solvable, at the chart's origin
    search = stability._chart_search(2, 1, MinorCombination(1, (), ()), lambda witness: False, DEFAULT_BUDGET)
    with pytest.raises(WitnessCheckFailed):
        next(search)


def ladder_system():
    return random_ar_system(random.Random(0), 2, 2, 3, row_degrees=(0, 3))


@pytest.mark.parametrize(
    "max_pairs, status, rows",
    [
        (0, StabilityStatus.NOT_CERTIFIED, {1: (None, None), 2: (None, True), 3: (True, True)}),
        (1, StabilityStatus.NOT_CERTIFIED, {1: (None, None), 2: (False, True), 3: (True, True)}),
        (3, StabilityStatus.CRITERION_FAILS, {1: (False, False), 2: (False, True), 3: (True, True)}),
        (10, StabilityStatus.CRITERION_FAILS, {1: (False, False), 2: (False, True), 3: (True, True)}),
    ],
)
def test_exhaustive_budget_ladder(max_pairs, status, rows):
    """A chart that runs out of S-pairs leaves its h undecided, never decided wrongly."""
    verdict = stability_check(ladder_system(), budget=GroebnerBudget(max_pairs=max_pairs))
    assert verdict.status == status
    assert {r.h: (r.strict_ok, r.weak_ok) for r in verdict.details} == rows
    assert all((r.achieved is None) == (r.weak_ok is not True) for r in verdict.details)
    full = stability_check(ladder_system())
    for row, settled in zip(verdict.details, full.details):
        assert row.strict_ok in (None, settled.strict_ok)
        assert row.weak_ok in (None, settled.weak_ok)


def test_stability_invariant_under_action():
    rng = random.Random(15)
    for _ in range(6):
        ar = random_ar_system(rng, 1, 1, 2, lo=-3, hi=3)
        T_mat = random_invertible(rng, 2)
        a = stability_check(ar)
        b = stability_check(act_T(ar, T_mat))
        assert a.status == b.status


def test_nondegenerate_implies_stable_small_suite():
    report = nondegenerate_implies_stable_suite([(1, 1, 2), (1, 2, 2)], samples=10, seed=4)
    assert report["counterexamples"] == 0
    for entry in report["sizes"]:
        assert entry["not_certified"] == 0
        assert entry["stable_certified"] == entry["nondegenerate"]


@pytest.mark.parametrize(
    "seed, m, p, n, rows",
    [(0, 3, 2, 5, None), (0, 2, 3, 5, (2, 2, 1)), (1, 2, 2, 3, [1, 2])],
)
def test_witness_with_large_root_finding_inputs(seed, m, p, n, rows):
    """Charts whose univariate eliminants have constant terms of 41 to 138 bits."""
    ar = random_ar_system(random.Random(seed), m, p, n, row_degrees=rows)
    verdict = is_nondegenerate(ar)
    assert verdict.status == DegeneracyStatus.DEGENERATE
    assert laplace_stacked_determinant(ar.P, verdict.witness).is_zero()
    assert verdict.witness.rank() == ar.m
    stability = stability_check(ar)
    assert stability.status in (StabilityStatus.STABLE_CERTIFIED, StabilityStatus.SEMISTABLE_CERTIFIED)
