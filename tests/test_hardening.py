"""Cross-validation suites: each checks one engine against an independent,
dumber route (random search, grid enumeration, or a second algorithm)."""

import ast
import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path


from fbinv.arsys import compute_Q, observable_part, validate
from fbinv.linalg import RatMatrix
from fbinv.multipoly import MultiPoly
from fbinv.ideals import groebner
from fbinv.poly import HomPoly
from fbinv.polymatrix import HomPolyMatrix, generic_rank
from fbinv.sampling import random_ar_system
from fbinv.stability import (
    DegeneracyStatus,
    StabilityMode,
    StabilityStatus,
    is_nondegenerate,
    stability_check,
    stacked_determinant,
)


def test_exhaustive_and_generic_modes_are_consistent():
    # exhaustive certificates bound what any sampled flag can see, and a
    # generic refutation must show up in the exhaustive answer
    rng = random.Random(71)
    for _ in range(25):
        m = rng.randint(1, 2)
        p = rng.randint(1, 2)
        n = rng.randint(0, 3)
        ar = random_ar_system(rng, m, p, n, lo=-2, hi=2)
        exact = stability_check(ar, StabilityMode.EXHAUSTIVE)
        sampled = stability_check(ar, StabilityMode.GENERIC_SUBSPACE, seed=rng.randint(0, 99))
        exact_by_h = {r.h: r for r in exact.details}
        for r in sampled.details:
            if exact_by_h[r.h].strict_ok:
                assert r.achieved >= r.strict_bound
            if exact_by_h[r.h].weak_ok:
                assert r.achieved >= r.weak_bound
        if sampled.status == StabilityStatus.CRITERION_FAILS:
            assert exact.status != StabilityStatus.STABLE_CERTIFIED


def test_degeneracy_against_grid_search():
    # brute-force small-integer K matrices; any hit must force Degenerate
    rng = random.Random(72)
    grid_vals = (-1, 0, 1)
    for _ in range(30):
        n = rng.randint(1, 2)
        ar = random_ar_system(rng, 1, 2, n, lo=-2, hi=2)
        verdict = is_nondegenerate(ar)
        hit = None
        for flat in product(grid_vals, repeat=3):
            K = RatMatrix.from_rows([list(flat)])
            if K.rank() != 1:
                continue
            if stacked_determinant(ar.P, K).is_zero():
                hit = K
                break
        if hit is not None:
            assert verdict.status == DegeneracyStatus.DEGENERATE, str(hit)
        if verdict.status == DegeneracyStatus.NONDEGENERATE:
            assert hit is None


def test_low_rank_subspace_negative_fuzz():
    # when the exhaustive check certifies "no subspace below the bound",
    # random rational subspaces cannot find one either
    rng = random.Random(73)
    for _ in range(15):
        m = rng.randint(1, 2)
        p = rng.randint(1, 2)
        ar = random_ar_system(rng, m, p, rng.randint(0, 3), lo=-2, hi=2)
        verdict = stability_check(ar, StabilityMode.EXHAUSTIVE)
        syz = compute_Q(observable_part(ar))
        width = m + p
        for report in verdict.details:
            if report.strict_ok is not True:
                continue
            for _ in range(20):
                rows = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(report.h)]
                H = RatMatrix.from_rows(rows)
                if H.rank() != report.h:
                    continue
                moved = syz.Q.mul_rat(H.transpose())
                rng.randint(0, 999)  # spare draw, kept so the sampled subspaces stay fixed
                assert generic_rank(moved) >= report.strict_bound


def test_groebner_on_products_of_linear_forms():
    # ideals generated by products of linear univariate factors: solvable
    # exactly when the factor sets share a common root
    rng = random.Random(74)
    x = ("x",)

    def poly_with_roots(roots):
        acc = MultiPoly.constant(x, 1)
        for r in roots:
            acc = acc * MultiPoly(x, {(1,): Fraction(1), (0,): Fraction(-r)})
        return acc

    for _ in range(40):
        roots_a = {rng.randint(-3, 3) for _ in range(rng.randint(1, 3))}
        roots_b = {rng.randint(-3, 3) for _ in range(rng.randint(1, 3))}
        verdict = groebner([poly_with_roots(roots_a), poly_with_roots(roots_b)])
        assert verdict.solvable == bool(roots_a & roots_b)


def test_stability_status_matches_observable_part():
    rng = random.Random(75)
    for _ in range(12):
        ar = random_ar_system(rng, rng.randint(1, 2), 1, rng.randint(1, 3), lo=-2, hi=2)
        full = stability_check(ar, StabilityMode.EXHAUSTIVE)
        part = stability_check(observable_part(ar), StabilityMode.EXHAUSTIVE)
        assert full.status == part.status


def test_degenerate_verdicts_from_chart_path_always_verify():
    rng = random.Random(76)
    degenerate_seen = 0
    for _ in range(40):
        # n < m p guarantees degeneracy, exercising the witness machinery
        ar = random_ar_system(rng, 2, 2, rng.randint(0, 3), lo=-2, hi=2)
        verdict = is_nondegenerate(ar)
        assert verdict.status == DegeneracyStatus.DEGENERATE
        degenerate_seen += 1
        for report in verdict.chart_reports:
            if report.witness is not None:
                assert stacked_determinant(ar.P, report.witness).is_zero()
                assert report.witness.rank() == ar.m
    assert degenerate_seen == 40


def test_miso_exhaustive_sweep_tiny_grid():
    # every degree-1 single-input system over a tiny coefficient grid:
    # semistable exactly when the two coefficient vectors are independent
    for a, b, c, d in product((-1, 0, 1), repeat=4):
        if a == b == 0 and c == d == 0:
            continue
        P = HomPolyMatrix.from_rows(
            [[HomPoly.from_coeffs(1, [a, b]), HomPoly.from_coeffs(1, [c, d])]]
        )
        ar = validate(P, (1,), 1, 1)
        verdict = stability_check(ar, StabilityMode.EXHAUSTIVE)
        independent = a * d - b * c != 0
        semistable = verdict.status in (
            StabilityStatus.STABLE_CERTIFIED,
            StabilityStatus.SEMISTABLE_CERTIFIED,
        )
        assert semistable == independent


def test_library_has_no_assert_statement():
    """python -O strips assert statements, so no check in the library may rest on one.

    Reads the source tree src/fbinv itself, whichever copy of fbinv is imported.
    """
    modules = sorted((Path(__file__).resolve().parent.parent / "src" / "fbinv").rglob("*.py"))
    assert any(path.name == "__init__.py" for path in modules) and len(modules) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
