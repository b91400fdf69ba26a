"""Bundled reference system: a 2-output, 3-input, degree-4 system that is
degenerate yet stable.  It exercises every layer of the package and backs the
``verify-example51`` CLI command.
"""

from __future__ import annotations

from typing import Any

from .arsys import ARSystem, compute_Q, kernel_product_is_zero, row_modules_equal, validate
from .linalg import RatMatrix
from .poly import HomPoly
from .polymatrix import HomPolyMatrix


def _hp(degree, terms):
    return HomPoly.from_terms(degree, terms)


def reference_system() -> ARSystem:
    """The 2x5 matrix with row degrees (2, 2); p = 2, m = 3, n = 4."""
    s2 = _hp(2, [(1, 2, 0)])
    st = _hp(2, [(1, 1, 1)])
    t2 = _hp(2, [(1, 0, 2)])
    row1 = [s2, st, t2, s2, _hp(2, [(1, 2, 0), (1, 0, 2)])]
    row2 = [st, t2, s2, _hp(2, [(1, 2, 0), (2, 0, 2)]), _hp(2, [(1, 2, 0), (-1, 0, 2)])]
    return validate(HomPolyMatrix.from_rows([row1, row2]), (2, 2), m=3, p=2)


def reference_kernel_rows() -> tuple[tuple[tuple[HomPoly, ...], ...], tuple[int, ...]]:
    """The known minimal kernel basis, row degrees (1, 1, 2)."""
    row1 = (_hp(1, [(-1, 0, 1)]), _hp(1, [(1, 1, 0)]), HomPoly.zero(1), HomPoly.zero(1), HomPoly.zero(1))
    row2 = (
        _hp(1, [(1, 1, 0), (5, 0, 1)]),
        _hp(1, [(-2, 0, 1)]),
        _hp(1, [(1, 1, 0), (4, 0, 1)]),
        _hp(1, [(-2, 1, 0), (-1, 0, 1)]),
        _hp(1, [(1, 1, 0), (-4, 0, 1)]),
    )
    row3 = (
        _hp(2, [(-1, 2, 0), (-4, 1, 1), (-8, 0, 2)]),
        _hp(2, [(3, 0, 2)]),
        _hp(2, [(-1, 2, 0), (-3, 1, 1), (-7, 0, 2)]),
        _hp(2, [(1, 2, 0), (4, 1, 1), (2, 0, 2)]),
        _hp(2, [(7, 0, 2)]),
    )
    return (row1, row2, row3), (1, 1, 2)


def reference_degeneracy_witness() -> RatMatrix:
    """K = [e3; e4; e5]: stacking it under P gives an identically zero determinant."""
    return RatMatrix.from_rows(
        [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    )


def run_reference_checks(seed: int = 0, budget=None) -> dict[str, Any]:
    """Run the full worked-example verification; returns a plain report dict.

    Checks: (a) the system is degenerate with the known witness verified
    symbolically, (b) the computed kernel basis has row degrees {1,1,2} and
    generates the same module as the known one, (c) the generic-flag rank
    profile meets the stability bounds at h = 3 and h = 4, (d) the exhaustive
    check certifies the point stable; any other verdict fails the check.
    """
    from .ideals import DEFAULT_BUDGET
    from .stability import (
        DegeneracyStatus,
        StabilityMode,
        StabilityStatus,
        is_nondegenerate,
        stability_check,
        stacked_determinant,
    )

    if budget is None:
        budget = DEFAULT_BUDGET
    ar = reference_system()
    report: dict[str, Any] = {"system": "degenerate-but-stable 2x5 reference", "checks": {}}

    witness = reference_degeneracy_witness()
    det = stacked_determinant(ar.P, witness)
    verdict = is_nondegenerate(ar, budget=budget)
    witness_ok = det.is_zero() and witness.rank() == witness.rows
    returned_ok = verdict.status == DegeneracyStatus.DEGENERATE and verdict.witness is not None
    if returned_ok:
        own_det = stacked_determinant(ar.P, verdict.witness)
        returned_ok = own_det.is_zero() and verdict.witness.rank() == verdict.witness.rows
    # the selector-row chart {3,4,5} must be reported solvable with exactly
    # the known witness (its echelon cell is a single point)
    selector_chart = (2, 3, 4)
    found = verdict.witnessed_charts().get(selector_chart)
    selector_ok = found == witness
    report["checks"]["degenerate"] = {
        "pass": bool(witness_ok and returned_ok and selector_ok),
        "status": verdict.status.value,
        "known_witness_verifies": witness_ok,
        "selector_chart_reported": selector_ok,
        "selector_chart": [c + 1 for c in selector_chart],
        "witness_chart": [c + 1 for c in verdict.chart] if verdict.chart else None,
    }

    syz = compute_Q(ar)
    known_rows, known_degrees = reference_kernel_rows()
    degrees_ok = sorted(syz.row_degrees) == sorted(known_degrees)
    product_ok = kernel_product_is_zero(ar.P, syz.Q)
    module_ok = row_modules_equal(syz.Q.entries, syz.row_degrees, known_rows, known_degrees)
    report["checks"]["kernel"] = {
        "pass": bool(degrees_ok and product_ok and module_ok),
        "row_degrees": list(syz.row_degrees),
        "product_vanishes": product_ok,
        "matches_known_module": module_ok,
    }

    generic = stability_check(ar, mode=StabilityMode.GENERIC_SUBSPACE, seed=seed, budget=budget)
    by_h = {r.h: r for r in generic.details}
    ranks_ok = by_h[3].achieved >= 2 and by_h[4].achieved >= 3
    report["checks"]["generic_ranks"] = {
        "pass": bool(ranks_ok),
        "profile": [
            {"h": r.h, "achieved": r.achieved, "strict_bound": r.strict_bound}
            for r in generic.details
        ],
    }

    exact = stability_check(ar, mode=StabilityMode.EXHAUSTIVE, seed=seed, budget=budget)
    stable_certified = exact.status == StabilityStatus.STABLE_CERTIFIED
    report["checks"]["stability"] = {"pass": stable_certified, "status": exact.status.value}

    degenerate_but_stable = report["checks"]["degenerate"]["pass"] and stable_certified
    report["verdict"] = "degenerate but stable" if degenerate_but_stable else "unconfirmed"
    report["pass"] = all(c["pass"] for c in report["checks"].values())
    return report
