"""Nondegeneracy and the geometric (semi)stability criterion.

A system P is degenerate when some constant full-rank m x (m+p) matrix K
makes det [P; K] vanish identically.  The stability criterion asks that for a
generic point of the projective line every h-dimensional subspace H maps
under the kernel matrix Q of P to something of dimension > (m/(m+p)) h
(>= for semistability).  The row space of P over k(s,t) is exactly the
kernel of Q, so rank Q H^T = rank [P; H] - p, and both questions are rank
conditions on P stacked over a constant subspace: one Laplace combination of
the maximal minors of P builds the polynomial systems of both, whose
solvability over the complex numbers is decided exactly by Groebner bases
over chart parametrizations.  Witnesses and the random flags of
`GenericSubspace` mode are measured by the generic rank of [P; H] itself;
that mode can refute the criterion but never certify it.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

from .arsys import ARSystem
from .errors import WitnessCheckFailed
from .ideals import (
    DEFAULT_BUDGET,
    GroebnerBudget,
    IdealStatus,
    groebner,
    solve_if_zero_dimensional,
)
from .linalg import RatMatrix, integer_rref, subset_minors
from .miso import coefficient_matrix
from .multipoly import MultiPoly
from .poly import HomPoly
from .polymatrix import HomPolyMatrix, determinant, generic_rank, maximal_minors
from .sampling import random_invertible


# random flags whose rank profiles GenericSubspace mode compares with the bounds
FLAG_SAMPLES = 3


@dataclass(frozen=True)
class GradedBound:
    """Rank thresholds for subspaces of dimension h under the m/(m+p) slope."""

    h: int
    strict_bound: int
    weak_bound: int

    @classmethod
    def for_dimension(cls, h: int, m: int, p: int) -> "GradedBound":
        if not 1 <= h <= m + p - 1:
            raise ValueError("subspace dimension out of range")
        slope = Fraction(m * h, m + p)
        strict = slope.numerator // slope.denominator + 1
        weak = -((-slope.numerator) // slope.denominator)
        return cls(h, strict, weak)


class DegeneracyStatus(str, Enum):
    NONDEGENERATE = "Nondegenerate"
    DEGENERATE = "Degenerate"
    NOT_CERTIFIED = "NotCertified"


@dataclass(frozen=True)
class ChartReport:
    chart: tuple[int, ...]
    status: str
    witness: RatMatrix | None = None


@dataclass(frozen=True)
class DegeneracyVerdict:
    status: DegeneracyStatus
    witness: RatMatrix | None
    chart: tuple[int, ...] | None
    chart_reports: tuple[ChartReport, ...] = ()

    def witnessed_charts(self) -> dict[tuple[int, ...], RatMatrix]:
        return {r.chart: r.witness for r in self.chart_reports if r.witness is not None}


class StabilityStatus(str, Enum):
    STABLE_CERTIFIED = "StableCertified"
    SEMISTABLE_CERTIFIED = "SemistableCertified"
    CRITERION_FAILS = "CriterionFails"
    NOT_CERTIFIED = "NotCertified"


class StabilityMode(str, Enum):
    GENERIC_SUBSPACE = "GenericSubspace"
    EXHAUSTIVE = "Exhaustive"


@dataclass(frozen=True)
class RankReport:
    """Per-dimension record.

    In GenericSubspace mode `achieved` is the generic rank of the sampled
    flag prefix and the ok-flags compare it against the bounds.  In
    Exhaustive mode `achieved` is a certified lower bound for the minimum
    over all subspaces (None when a bound failed or the budget ran out) and
    the ok-flags state whether the strict/weak condition holds for every
    subspace (None = undecided within budget).
    """

    h: int
    weak_bound: int
    strict_bound: int
    achieved: int | None
    strict_ok: bool | None
    weak_ok: bool | None


@dataclass(frozen=True)
class StabilityVerdict:
    status: StabilityStatus
    mode: StabilityMode
    details: tuple[RankReport, ...]
    witness: RatMatrix | None = None


# ---------------------------------------------------------------------------
# Stacked determinants


def _stacked(P: HomPolyMatrix, H: RatMatrix) -> HomPolyMatrix:
    """[P; H], with H's entries as degree-0 forms."""
    rows = [list(r) for r in P.entries]
    rows += [[HomPoly.constant(x) for x in hrow] for hrow in H.entries]
    return HomPolyMatrix.from_rows(rows)


def stacked_determinant(P: HomPolyMatrix, K: RatMatrix) -> HomPoly:
    """det [P; K] computed directly on the stacked polynomial matrix."""
    return determinant(_stacked(P, K))


def _is_low_rank(ar: ARSystem, H: RatMatrix, size: int) -> bool:
    """Full row rank and rank [P; H] < p + size: det [P; H] = 0 for size = m,
    and rank Q H^T = rank [P; H] - p <= r for size = r + 1."""
    return H.rank() == H.rows and generic_rank(_stacked(ar.P, H)) < ar.p + size


# ---------------------------------------------------------------------------
# Echelon charts


def chart_parameter_matrix(pivots: Sequence[int], ambient: int) -> tuple[list[list[MultiPoly]], tuple[str, ...]]:
    """Rows of a reduced-echelon matrix with the given pivot columns.

    Entries are None (zero), 1-markers, or parameter positions; returned as a
    symbolic grid over the chart's parameters, ordered row-major.
    """
    k = len(pivots)
    pivot_set = set(pivots)
    slots = [(i, j) for i in range(k) for j in range(ambient) if j > pivots[i] and j not in pivot_set]
    variables = tuple(f"x{i}_{j}" for i, j in slots)
    index = {slot: pos for pos, slot in enumerate(slots)}
    grid = [
        [
            MultiPoly.constant(variables, 1 if j == pivots[i] else 0)
            if (i, j) not in index
            else MultiPoly.variable(variables, index[(i, j)])
            for j in range(ambient)
        ]
        for i in range(k)
    ]
    return grid, variables


def _witness_from_chart(basis, generators, grid) -> RatMatrix | None:
    """The chart grid at a rational point of the chart system: the origin, or the first point found."""
    point = [0] * len(grid[0][0].variables)
    if not all(g.eval(point) == 0 for g in generators):
        points = solve_if_zero_dimensional(basis)
        if not points:
            return None
        point = points[0]
    return RatMatrix.from_rows([[e.eval(point) for e in row] for row in grid])


@dataclass(frozen=True)
class MinorCombination:
    """The constant part of a chart system built by Cauchy-Binet.

    Every generator on a chart is sum_J row[J] * det grid[C, J] for one row
    of the row-reduced matrix and one `size`-subset C of the chart grid's
    rows.  `subsets` are the column subsets J, the matrix's columns; each
    row lists its nonzero entries as (index into `subsets`, integer).
    """

    size: int
    subsets: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def reduce(cls, size: int, rows: Iterable[Mapping[tuple[int, ...], Fraction]]) -> "MinorCombination":
        """Row-reduce sparse rows over column subsets; the span, and so each chart's ideal, is kept."""
        rows = list(rows)
        subsets = tuple(sorted({J for row in rows for J in row}))
        column = {J: k for k, J in enumerate(subsets)}
        integer_rows = []
        for row in rows:
            scale = math.lcm(*(c.denominator for c in row.values()))
            integer_rows.append({column[J]: int(c * scale) for J, c in row.items()})
        reduced = integer_rref(integer_rows)
        return cls(size, subsets, tuple(tuple(sorted(row.items())) for row, _ in reduced))


def _chart_minor_system(combination: MinorCombination, pivots, ambient):
    """One generator per reduced row and `size`-subset C of the chart's rows, and the chart grid."""
    grid, variables = chart_parameter_matrix(pivots, ambient)
    generators = []
    for C in combinations(range(len(pivots)), combination.size):
        found = subset_minors([grid[i] for i in C], MultiPoly.constant(variables, 1))
        minors = [found[J].terms if J in found else {} for J in combination.subsets]
        for row in combination.rows:
            terms: dict = {}
            for k, c in row:
                for e, v in minors[k].items():
                    terms[e] = terms.get(e, 0) + c * v
            generators.append(MultiPoly(variables, terms))
    return generators, grid


def _chart_search(ar: ARSystem, k, combination: MinorCombination, budget) -> Iterator[ChartReport]:
    """Decide the reduced-echelon charts of Grass(k, m + p) in lexicographic order.

    Each chart's system is built from `combination` by `_chart_minor_system`.
    A solvable chart carries the rational point found on it, which must pass
    `_is_low_rank(ar, witness, combination.size)`, a rank of [P; H] computed
    without the chart system.  An unsolvable chart's Nullstellensatz
    certificate, when the verdict has one, is checked by summation.  A
    witness or certificate that fails its check raises WitnessCheckFailed.
    """
    for pivots in combinations(range(ar.external_dim), k):
        generators, grid = _chart_minor_system(combination, pivots, ar.external_dim)
        nonzero = [g for g in generators if not g.is_zero()]
        verdict = groebner(nonzero, budget)
        if verdict.certificate is not None and not is_unit_certificate(nonzero, verdict.certificate):
            raise WitnessCheckFailed(f"chart {pivots}: the certificate does not sum to 1")
        witness = None
        if verdict.status == IdealStatus.HAS_COMPLEX_SOLUTION:
            witness = _witness_from_chart(verdict.basis, nonzero, grid)
            if witness is not None and not _is_low_rank(ar, witness, combination.size):
                raise WitnessCheckFailed(f"chart {pivots}: the witness fails its independent check")
        yield ChartReport(pivots, verdict.status.value, witness)


def is_unit_certificate(generators: Sequence[MultiPoly], cofactors: Sequence[Fraction]) -> bool:
    """Does sum(cofactors[i] * generators[i]) equal 1?  Plain summation, no reduction."""
    if not generators or len(cofactors) != len(generators):
        return False
    variables = generators[0].variables
    total = sum((g.scale(c) for c, g in zip(cofactors, generators) if c), MultiPoly(variables))
    return total == MultiPoly.constant(variables, 1)


# ---------------------------------------------------------------------------
# Nondegeneracy


def is_nondegenerate(ar: ARSystem, budget: GroebnerBudget = DEFAULT_BUDGET) -> DegeneracyVerdict:
    """Decide whether any constant full-rank K kills det [P; K] identically.

    Single-output systems reduce to exact linear independence of the entry
    coefficient vectors; in general each reduced-echelon chart of K yields a
    polynomial system whose complex solvability is decided by Groebner bases.
    """
    if ar.p == 1:
        return _miso_nondegenerate(ar)
    reports = tuple(_chart_search(ar, ar.m, _stacked_combination(ar, ar.m), budget))
    solvable = [r for r in reports if r.status == IdealStatus.HAS_COMPLEX_SOLUTION]
    if solvable:
        primary = next((r for r in solvable if r.witness is not None), solvable[0])
        return DegeneracyVerdict(DegeneracyStatus.DEGENERATE, primary.witness, primary.chart, reports)
    if any(r.status == IdealStatus.BUDGET_EXCEEDED for r in reports):
        return DegeneracyVerdict(DegeneracyStatus.NOT_CERTIFIED, None, None, reports)
    return DegeneracyVerdict(DegeneracyStatus.NONDEGENERATE, None, None, reports)


def _miso_nondegenerate(ar: ARSystem) -> DegeneracyVerdict:
    coeffs = RatMatrix.from_rows(coefficient_matrix(ar), ar.n + 1)
    if coeffs.rank() == ar.m + 1:
        return DegeneracyVerdict(DegeneracyStatus.NONDEGENERATE, None, None, ())
    # a dependency c with sum_j c_j f_j = 0 turns into a witness: any K whose
    # kernel is spanned by c has signed minors proportional to c
    c = coeffs.transpose().right_nullspace().entries[0]
    witness, chart = RatMatrix.from_rows([c]).right_nullspace().rref()
    if not _is_low_rank(ar, witness, ar.m):  # pragma: no cover - defensive
        raise WitnessCheckFailed("single-output degeneracy witness does not kill det [P; K]")
    return DegeneracyVerdict(DegeneracyStatus.DEGENERATE, witness, chart, ())


def _stacked_combination(ar: ARSystem, size: int, minors: Sequence[HomPoly] | None = None) -> MinorCombination:
    """minor_{J'}[P; H[C]] = sum_J M[(J', a), J] det H[C, J], a indexing the coefficient of s^(n-a) t^a.

    The minors of [P; H] on all p rows of P, `size` rows C of H and a
    (p + size)-column subset J'.  Laplace expansion along the P-block pairs
    each maximal minor p_I of P, I a p-subset of J', with the minor of H on the
    rest J of J', signed (-1)^(sum of I's positions in J' - p(p-1)/2).  With
    size = m, J' is every column and the one minor is det [P; K].  `minors`
    are P's maximal minors, when the caller already has them.
    """
    width, p = ar.external_dim, ar.p
    by_cols = dict(zip(combinations(range(width), p), minors or maximal_minors(ar.P, p)))
    base = p * (p - 1) // 2
    rows: dict[tuple, dict[tuple[int, ...], Fraction]] = {}
    # J' outer, I inner: the order of the rows fixes integer_rref's output exactly
    for outer in combinations(range(width), p + size):
        for positions in combinations(range(p + size), p):
            pI = by_cols[tuple(outer[i] for i in positions)]
            J = tuple(c for i, c in enumerate(outer) if i not in positions)
            sign = -1 if (sum(positions) - base) % 2 else 1
            for a, c in enumerate(pI.coeffs):
                if c:
                    rows.setdefault((outer, a), {})[J] = sign * c
    return MinorCombination.reduce(size, rows.values())


# ---------------------------------------------------------------------------
# Stability


def stability_check(
    ar: ARSystem,
    mode: StabilityMode = StabilityMode.EXHAUSTIVE,
    seed: int = 0,
    budget: GroebnerBudget = DEFAULT_BUDGET,
) -> StabilityVerdict:
    """Certify the geometric criterion on the ranks of Q H^T, Q the kernel matrix of P.

    The row space of P over k(s,t) is exactly the kernel of Q, so
    rank Q H^T = rank [P; H] - p.  Exhaustive mode decides, for every h and
    both bounds, whether some subspace H has rank [P; H] at most p + r, by
    chart systems over Grassmannians built from the maximal minors of P; it
    alone can certify stability.  GenericSubspace mode reports the rank
    profile of random flags: a violated bound refutes the criterion, but
    passing ranks are reported NotCertified.  Both modes read every rank off
    [P; H], so Q itself is never computed.
    """
    m, p = ar.m, ar.p
    bounds = [GradedBound.for_dimension(h, m, p) for h in range(1, m + p)]
    if mode == StabilityMode.GENERIC_SUBSPACE:
        return _generic_subspace_check(ar, bounds, seed)
    return _exhaustive_check(ar, bounds, budget)


def _generic_subspace_check(ar, bounds, seed) -> StabilityVerdict:
    rng = random.Random(seed)
    width = ar.external_dim
    flags = [random_invertible(rng, width, lo=-9, hi=9).transpose() for _ in range(FLAG_SAMPLES)]
    details = []
    witness = None
    for bound in bounds:
        achieved = 0
        for flag in flags:
            H = flag.submatrix(range(bound.h), range(width))
            achieved = max(achieved, generic_rank(_stacked(ar.P, H)) - ar.p)
            if achieved >= bound.strict_bound:
                break
        strict_ok = achieved >= bound.strict_bound
        weak_ok = achieved >= bound.weak_bound
        if not strict_ok and witness is None:
            witness = flags[0].submatrix(range(bound.h), range(width))
        details.append(
            RankReport(bound.h, bound.weak_bound, bound.strict_bound, achieved, strict_ok, weak_ok)
        )
    status = StabilityStatus.NOT_CERTIFIED if witness is None else StabilityStatus.CRITERION_FAILS
    return StabilityVerdict(status, StabilityMode.GENERIC_SUBSPACE, tuple(details), witness)


def _exhaustive_check(ar, bounds, budget) -> StabilityVerdict:
    minors = maximal_minors(ar.P, ar.p)

    # one combination per size, shared across h within this call
    @functools.cache
    def combination(size: int) -> MinorCombination:
        return _stacked_combination(ar, size, minors)

    def low_rank(h: int, r: int) -> tuple[bool | None, RatMatrix | None]:
        """Is there an h-dimensional H with rank [P; H] at most p + r, that is rank Q H^T <= r?

        Returns (exists, witness or None); exists is None when undecided
        within budget.
        """
        exceeded = False
        for report in _chart_search(ar, h, combination(r + 1), budget):
            if report.status == IdealStatus.HAS_COMPLEX_SOLUTION:
                return True, report.witness
            exceeded = exceeded or report.status == IdealStatus.BUDGET_EXCEEDED
        return (None if exceeded else False), None

    details = []
    witness = None
    for bound in bounds:
        strict_low, strict_wit = low_rank(bound.h, bound.strict_bound - 1)
        if bound.weak_bound == bound.strict_bound:
            weak_low, weak_wit = strict_low, strict_wit
        elif strict_low is False:
            # nothing even below the strict bound, so nothing below the weak one
            weak_low, weak_wit = False, None
        else:
            weak_low, weak_wit = low_rank(bound.h, bound.weak_bound - 1)
        strict_ok = None if strict_low is None else not strict_low
        weak_ok = None if weak_low is None else not weak_low
        achieved = bound.strict_bound if strict_ok else (bound.weak_bound if weak_ok else None)
        if witness is None:
            witness = weak_wit if weak_low else strict_wit
        details.append(
            RankReport(bound.h, bound.weak_bound, bound.strict_bound, achieved, strict_ok, weak_ok)
        )
    if any(r.weak_ok is False for r in details):
        status = StabilityStatus.CRITERION_FAILS
    elif any(r.weak_ok is None for r in details):
        status = StabilityStatus.NOT_CERTIFIED
    elif all(r.strict_ok is True for r in details):
        status = StabilityStatus.STABLE_CERTIFIED
    else:
        status = StabilityStatus.SEMISTABLE_CERTIFIED
    return StabilityVerdict(status, StabilityMode.EXHAUSTIVE, tuple(details), witness)

