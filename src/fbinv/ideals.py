"""Minimal Buchberger engine deciding solvability over the complex numbers.

The only question the rest of the package ever asks is "does this polynomial
system have a common complex zero?", which by the Nullstellensatz is "is the
reduced Groebner basis {1}?".  Most systems asked about have a constant in
the linear span of their generators, so a row reduction over the monomials
runs first and answers those with constant cofactors a caller can check.
Buchberger keeps primitive integer polynomials and reduces fraction-free; only
the reduced basis it returns is monic over the rationals.  A budget (S-pairs
processed, total degree) turns runaway computations into an explicit
BudgetExceeded verdict instead of a wrong answer.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import sub
from typing import Sequence

from .linalg import integer_rref
from .multipoly import (
    MultiPoly,
    OrderKey,
    divides,
    grevlex_key,
    lex_key,
    normal_form,
)
from .poly import UniPoly


@dataclass(frozen=True)
class GroebnerBudget:
    max_pairs: int = 2000
    max_degree: int = 60


DEFAULT_BUDGET = GroebnerBudget()
# budget of the lex basis that `solve_if_zero_dimensional` reads points off
LEX_BUDGET = GroebnerBudget(max_pairs=400, max_degree=40)


class IdealStatus(str, Enum):
    NO_COMPLEX_SOLUTION = "NoComplexSolution"
    HAS_COMPLEX_SOLUTION = "HasComplexSolution"
    BUDGET_EXCEEDED = "BudgetExceeded"


@dataclass(frozen=True)
class IdealVerdict:
    """Solvability verdict with the reduced basis (None when the budget ran out).

    `certificate`, set when a constant lies in the generators' linear span,
    holds constants c with sum(c[i] * generators[i]) == 1 over the generators
    exactly as given, zero ones included: a Nullstellensatz certificate that
    a caller can check by summation alone.
    """

    status: IdealStatus
    basis: tuple[MultiPoly, ...] | None
    certificate: tuple[Fraction, ...] | None = None

    @property
    def solvable(self) -> bool:
        return self.status == IdealStatus.HAS_COMPLEX_SOLUTION


def _s_polynomial(f: MultiPoly, g: MultiPoly, key: OrderKey) -> MultiPoly:
    """a*x^u*f - b*x^v*g for integer f and g, with coprime a, b cancelling the leading terms."""
    fe, fc = f.leading(key)
    ge, gc = g.leading(key)
    lcm = tuple(map(max, fe, ge))
    d = math.gcd(fc.numerator, gc.numerator)
    return f.mul_term(tuple(map(sub, lcm, fe)), gc / d) - g.mul_term(tuple(map(sub, lcm, ge)), fc / d)


def _buchberger(
    generators: Sequence[MultiPoly], budget: GroebnerBudget, key: OrderKey
) -> tuple[list[MultiPoly], bool]:
    """Return (basis, exceeded).  The basis is reduced when not exceeded.

    The basis is kept as primitive integer polynomials, which are nonzero
    multiples of the monic ones and so have the same leading monomials,
    pairs and criteria; only `_reduce_basis` makes it monic.
    """
    basis = [g.primitive() for g in generators if not g.is_zero()]
    if not basis:
        return [], False
    variables = basis[0].variables

    leads = [g.leading(key)[0] for g in basis]
    heap: list[tuple[tuple, int, int]] = []

    def lcm_of(i: int, j: int):
        return tuple(map(max, leads[i], leads[j]))

    def push(i: int, j: int):
        lcm = lcm_of(i, j)
        heapq.heappush(heap, ((sum(lcm), key(lcm)), i, j))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push(i, j)

    done: set[tuple[int, int]] = set()
    pairs_processed = 0
    while heap:
        if pairs_processed >= budget.max_pairs:
            return basis, True
        _, i, j = heapq.heappop(heap)
        done.add((i, j))
        pairs_processed += 1
        lcm = lcm_of(i, j)
        # product criterion: coprime leading monomials reduce to zero
        if not any(map(min, leads[i], leads[j])):
            continue
        # chain criterion
        if any(
            k not in (i, j)
            and divides(leads[k], lcm)
            and (min(i, k), max(i, k)) in done
            and (min(j, k), max(j, k)) in done
            for k in range(len(basis))
        ):
            continue
        rem = normal_form(_s_polynomial(basis[i], basis[j], key), basis, key)
        if rem.is_zero():
            continue
        if rem.total_degree() > budget.max_degree:
            return basis, True
        rem = rem.primitive()
        basis.append(rem)
        leads.append(rem.leading(key)[0])
        new_index = len(basis) - 1
        for k in range(new_index):
            push(k, new_index)
        if rem.is_constant():
            return [MultiPoly.constant(variables, 1)], False
    return _reduce_basis(basis, key), False


def _reduce_basis(basis: list[MultiPoly], key: OrderKey) -> list[MultiPoly]:
    """The monic reduced basis of a Groebner basis of primitive integer polynomials."""
    # drop members whose leading term another member's leading term divides
    kept: list[MultiPoly] = []
    leads = [g.leading(key)[0] for g in basis]
    for i, g in enumerate(basis):
        if any(
            j != i and divides(leads[j], leads[i]) and (leads[j] != leads[i] or j < i)
            for j in range(len(basis))
        ):
            continue
        kept.append(g)
    # no leading term of `kept` divides another, so one pass of tail reduction
    # against the other members gives the reduced basis
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        if others:
            kept[i] = normal_form(g, others, key).primitive()
    kept = [g.monic(key) for g in kept]
    kept.sort(key=lambda g: key(g.leading(key)[0]), reverse=True)
    return kept


def _linear_step(
    generators: Sequence[MultiPoly], variables: tuple[str, ...]
) -> tuple[list[MultiPoly], tuple[Fraction, ...] | None]:
    """Row-reduce the generators as vectors over their monomials, grevlex-largest first.

    Returns the nonzero reduced rows as polynomials, which span the same
    space, or, when a constant lies in that span, the constants c with
    sum(c[i] * generators[i]) == 1.
    """
    one = (0,) * len(variables)
    monomials = sorted({e for g in generators for e in g.terms}, key=grevlex_key, reverse=True)
    column = {e: i for i, e in enumerate(monomials)}
    scales = [math.lcm(*(c.denominator for c in g.terms.values())) for g in generators]
    rows = [
        {column[e]: c.numerator * (d // c.denominator) for e, c in g.terms.items()}
        for g, d in zip(generators, scales)
    ]
    reduced = integer_rref(rows, stop=column.get(one))
    row, cofactors = reduced[-1]
    pivot = min(row)
    if monomials[pivot] != one:
        return [MultiPoly(variables, {monomials[c]: v for c, v in r.items()}) for r, _ in reduced], None
    certificate = [Fraction(0)] * len(generators)
    for i, k in cofactors.items():
        certificate[i] = Fraction(k * scales[i], row[pivot])
    return [], tuple(certificate)


def groebner(generators: Sequence[MultiPoly], budget: GroebnerBudget = DEFAULT_BUDGET) -> IdealVerdict:
    """Reduced grevlex Groebner basis, or a BudgetExceeded verdict.

    The generators are first row-reduced as vectors over their monomials.
    When a constant lies in their linear span the ideal is {1}, and the
    verdict carries the certificate with no S-pair processed; otherwise the
    reduced rows, which generate the same ideal, go to Buchberger.  The zero
    ideal (no nonzero generators) is solvable: every point works.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return IdealVerdict(IdealStatus.HAS_COMPLEX_SOLUTION, ())
    variables = gens[0].variables
    for g in gens:
        if g.variables != variables:
            raise ValueError("generators over different variable lists")
    rows, certificate = _linear_step(generators, variables)
    if certificate is not None:
        return IdealVerdict(IdealStatus.NO_COMPLEX_SOLUTION, (MultiPoly.constant(variables, 1),), certificate)
    basis, exceeded = _buchberger(rows, budget, grevlex_key)
    if exceeded:
        return IdealVerdict(IdealStatus.BUDGET_EXCEEDED, None)
    basis_t = tuple(basis)
    if len(basis_t) == 1 and basis_t[0].is_constant():
        return IdealVerdict(IdealStatus.NO_COMPLEX_SOLUTION, basis_t)
    return IdealVerdict(IdealStatus.HAS_COMPLEX_SOLUTION, basis_t)


def is_zero_dimensional(basis: Sequence[MultiPoly]) -> bool:
    """Finite solution set iff every variable appears as a pure leading power of the grevlex basis."""
    if not basis:
        return False
    nvars = len(basis[0].variables)
    covered = [False] * nvars
    for g in basis:
        exps = g.leading(grevlex_key)[0]
        support = [i for i, e in enumerate(exps) if e]
        if len(support) == 1:
            covered[support[0]] = True
        elif len(support) == 0:
            return False
    return all(covered)


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All distinct rational roots, sorted, of a polynomial given by ascending coefficients.

    Exact and polynomial in the coefficient bit size.  A Sturm sequence of the
    square-free part isolates every real root inside the Cauchy bound; each
    isolating interval is bisected by the sign of the polynomial until only
    one fraction with denominator at most |lead| can lie near enough, and that
    candidate is kept only if it is an exact root.  The zero polynomial has no
    roots listed.
    """
    c = list(UniPoly.from_coeffs(coeffs).coeffs)
    roots: list[Fraction] = []
    if c and c[0] == 0:
        roots.append(Fraction(0))
        while c[0] == 0:
            c.pop(0)
    f = UniPoly(tuple(c))
    if f.degree < 1:
        return roots
    f = f.divmod(f.gcd(_derivative(f)))[0]
    sturm = [f, _derivative(f)]
    while sturm[-1].degree > 0:
        sturm.append(-sturm[-2].divmod(sturm[-1])[1])
    ints = [_primitive(p) for p in sturm]
    g = ints[0]
    lead = abs(g[-1])
    bound = 1 << (max(abs(a) for a in g[:-1]) // lead + 2).bit_length()

    def variations(x: Fraction) -> int:
        signs = [s for s in (_sign_at(p, x) for p in ints) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # (lo, hi] holds variations(lo) - variations(hi) distinct real roots
    lo, hi = Fraction(-bound), Fraction(bound)
    stack = [(lo, hi, variations(lo), variations(hi))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            root = _rational_root_in(g, lo, hi, lead)
            if root is not None:
                roots.append(root)
        elif v_lo - v_hi > 1:
            mid = (lo + hi) / 2
            v_mid = variations(mid)
            stack.append((lo, mid, v_lo, v_mid))
            stack.append((mid, hi, v_mid, v_hi))
    return sorted(roots)


def _derivative(f: UniPoly) -> UniPoly:
    return UniPoly.from_coeffs(k * a for k, a in enumerate(f.coeffs) if k)


def _primitive(f: UniPoly) -> list[int]:
    """Integer coefficients of a positive multiple of f with content 1."""
    scale = math.lcm(*(a.denominator for a in f.coeffs))
    ints = [int(a * scale) for a in f.coeffs]
    content = math.gcd(*ints)
    return [a // content for a in ints]


def _rational_root_in(ints: Sequence[int], lo: Fraction, hi: Fraction, lead: int) -> Fraction | None:
    """The one root of square-free `ints` in (lo, hi] if it is rational, else None.

    A rational root has a denominator dividing `lead`, and two such fractions
    lie at least 1/lead^2 apart, so once the interval is narrower than
    1/(2 lead^2) the root, if rational, is the nearest such fraction to its
    midpoint.
    """
    s_hi = _sign_at(ints, hi)
    while s_hi and 2 * lead * lead * (hi - lo) >= 1:
        mid = (lo + hi) / 2
        s_mid = _sign_at(ints, mid)
        if s_mid == -s_hi:
            lo = mid
        else:
            hi, s_hi = mid, s_mid
    x = hi if s_hi == 0 else ((lo + hi) / 2).limit_denominator(lead)
    # x may be a neighbouring interval's root when this one's is irrational
    return x if lo < x <= hi and _sign_at(ints, x) == 0 else None


def _sign_at(ints: Sequence[int], x: Fraction) -> int:
    """Sign of the integer polynomial at x, by Horner on the homogenised form."""
    num, den = x.numerator, x.denominator
    acc, power = 0, 1
    for a in reversed(ints):
        acc = acc * num + a * power
        power *= den
    return (acc > 0) - (acc < 0)


def solve_if_zero_dimensional(basis: Sequence[MultiPoly]) -> list[tuple[Fraction, ...]] | None:
    """Best-effort rational points of a zero-dimensional ideal given a reduced basis.

    Returns None when the ideal is {1}, not visibly zero-dimensional, or when
    no rational point is found; verdicts elsewhere never rely on this.
    """
    polys = [g for g in basis if not g.is_zero()]
    if not polys:
        return None
    variables = polys[0].variables
    nvars = len(variables)
    if nvars == 0:
        return [()]
    if any(g.is_constant() for g in polys) or not is_zero_dimensional(polys):
        return None
    lex_basis, exceeded = _buchberger(polys, LEX_BUDGET, lex_key)
    if exceeded:
        return None
    points: list[tuple[Fraction, ...]] = []
    _extend_point(lex_basis, variables, {}, nvars - 1, points, limit=8)
    verified = [pt for pt in points if all(g.eval(pt) == 0 for g in polys)]
    return verified or None


def _extend_point(gens, variables, assignment, var_index, points, limit):
    if len(points) >= limit:
        return
    specialized = [h for h in (g.substitute(assignment) for g in gens) if not h.is_zero()]
    if var_index < 0:
        if not specialized:
            points.append(tuple(assignment[i] for i in range(len(variables))))
        return
    if any(g.is_constant() for g in specialized):
        return
    univ = next((g for g in specialized if {i for e in g.terms for i, x in enumerate(e) if x} == {var_index}), None)
    if univ is None:
        return
    coeffs = [Fraction(0)] * (univ.total_degree() + 1)
    for exps, c in univ.terms.items():
        coeffs[exps[var_index]] = c
    for root in rational_roots(coeffs):
        _extend_point(gens, variables, {**assignment, var_index: root}, var_index - 1, points, limit)
