"""Independent oracles used by the test-suite.

These recompute expected values by routes that share nothing with the library
paths under test (adjugate identities, Kalman rank tests, brute-force spans,
fraction-free elimination over polynomials, Buchberger over Fraction
coefficients).
"""

import heapq
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from fbinv.arsys import (
    ARSystem,
    _assemble,
    _component_offsets,
    _vectorize,
    is_observable,
    mul_row_vector,
)
from fbinv.errors import DegreeMismatch, NotSquare, SyzygyBudgetExceeded
from fbinv.grassmann import GrassmannPoint
from fbinv.ideals import DEFAULT_BUDGET, GroebnerBudget
from fbinv.linalg import RatMatrix, frac
from fbinv.multipoly import MultiPoly, OrderKey, divides, grevlex_key, mp_det
from fbinv.poly import HomPoly, UniPoly, uni_mat_det
from fbinv.polymatrix import HomPolyMatrix, determinant, generic_rank, maximal_minors, poly_gcd_list
from fbinv.realization import MFD, StateSpace, to_hom_ar
from fbinv.sampling import random_ar_system
from fbinv.stability import (
    DegeneracyStatus,
    MinorCombination,
    StabilityMode,
    StabilityStatus,
    chart_parameter_matrix,
    is_nondegenerate,
    stability_check,
)


def random_observable_ar_system(rng: random.Random, m: int, p: int, n: int, lo: int = -5, hi: int = 5) -> ARSystem:
    while True:
        ar = random_ar_system(rng, m, p, n, lo, hi)
        if is_observable(ar):
            return ar


def grassmann_point_of(mat: RatMatrix) -> GrassmannPoint:
    """The row space of `mat`, through its own rref rather than `from_rows`."""
    reduced, _ = mat.rref()
    return GrassmannPoint(mat.cols, reduced)


def uni_mat_mul(a: Sequence[Sequence[UniPoly]], b: Sequence[Sequence[UniPoly]]) -> list[list[UniPoly]]:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(rows):
        out.append(
            [sum((a[i][k] * b[k][j] for k in range(inner)), UniPoly.zero()) for j in range(cols)]
        )
    return out


def uni_mat_adjugate(grid: Sequence[Sequence[UniPoly]]) -> list[list[UniPoly]]:
    n = len(grid)
    adj = [[UniPoly.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[grid[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = uni_mat_det(minor)
            adj[j][i] = cof if (i + j) % 2 == 0 else cof.scale(-1)
    return adj


def laplace_stacked_determinant(P: HomPolyMatrix, K: RatMatrix) -> HomPoly:
    """det [P; K] via the expansion along the P-block.

    Pairs each maximal minor p_I of P with the complementary minor of K and
    the sign (-1)^(sum I - p(p-1)/2); kept separate from `stacked_determinant`
    so the identity can be tested between two independent routes.
    """
    p = P.rows
    width = P.cols
    minors = maximal_minors(P, p)
    acc: HomPoly | None = None
    base = p * (p - 1) // 2
    for idx, cols in enumerate(combinations(range(width), p)):
        comp = [c for c in range(width) if c not in cols]
        kminor = K.submatrix(range(K.rows), comp).det()
        if kminor == 0 or minors[idx].is_zero():
            continue
        sign = -1 if (sum(cols) - base) % 2 else 1
        term = minors[idx].scale(sign * kminor)
        acc = term if acc is None else acc + term
    if acc is None:
        return HomPoly.zero(sum(P.row_degree_label(i) for i in range(p)))
    return acc


def direct_degeneracy_chart_system(ar: ARSystem, pivots) -> list[MultiPoly]:
    """Coefficients of det [P; K] in the chart parameters of K, built directly.

    Sums each maximal minor of P times the complementary minor of the chart
    grid, coefficient by coefficient; the library builds the same span from a
    row-reduced constant matrix instead.
    """
    grid, variables = chart_parameter_matrix(pivots, ar.external_dim)
    width = ar.external_dim
    base = ar.p * (ar.p - 1) // 2
    gens = [MultiPoly(variables) for _ in range(ar.n + 1)]
    for cols, pI in zip(combinations(range(width), ar.p), maximal_minors(ar.P, ar.p)):
        if pI.is_zero():
            continue
        comp = [c for c in range(width) if c not in cols]
        kminor = mp_det([[grid[i][j] for j in comp] for i in range(ar.m)], variables)
        sign = -1 if (sum(cols) - base) % 2 else 1
        for a, coeff in enumerate(pI.coeffs):
            if coeff != 0:
                gens[a] = gens[a] + kminor.scale(sign * coeff)
    return gens


def direct_rank_chart_system(Q: HomPolyMatrix, pivots, width: int, h: int, r: int) -> list[MultiPoly]:
    """All (r+1)-minors of Q(s,t) H^T on one chart, split by (s,t)-monomial.

    Forms the product over the chart parameters and s, t, takes every minor
    with `mp_det`, and groups its terms by their (s,t) part.
    """
    grid, variables = chart_parameter_matrix(pivots, width)
    full = variables + ("s", "t")
    nparams = len(variables)
    product = []
    for row_q in Q.entries:
        prow = []
        for i in range(h):
            acc = MultiPoly(full)
            for k in range(width):
                q = MultiPoly(full, {(0,) * nparams + (row_q[k].degree - j, j): c for j, c in enumerate(row_q[k].coeffs)})
                x = MultiPoly(full, {e + (0, 0): c for e, c in grid[i][k].terms.items()})
                acc = acc + q * x
            prow.append(acc)
        product.append(prow)
    generators = []
    for rows in combinations(range(Q.rows), r + 1):
        for cols in combinations(range(h), r + 1):
            minor = mp_det([[product[i][j] for j in cols] for i in rows], full)
            buckets: dict[tuple[int, int], dict] = {}
            for exps, c in minor.terms.items():
                buckets.setdefault(exps[nparams:], {})[exps[:nparams]] = c
            generators.extend(MultiPoly(variables, terms) for terms in buckets.values())
    return generators


def char_matrix(ss: StateSpace) -> list[list[UniPoly]]:
    """sI - A as a grid of univariate polynomials."""
    s = UniPoly.from_coeffs([0, 1])
    return [
        [
            (s if i == j else UniPoly.zero()) - UniPoly.constant(ss.A.entries[i][j])
            for j in range(ss.n)
        ]
        for i in range(ss.n)
    ]


def cleared_denominator_identity_holds(ss: StateSpace, mfd: MFD) -> bool:
    """Check D (C adj(sI-A) B + chi_A D) = N chi_A entry by entry."""
    si_a = char_matrix(ss)
    chi = uni_mat_det(si_a)
    adj = uni_mat_adjugate(si_a)
    c_grid = [[UniPoly.constant(x) for x in row] for row in ss.C.entries]
    b_grid = [[UniPoly.constant(x) for x in row] for row in ss.B.entries]
    if ss.n:
        cab = uni_mat_mul(uni_mat_mul(c_grid, adj), b_grid)
    else:
        cab = [[UniPoly.zero() for _ in range(ss.m)] for _ in range(ss.p)]
    rhs_inner = [
        [cab[i][j] + chi * UniPoly.constant(ss.D.entries[i][j]) for j in range(ss.m)]
        for i in range(ss.p)
    ]
    lhs = uni_mat_mul([list(r) for r in mfd.Dmat], rhs_inner)
    for i in range(ss.p):
        for j in range(ss.m):
            if not (lhs[i][j] - mfd.Nmat[i][j] * chi).is_zero():
                return False
    return True


def mfd_is_left_coprime(mfd: MFD) -> bool:
    ar = to_hom_ar(mfd)
    return poly_gcd_list(maximal_minors(ar.P, ar.p)).degree == 0


def kalman_controllable(A: RatMatrix, B: RatMatrix) -> bool:
    n = A.rows
    if n == 0:
        return True
    blocks = B
    power = B
    for _ in range(n - 1):
        power = A @ power
        blocks = blocks.hstack(power)
    return blocks.rank() == n


def trial_division_rational_roots(coeffs: Sequence) -> list[Fraction]:
    """Rational roots by the rational root theorem: try every +-p/q with p | a0, q | an.

    Exponential in the bit size of a0 and an, so only for small inputs.
    """
    c = [frac(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if not c:
        return []
    roots = []
    if c[0] == 0:
        roots.append(Fraction(0))
        while c[0] == 0:
            c.pop(0)
    scale = math.lcm(*(x.denominator for x in c))
    ints = [int(x * scale) for x in c]
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and sum(a * cand**i for i, a in enumerate(ints)) == 0:
                    roots.append(cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def euler_characteristic(rank: int, degree: int, ell: int) -> int:
    """chi of a twisted sheaf on the projective line: rank (ell+1) + degree."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    return rank * (ell + 1) + degree


def nondegenerate_implies_stable_suite(
    sizes: Sequence[tuple[int, int, int]],
    samples: int,
    seed: int = 0,
    budget: GroebnerBudget = DEFAULT_BUDGET,
) -> dict:
    """Sample systems per (p, m, n) size; every certified-nondegenerate one
    must come back StableCertified from the exhaustive check."""
    rng = random.Random(seed)
    report = {"sizes": [], "counterexamples": 0}
    for p, m, n in sizes:
        entry = {
            "p": p,
            "m": m,
            "n": n,
            "samples": samples,
            "nondegenerate": 0,
            "stable_certified": 0,
            "not_certified": 0,
            "counterexamples": [],
        }
        for _ in range(samples):
            ar = random_ar_system(rng, m, p, n)
            verdict = is_nondegenerate(ar, budget)
            if verdict.status != DegeneracyStatus.NONDEGENERATE:
                continue
            entry["nondegenerate"] += 1
            stab = stability_check(ar, StabilityMode.EXHAUSTIVE, budget=budget)
            if stab.status == StabilityStatus.STABLE_CERTIFIED:
                entry["stable_certified"] += 1
            elif stab.status == StabilityStatus.NOT_CERTIFIED:
                entry["not_certified"] += 1
            else:
                entry["counterexamples"].append(str(ar.P))
        report["sizes"].append(entry)
        report["counterexamples"] += len(entry["counterexamples"])
    return report


@dataclass(frozen=True)
class UnimodularWitness:
    """A square homogeneous U with det a nonzero monomial in t, linking two systems."""

    U: HomPolyMatrix


def check_unimodular_witness(src: ARSystem, dst: ARSystem, witness: UnimodularWitness) -> bool:
    """Verify that U has the right degree shape, unimodular determinant, and U P = P~."""
    U = witness.U
    p = src.p
    if (src.m, src.p) != (dst.m, dst.p) or src.row_degrees != dst.row_degrees:
        return False
    if U.rows != p or U.cols != p:
        return False
    nu = src.row_degrees
    for i in range(p):
        for j in range(p):
            entry = U.entries[i][j]
            if entry.is_zero():
                continue
            if nu[i] - nu[j] < 0 or entry.degree != nu[i] - nu[j]:
                return False
    det = determinant(U)
    if det.is_zero():
        return False
    nonzero = [j for j, c in enumerate(det.coeffs) if c != 0]
    if nonzero != [det.degree]:  # a monomial in t only
        return False
    for i in range(p):
        transformed = mul_row_vector(U.entries[i], src.P)
        for got, want in zip(transformed, dst.P.entries[i]):
            if not _same_poly(got, want):
                return False
    return True


def _same_poly(a: HomPoly, b: HomPoly) -> bool:
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    return a.degree == b.degree and (a - b).is_zero()


def reduction_kernel_generators(
    M: HomPolyMatrix,
    row_degrees: Sequence[int],
    col_shifts: Sequence[int] | None = None,
    max_degree: int = 0,
    expected: int | None = None,
) -> list[tuple[int, tuple[HomPoly, ...]]]:
    """Minimal kernel generators by reducing each kernel vector against the shifted span.

    The library reads the new generators off the kernel's own rref; this route
    instead reduces every kernel basis vector by the span's rref and row-reduces
    the remainders, which must give the same canonical rows.
    """
    shifts = tuple(col_shifts) if col_shifts is not None else tuple(0 for _ in range(M.cols))
    if expected is None:
        expected = M.cols - generic_rank(M)
    gens: list[tuple[int, tuple[HomPoly, ...]]] = []
    if expected == 0:
        return gens
    for d in range(0, max_degree + 1):
        comp_degrees = [d - s for s in shifts]
        offsets, total = _component_offsets(comp_degrees)
        if total == 0:
            continue
        equations = []
        for i in range(M.rows):
            for a in range(row_degrees[i] + d + 1):
                row = [Fraction(0)] * total
                for j in range(M.cols):
                    entry = M.entries[i][j]
                    if comp_degrees[j] < 0 or entry.is_zero():
                        continue
                    for k in range(comp_degrees[j] + 1):
                        b = a - k
                        if 0 <= b <= entry.degree:
                            row[offsets[j] + k] += entry.coeffs[b]
                equations.append(row)
        kernel = RatMatrix.from_rows(equations, total).right_nullspace()
        if kernel.rows == 0:
            continue
        shifted = []
        for e, gvec in gens:
            for beta in range(d - e + 1):
                moved = tuple(poly.shift(d - e - beta, beta) for poly in gvec)
                shifted.append(_vectorize(moved, comp_degrees, offsets, total))
        span, pivots = RatMatrix.from_rows(shifted, total).rref()
        reductions = []
        for cand in kernel.entries:
            red = list(cand)
            for r, pc in enumerate(pivots):
                factor = red[pc]
                if factor != 0:
                    red = [a - factor * b for a, b in zip(red, span.entries[r])]
            if any(x != 0 for x in red):
                reductions.append(red)
        fresh, _ = RatMatrix.from_rows(reductions, total).rref()
        for row in fresh.entries:
            gens.append((d, _assemble(row, comp_degrees, offsets)))
        if len(gens) >= expected:
            break
    if len(gens) != expected:
        raise SyzygyBudgetExceeded(f"kernel generators incomplete ({len(gens)}/{expected})")
    gens.sort(key=lambda item: (item[0], tuple(c for poly in item[1] for c in poly.coeffs)))
    return gens


# ---------------------------------------------------------------------------
# Fraction-free (Bareiss) elimination over MultiPoly: ranks and determinants of
# polynomial matrices by exact division, independent of evaluation and of the
# column-subset expansion.

_ST = ("s", "t")


def to_multipoly_grid(matrix: HomPolyMatrix) -> list[list[MultiPoly]]:
    """The entries as polynomials in the variables s, t."""
    return [
        [MultiPoly(_ST, {(e.degree - j, j): c for j, c in enumerate(e.coeffs) if c != 0}) for e in row]
        for row in matrix.entries
    ]


def exact_div(f: MultiPoly, g: MultiPoly, key: OrderKey = grevlex_key) -> MultiPoly:
    """Quotient f / g when the division is known to be exact."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    quo = MultiPoly(f.variables)
    rem = f
    g_exps, g_c = g.leading(key)
    while not rem.is_zero():
        lt_exps, lt_c = rem.leading(key)
        if not divides(g_exps, lt_exps):
            raise DegreeMismatch("division is not exact")
        shift = tuple(a - b for a, b in zip(lt_exps, g_exps))
        c = lt_c / g_c
        quo = quo + MultiPoly(f.variables, {shift: c})
        rem = rem - g.mul_term(shift, c)
    return quo


def bareiss_rank(grid: list[list[MultiPoly]], variables: Sequence[str]) -> int:
    """Exact rank over the fraction field by fraction-free elimination.

    Intermediate entries are minors of the input, so every division is exact.
    """
    rows = len(grid)
    cols = len(grid[0]) if rows else 0
    work = [list(row) for row in grid]
    prev = MultiPoly.constant(variables, 1)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = None
        for i in range(r, rows):
            if not work[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        piv = work[r][c]
        for i in range(r + 1, rows):
            row_i = work[i]
            lead = row_i[c]
            for j in range(c + 1, cols):
                num = piv * row_i[j] - lead * work[r][j]
                row_i[j] = exact_div(num, prev) if not num.is_zero() else num
            row_i[c] = MultiPoly(variables)
        prev = piv
        r += 1
    return r


def bareiss_det(grid: list[list[MultiPoly]], variables: Sequence[str]) -> MultiPoly:
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise NotSquare("determinant of a non-square grid")
    if n == 0:
        return MultiPoly.constant(variables, 1)
    work = [list(row) for row in grid]
    prev = MultiPoly.constant(variables, 1)
    sign = 1
    for k in range(n):
        pivot = None
        for i in range(k, n):
            if not work[i][k].is_zero():
                pivot = i
                break
        if pivot is None:
            return MultiPoly(variables)
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            sign = -sign
        piv = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = piv * work[i][j] - work[i][k] * work[k][j]
                work[i][j] = exact_div(num, prev) if not num.is_zero() else num
            work[i][k] = MultiPoly(variables)
        prev = piv
    det = work[n - 1][n - 1]
    return det if sign == 1 else det.scale(-1)


def elimination_rank(matrix: HomPolyMatrix) -> int:
    """Rank over k(s, t) by fraction-free elimination; independent of evaluation."""
    return bareiss_rank(to_multipoly_grid(matrix), _ST)


def elimination_determinant(matrix: HomPolyMatrix) -> HomPoly:
    """Determinant by fraction-free elimination; independent of `determinant`."""
    if matrix.rows != matrix.cols:
        raise NotSquare("determinant of a non-square matrix")
    det = bareiss_det(to_multipoly_grid(matrix), _ST)
    label = sum(matrix.row_degree_label(i) for i in range(matrix.rows))
    if det.is_zero():
        return HomPoly.zero(label)
    degs = {sum(e) for e in det.terms}
    if len(degs) != 1:
        raise NotSquare("determinant is not homogeneous")
    d = degs.pop()
    out = [Fraction(0)] * (d + 1)
    for (a, b), c in det.terms.items():
        out[b] = c
    return HomPoly(d, tuple(out))


def per_subset_degeneracy_combination(ar: ARSystem) -> MinorCombination:
    """`_stacked_combination(ar, ar.m)` with each maximal minor of P eliminated on its own.

    The rows come in the library's order, so `integer_rref` must return the
    same integers, not just the same span.
    """
    width = ar.external_dim
    base = ar.p * (ar.p - 1) // 2
    rows: dict[int, dict[tuple[int, ...], Fraction]] = {}
    for cols in combinations(range(width), ar.p):
        pI = elimination_determinant(ar.P.submatrix(range(ar.p), cols))
        J = tuple(c for c in range(width) if c not in cols)
        sign = -1 if (sum(cols) - base) % 2 else 1
        for a, c in enumerate(pI.coeffs):
            if c:
                rows.setdefault(a, {})[J] = sign * c
    return MinorCombination.reduce(ar.m, rows.values())


def per_subset_rank_combination(Q: HomPolyMatrix, r: int) -> MinorCombination:
    """minor_{R,C}(Q H^T) = sum_J det Q[R,J](s,t) det H[C,J], by Cauchy-Binet.

    One row per (s,t)-coefficient of the minors on one (r+1)-row subset R of
    Q, each minor eliminated on its own.  By rank Q H^T = rank [P; H] - p,
    its rref is that of `_stacked_combination(ar, r + 1)`.
    """
    size = r + 1
    rows: dict[tuple, dict[tuple[int, ...], Fraction]] = {}
    for J in combinations(range(Q.cols), size):
        for R in combinations(range(Q.rows), size):
            minor = elimination_determinant(Q.submatrix(R, J))
            for j, c in enumerate(minor.coeffs):
                if c:
                    rows.setdefault((R, minor.degree - j, j), {})[J] = c
    return MinorCombination.reduce(size, rows.values())


# The Buchberger engine over the rationals: monic basis members, S-polynomials
# and division with Fraction coefficients throughout, as the library ran it
# before its reductions went fraction-free.


def fraction_normal_form(f: MultiPoly, divisors: Sequence[MultiPoly], key: OrderKey = grevlex_key) -> MultiPoly:
    """Remainder of multivariate division of f by the list of divisors."""
    rem = MultiPoly(f.variables)
    p = f
    heads = [(g.leading(key), g) for g in divisors if not g.is_zero()]
    while not p.is_zero():
        lt_exps, lt_c = p.leading(key)
        for (g_exps, g_c), g in heads:
            if divides(g_exps, lt_exps):
                shift = tuple(a - b for a, b in zip(lt_exps, g_exps))
                p = p - g.mul_term(shift, lt_c / g_c)
                break
        else:
            mono = MultiPoly(f.variables, {lt_exps: lt_c})
            rem = rem + mono
            p = p - mono
    return rem


def fraction_s_polynomial(f: MultiPoly, g: MultiPoly, key: OrderKey) -> MultiPoly:
    fe, fc = f.leading(key)
    ge, gc = g.leading(key)
    lcm = tuple(max(a, b) for a, b in zip(fe, ge))
    return f.mul_term(tuple(l - a for l, a in zip(lcm, fe)), 1 / fc) - g.mul_term(
        tuple(l - a for l, a in zip(lcm, ge)), 1 / gc
    )


def fraction_buchberger(
    generators: Sequence[MultiPoly], budget: GroebnerBudget, key: OrderKey
) -> tuple[list[MultiPoly], bool]:
    """Return (basis, exceeded).  The basis is reduced when not exceeded."""
    basis = [g.monic(key) for g in generators if not g.is_zero()]
    if not basis:
        return [], False
    variables = basis[0].variables

    leads = [g.leading(key)[0] for g in basis]
    heap: list[tuple[tuple, int, int]] = []

    def lcm_of(i: int, j: int):
        return tuple(max(a, b) for a, b in zip(leads[i], leads[j]))

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
        if all(min(a, b) == 0 for a, b in zip(leads[i], leads[j])):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not divides(leads[k], lcm):
                continue
            p1 = (min(i, k), max(i, k))
            p2 = (min(j, k), max(j, k))
            if p1 in done and p2 in done:
                skip = True
                break
        if skip:
            continue
        rem = fraction_normal_form(fraction_s_polynomial(basis[i], basis[j], key), basis, key)
        if rem.is_zero():
            continue
        if rem.total_degree() > budget.max_degree:
            return basis, True
        rem = rem.monic(key)
        basis.append(rem)
        leads.append(rem.leading(key)[0])
        new_index = len(basis) - 1
        for k in range(new_index):
            push(k, new_index)
        if rem.is_constant():
            return [MultiPoly.constant(variables, 1)], False
    return fraction_reduce_basis(basis, key), False


def fraction_reduce_basis(basis: list[MultiPoly], key: OrderKey) -> list[MultiPoly]:
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
        kept[i] = (fraction_normal_form(g, others, key) if others else g).monic(key)
    kept.sort(key=lambda g: key(g.leading(key)[0]), reverse=True)
    return kept
