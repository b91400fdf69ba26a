"""Output checks that do not trust fbinv's own arithmetic.

Every check works on plain data: rationals are `Fraction`s, a homogeneous
polynomial is a `(degree, coeffs)` pair with coeffs[j] multiplying
s^(degree-j) t^j, and a polynomial matrix is a list of rows of such pairs.
The linear algebra here is a separate, deliberately plain Fraction
elimination.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

SEMISTABLE = ("StableCertified", "SemistableCertified")


# ---------------------------------------------------------------------------
# Conversions into plain data


def poly_of(h) -> tuple[int, list[Fraction]]:
    """A fbinv HomPoly as a (degree, coeffs) pair."""
    return h.degree, list(h.coeffs)


def matrix_of(M) -> list[list[tuple[int, list[Fraction]]]]:
    """A fbinv HomPolyMatrix as rows of (degree, coeffs) pairs."""
    return [[poly_of(h) for h in row] for row in M.entries]


def poly_from_json(data) -> tuple[int, list[Fraction]]:
    degree = data["degree"]
    coeffs = [Fraction(0)] * (degree + 1)
    for c, _a, b in data["terms"]:
        coeffs[b] += Fraction(c)
    return degree, coeffs


def rat_from_json(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def details_of(verdict) -> list[dict]:
    """Per-dimension rank records of a StabilityVerdict as plain dicts."""
    keys = ("h", "weak_bound", "strict_bound", "achieved", "strict_ok", "weak_ok")
    return [{k: getattr(r, k) for k in keys} for r in verdict.details]


# ---------------------------------------------------------------------------
# Plain Fraction linear algebra


def rank(rows) -> int:
    work = [[Fraction(x) for x in row] for row in rows]
    r = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c] != 0:
                f = work[i][c] / work[r][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def det(rows) -> Fraction:
    n = len(rows)
    work = [[Fraction(x) for x in row] for row in rows]
    value = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            value = -value
        value *= work[c][c]
        for i in range(c + 1, n):
            f = work[i][c] / work[c][c]
            work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return value


def matmul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*B)] for row in A]


def solve(A, B):
    """X with A X = B for square invertible A."""
    n = len(A)
    work = [list(map(Fraction, A[i])) + list(map(Fraction, B[i])) for i in range(n)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if work[i][c] != 0)
        work[c], work[pivot] = work[pivot], work[c]
        inv = 1 / work[c][c]
        work[c] = [x * inv for x in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return [row[n:] for row in work]


def hom_at(poly, s) -> Fraction:
    """Value of a homogeneous polynomial at (s, 1)."""
    degree, coeffs = poly
    return sum((c * s ** (degree - j) for j, c in enumerate(coeffs) if c), Fraction(0))


def at(P, s) -> list[list[Fraction]]:
    return [[hom_at(e, s) for e in row] for row in P]


def points(count: int) -> list[Fraction]:
    """`count` distinct rational points."""
    return [Fraction(k, 3) - 2 for k in range(count)]


# ---------------------------------------------------------------------------
# Checks


def check_dimension_count(status: str, m: int, p: int, n: int) -> list[str]:
    """Below n = mp every system is degenerate (Brockett-Byrnes)."""
    if n < m * p and status != "Degenerate":
        return [f"n={n} < mp={m * p} but the verdict is {status}"]
    return []


def check_stable_if_nondegenerate(degeneracy: str, stability: str) -> list[str]:
    if degeneracy == "Nondegenerate" and stability != "StableCertified":
        return [f"nondegenerate system came back {stability}, not StableCertified"]
    return []


def check_degeneracy_witness(P, K, m: int, n: int) -> list[str]:
    """rank K = m and det [P(s,1); K] vanishes at n+1 distinct points.

    det [P; K] is homogeneous of degree n, so n+1 zeros of its
    dehomogenization make it vanish identically.
    """
    problems = []
    if len(K) != m or rank(K) != m:
        problems.append(f"witness K has rank {rank(K)} with {len(K)} rows, expected {m}")
    for s in points(n + 1):
        value = det(at(P, s) + [list(r) for r in K])
        if value != 0:
            problems.append(f"det [P; K] = {value} at s = {s}")
            break
    return problems


def check_stability_witness(Q, H, details: list[dict]) -> list[str]:
    """H refutes the bound of its dimension: rank(Q H^T) stays below strict_bound.

    Every (strict_bound)-minor of Q H^T has degree at most the sum of Q's row
    degrees D, so rank at most strict_bound - 1 at D+1 points proves it.
    """
    h = len(H)
    record = next((d for d in details if d["h"] == h), None)
    if record is None:
        return [f"witness has {h} rows but no bound for that dimension"]
    if rank(H) != h:
        return [f"witness H has rank {rank(H)}, expected {h}"]
    r = record["strict_bound"] - 1
    D = sum(row[0][0] for row in Q)
    HT = [list(col) for col in zip(*H)]
    for s in points(D + 1):
        got = rank(matmul(at(Q, s), HT))
        if got > r:
            return [f"rank Q H^T = {got} > {r} at s = {s}"]
    return []


def _poly_mul_add(acc: list[Fraction], f, g):
    for i, a in enumerate(f[1]):
        if a:
            for j, b in enumerate(g[1]):
                if b:
                    acc[i + j] += a * b


def check_kernel(P, Q, q_degrees, n: int, observable: bool) -> list[str]:
    """P Q^T = 0 exactly, and for observable P the degrees of Q sum to n."""
    problems = []
    for i, prow in enumerate(P):
        for j, qrow in enumerate(Q):
            acc = [Fraction(0)] * (prow[0][0] + qrow[0][0] + 1)
            for f, g in zip(prow, qrow):
                _poly_mul_add(acc, f, g)
            if any(acc):
                problems.append(f"(P Q^T)[{i}][{j}] is not zero")
    if observable and sum(q_degrees) != n:
        problems.append(f"observable input but Q degrees {list(q_degrees)} do not sum to n={n}")
    return problems


def check_modes_agree(exact_status, exact_details, sampled_status, sampled_details) -> list[str]:
    """Exhaustive certificates bound what any sampled flag can see, and a generic
    refutation must show up in the exhaustive answer."""
    problems = []
    exact_by_h = {d["h"]: d for d in exact_details}
    for d in sampled_details:
        e = exact_by_h[d["h"]]
        if e["strict_ok"] and d["achieved"] < d["strict_bound"]:
            problems.append(f"h={d['h']}: exhaustive strict_ok but a flag reached {d['achieved']}")
        if e["weak_ok"] and d["achieved"] < d["weak_bound"]:
            problems.append(f"h={d['h']}: exhaustive weak_ok but a flag reached {d['achieved']}")
    if sampled_status == "CriterionFails" and exact_status == "StableCertified":
        problems.append("generic mode refutes a system the exhaustive mode certifies stable")
    return problems


def check_miso(P, stability: str) -> list[str]:
    """For p = 1: semistable exactly when the entry coefficient vectors are independent."""
    row = P[0]
    vectors = [list(coeffs) for _deg, coeffs in row]
    independent = rank(vectors) == len(vectors)
    if independent != (stability in SEMISTABLE):
        return [f"coefficient vectors independent={independent} but stability is {stability}"]
    return []


def _uni_at(coeffs, s) -> Fraction:
    return sum((c * s**k for k, c in enumerate(coeffs)), Fraction(0))


def check_factorization(A, B, C, Dss, Dmat, Nmat, row_degrees) -> list[str]:
    """D(s0) G(s0) = N(s0) with G = C (s0 I - A)^{-1} B + D, at enough non-eigenvalue points.

    Each entry of D(s) (C adj(sI - A) B + det(sI - A) Dss) - det(sI - A) N(s)
    has degree at most max row degree + n, so that many + 1 points prove the identity.
    """
    n = len(A)
    need = max(row_degrees, default=0) + n + 1
    checked = 0
    for s in points(4 * need):
        shifted = [[(s if i == j else 0) - A[i][j] for j in range(n)] for i in range(n)]
        if det(shifted) == 0:
            continue
        G = matmul(C, solve(shifted, B))
        G = [[g + d for g, d in zip(grow, drow)] for grow, drow in zip(G, Dss)]
        D0 = [[_uni_at(f, s) for f in row] for row in Dmat]
        N0 = [[_uni_at(f, s) for f in row] for row in Nmat]
        if matmul(D0, G) != N0:
            return [f"D(s0) G(s0) != N(s0) at s0 = {s}"]
        checked += 1
        if checked == need:
            return []
    return [f"found only {checked} of {need} non-eigenvalue points"]


def check_homogenized(P, Dmat, Nmat, row_degrees) -> list[str]:
    """The homogenized system is (-N  D) with row i of degree row_degrees[i]."""
    for i, (prow, d) in enumerate(zip(P, row_degrees)):
        if any(deg != d for deg, _ in prow):
            return [f"row {i} of P is not of degree {d}"]
        expected = [[-c for c in f] for f in Nmat[i]] + [list(f) for f in Dmat[i]]
        for (deg, coeffs), uni in zip(prow, expected):
            dehom = [coeffs[deg - k] for k in range(deg + 1)]
            uni = uni + [Fraction(0)] * (deg + 1 - len(uni))
            if dehom != uni:
                return [f"row {i} of P does not match (-N D)"]
    return []


def check_identical(first: bytes, again: bytes) -> list[str]:
    if first != again:
        where = next((i for i, (a, b) in enumerate(zip(first, again)) if a != b), min(len(first), len(again)))
        return [f"report differs from the first pass at byte {where}"]
    return []


def check_unit_charts_sympy(P, m: int, p: int) -> list[str]:
    """Every echelon chart of K gives the unit ideal under sympy's Groebner engine."""
    import sympy

    s = sympy.Symbol("s")
    width = m + p
    Ps = [[sum(sympy.Rational(c.numerator, c.denominator) * s ** (deg - j) for j, c in enumerate(coeffs))
           for deg, coeffs in row] for row in P]
    problems = []
    for pivots in combinations(range(width), m):
        params = []
        K = []
        for i, pc in enumerate(pivots):
            row = []
            for j in range(width):
                if j == pc:
                    row.append(sympy.Integer(1))
                elif j > pc and j not in pivots:
                    x = sympy.Symbol(f"x{i}_{j}")
                    params.append(x)
                    row.append(x)
                else:
                    row.append(sympy.Integer(0))
            K.append(row)
        full = sympy.Matrix(Ps + K).det(method="berkowitz")
        gens = [g for g in sympy.Poly(sympy.expand(full), s).all_coeffs() if g != 0]
        if not gens:
            problems.append(f"chart {pivots}: det [P; K] vanishes identically")
            continue
        if not params:
            continue  # a nonzero constant generator: no solution on this chart
        basis = sympy.groebner(gens, *params, order="grevlex")
        if list(basis.exprs) != [1]:
            problems.append(f"chart {pivots}: sympy basis is not {{1}}")
    return problems
