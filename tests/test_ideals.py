import math
import random
from fractions import Fraction

import pytest

from fbinv import ideals, stability
from fbinv.ideals import (
    DEFAULT_BUDGET,
    LEX_BUDGET,
    GroebnerBudget,
    IdealStatus,
    _buchberger,
    _linear_step,
    groebner,
    is_zero_dimensional,
    rational_roots,
    solve_if_zero_dimensional,
)
from fbinv.linalg import RatMatrix
from fbinv.multipoly import MultiPoly, grevlex_key, lex_key, normal_form
from fbinv.sampling import random_ar_system
from oracles import fraction_buchberger, fraction_normal_form, trial_division_rational_roots


def poly(variables, terms):
    return MultiPoly(variables, {tuple(e): Fraction(c) for e, c in terms.items()})


def test_unit_ideal():
    x = ("x",)
    verdict = groebner([poly(x, {(1,): 1}), poly(x, {(1,): 1, (0,): 1})])
    assert verdict.status == IdealStatus.NO_COMPLEX_SOLUTION
    assert len(verdict.basis) == 1 and verdict.basis[0].is_constant()


def test_complex_solution_without_rational_one():
    x = ("x",)
    verdict = groebner([poly(x, {(2,): 1, (0,): 1})])  # x^2 + 1
    assert verdict.status == IdealStatus.HAS_COMPLEX_SOLUTION


def test_common_factor():
    x = ("x",)
    verdict = groebner([poly(x, {(2,): 1, (0,): -1}), poly(x, {(1,): 1, (0,): -1})])
    assert verdict.status == IdealStatus.HAS_COMPLEX_SOLUTION
    assert list(verdict.basis) == [poly(x, {(1,): 1, (0,): -1})]


def test_zero_ideal_is_solvable():
    assert groebner([]).status == IdealStatus.HAS_COMPLEX_SOLUTION
    assert groebner([MultiPoly(("x", "y"))]).status == IdealStatus.HAS_COMPLEX_SOLUTION


def test_budget_exceeded_is_a_verdict():
    xyz = ("x", "y", "z")
    gens = [
        poly(xyz, {(3, 1, 0): 1, (0, 2, 1): 2, (1, 1, 1): -1}),
        poly(xyz, {(1, 3, 0): 1, (0, 0, 3): -2, (2, 0, 1): 1}),
        poly(xyz, {(2, 2, 2): 1, (1, 0, 0): -3}),
    ]
    verdict = groebner(gens, GroebnerBudget(max_pairs=2, max_degree=60))
    assert verdict.status == IdealStatus.BUDGET_EXCEEDED
    assert verdict.basis is None


def test_budget_counts_only_reduced_pairs():
    """Coprime leads leave no pair to reduce, so a zero pair budget still decides."""
    xy = ("x", "y")
    gens = [poly(xy, {(2, 0): 1, (0, 0): -1}), poly(xy, {(0, 2): 1, (0, 0): -2})]
    verdict = groebner(gens, GroebnerBudget(max_pairs=0))
    assert verdict.status == IdealStatus.HAS_COMPLEX_SOLUTION
    assert verdict.basis == tuple(gens)


def test_basis_is_reduced_and_contains_generators():
    rng = random.Random(5)
    xy = ("x", "y")
    for _ in range(20):
        gens = []
        for _ in range(3):
            terms = {}
            for _ in range(3):
                e = (rng.randint(0, 2), rng.randint(0, 2))
                terms[e] = terms.get(e, 0) + rng.randint(-3, 3)
            g = poly(xy, terms)
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        verdict = groebner(gens, GroebnerBudget(max_pairs=500, max_degree=30))
        if verdict.status == IdealStatus.BUDGET_EXCEEDED:
            continue
        basis = [b.primitive() for b in verdict.basis]
        # every original generator reduces to zero
        for g in gens:
            assert normal_form(g.primitive(), basis).is_zero()
        # reduced: leading coefficient 1, no term divisible by another leading term
        for i, b in enumerate(verdict.basis):
            assert b.leading(grevlex_key)[1] == 1
            others = basis[:i] + basis[i + 1 :]
            assert normal_form(basis[i], others) == basis[i]


def test_linear_systems_agree_with_rref():
    rng = random.Random(17)
    names = ("x", "y", "z")
    for _ in range(40):
        rows = rng.randint(1, 4)
        A = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(rows)]
        b = [rng.randint(-4, 4) for _ in range(rows)]
        gens = []
        for row, rhs in zip(A, b):
            terms = {(1 if i == j else 0, 1 if j == 1 else 0, 1 if j == 2 else 0): 0 for i, j in []}
            t = {}
            for j, c in enumerate(row):
                e = tuple(1 if k == j else 0 for k in range(3))
                t[e] = t.get(e, 0) + c
            t[(0, 0, 0)] = -rhs
            g = poly(names, t)
            if not g.is_zero():
                gens.append(g)
        verdict = groebner(gens) if gens else groebner([])
        aug = RatMatrix.from_rows([row + [rhs] for row, rhs in zip(A, b)])
        consistent = aug.rank() == RatMatrix.from_rows(A).rank() if rows else True
        assert verdict.solvable == consistent


def random_poly_set(rng, variables, count):
    gens = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 2) for _ in variables)
            terms[e] = terms.get(e, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        gens.append(poly(variables, terms))
    return gens


def test_linear_step_matches_dense_rref():
    """Sparse fraction-free rows equal the Fraction rref over grevlex-sorted monomials."""
    rng = random.Random(31)
    xy = ("x", "y")
    unit = 0
    for _ in range(150):
        gens = random_poly_set(rng, xy, rng.randint(1, 6))
        if all(g.is_zero() for g in gens):
            continue
        monomials = sorted({e for g in gens for e in g.terms}, key=grevlex_key, reverse=True)
        dense, _ = RatMatrix.from_rows([[g.terms.get(e, 0) for e in monomials] for g in gens]).rref()
        expected = [MultiPoly(xy, dict(zip(monomials, row))) for row in dense.entries]
        rows, certificate = _linear_step(gens, xy)
        if certificate is None:
            assert [r.monic() for r in rows] == expected
        else:
            unit += 1
            assert expected[-1] == MultiPoly.constant(xy, 1)
            assert stability.is_unit_certificate(gens, certificate)
    assert unit > 10


def recorded_chart_systems(seed, p, m, n, row_degrees=None):
    """The generator lists that both decisions hand to groebner on one seeded system."""
    systems = []

    def record(generators, budget=DEFAULT_BUDGET):
        systems.append(list(generators))
        return groebner(generators, budget)

    ar = random_ar_system(random.Random(seed), m, p, n, row_degrees=row_degrees)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stability, "groebner", record)
        stability.is_nondegenerate(ar)
        stability.stability_check(ar)
    return systems


@pytest.mark.parametrize("p, m, n", [(2, 2, 4), (2, 3, 5), (3, 2, 6)])
def test_groebner_agrees_with_plain_buchberger_on_chart_systems(p, m, n):
    certified = 0
    for seed in range(2):
        for gens in recorded_chart_systems(seed, p, m, n):
            verdict = groebner(gens)
            basis, exceeded = fraction_buchberger(gens, DEFAULT_BUDGET, grevlex_key)
            assert not exceeded
            assert verdict.basis == tuple(basis)
            unit = len(basis) == 1 and basis[0].is_constant()
            assert verdict.status == (IdealStatus.NO_COMPLEX_SOLUTION if unit else IdealStatus.HAS_COMPLEX_SOLUTION)
            if verdict.certificate is not None:
                certified += 1
                assert unit and stability.is_unit_certificate(gens, verdict.certificate)
    assert certified > 0


def assert_same_buchberger(gens, budget, key, full=None):
    """The engine and the Fraction oracle reach the same reduced basis.

    Without `full`, both run at `budget` and agree on exceeded too.  With it,
    `budget` is small, and the two engines reduce different pairs (sugar order
    with Gebauer-Moeller pruning against lcm-degree order with Buchberger's
    criteria), so they may run out at different points: a basis the engine
    finishes within `budget` must then be the oracle's at `full`.
    """
    basis, exceeded = _buchberger(gens, budget, key)
    if full is not None and exceeded:
        return exceeded
    expected, expected_exceeded = fraction_buchberger(gens, full or budget, key)
    assert exceeded == expected_exceeded
    if not exceeded:
        assert basis == expected
    return exceeded


# (p, m, row degrees): balanced n >= mp charts that end in {1}, and n < mp
# charts with solutions
CHART_SPECS = [(2, 2, (2, 2)), (3, 2, (2, 2, 2)), (4, 2, (2, 2, 2, 2)), (2, 3, (1, 3)), (3, 2, (1, 1, 3))]


@pytest.mark.parametrize("p, m, degrees", CHART_SPECS)
def test_buchberger_agrees_with_fraction_oracle_on_chart_systems(p, m, degrees):
    """The generators groebner hands to Buchberger, as the chart searches record them.

    A basis finished at a small pair budget is the full-budget one, in grevlex
    and lex; at full budget the reduced bases agree in grevlex, and in lex
    wherever solve_if_zero_dimensional would ask for one.
    """
    reached = 0
    for gens in recorded_chart_systems(0, p, m, sum(degrees), list(degrees)):
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        rows, certificate = _linear_step(gens, gens[0].variables)
        if certificate is not None:
            continue
        reached += 1
        for max_pairs in (1, 3, 10):
            budget = GroebnerBudget(max_pairs=max_pairs, max_degree=DEFAULT_BUDGET.max_degree)
            for key in (grevlex_key, lex_key):
                assert_same_buchberger(rows, budget, key, full=DEFAULT_BUDGET)
        assert not assert_same_buchberger(rows, DEFAULT_BUDGET, grevlex_key)
        basis, _ = _buchberger(rows, DEFAULT_BUDGET, grevlex_key)
        if not basis[0].is_constant() and is_zero_dimensional(basis):
            assert_same_buchberger(basis, LEX_BUDGET, lex_key)
    assert reached > 0


def test_pruning_reaches_the_unit_ideal_within_fewer_pairs():
    """The first chart of a balanced (p, m, n) = (4, 2, 8) nondegeneracy search.

    Its 9 quadrics in 8 parameters end in {1}.  Sugar order with
    Gebauer-Moeller pruning gets there by reducing 23 pairs (4 of them to
    zero); the oracle's lcm-degree order with Buchberger's criteria pops 45
    pairs, so it runs out of a 23-pair budget.
    """
    ar = random_ar_system(random.Random(0), 2, 4, 8, row_degrees=[2, 2, 2, 2])
    generators, _ = stability._chart_minor_system(stability._stacked_combination(ar, 2), (0, 1), 6)
    generators = [g for g in generators if not g.is_zero()]
    rows, certificate = _linear_step(generators, generators[0].variables)
    assert certificate is None and len(rows) == 9 and len(rows[0].variables) == 8
    budget = GroebnerBudget(max_pairs=23)
    basis, exceeded = _buchberger(rows, budget, grevlex_key)
    assert not exceeded and basis == [MultiPoly.constant(rows[0].variables, 1)]
    assert fraction_buchberger(rows, budget, grevlex_key)[1]


def random_fraction_poly(rng, variables, max_terms=4):
    """Non-monic, with fractional coefficients, of degree at most 3 in each variable."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, 3) for _ in variables)
        terms[e] = terms.get(e, 0) + Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return MultiPoly(variables, terms)


def assert_primitive_remainder(f, divisors, key):
    """normal_form on the primitive forms is the primitive remainder over the rationals.

    Scaling f and the divisors by positive factors scales the remainder of
    division over Q by a positive factor, so the primitive forms agree.
    """
    rem = normal_form(f.primitive(), [g.primitive() for g in divisors], key)
    assert rem == fraction_normal_form(f, divisors, key).primitive()
    assert all(type(c) is int for c in rem.terms.values())
    return rem


def test_normal_form_is_the_exact_remainder():
    """Fraction-free division returns the primitive remainder division over the rationals gives."""
    rng = random.Random(43)
    xyz = ("x", "y", "z")
    nonzero = 0
    for _ in range(300):
        f = random_fraction_poly(rng, xyz, 8)
        divisors = [random_fraction_poly(rng, xyz) for _ in range(rng.randint(0, 4))]
        for key in (grevlex_key, lex_key):
            nonzero += not assert_primitive_remainder(f, divisors, key).is_zero()
    assert nonzero > 100


def test_chart_systems_and_remainders_keep_int_coefficients(monkeypatch):
    """Chart systems are integer polynomials, and Buchberger reduces them without leaving the integers."""
    generators, remainders = [], []
    build = stability._chart_minor_system

    def built(*args):
        found = build(*args)
        generators.extend(found[0])
        return found

    def counted(*args):
        remainders.append(normal_form(*args))
        return remainders[-1]

    monkeypatch.setattr(stability, "_chart_minor_system", built)
    monkeypatch.setattr(ideals, "normal_form", counted)
    for m, degrees in ((2, [2, 2]), (3, [1, 3])):
        ar = random_ar_system(random.Random(0), m, 2, 4, row_degrees=degrees)
        stability.is_nondegenerate(ar)
        stability.stability_check(ar)
    assert generators and len(remainders) > 50
    for g in generators:
        assert all(type(c) is int for c in g.terms.values())
    for rem in remainders:
        assert all(type(c) is int for c in rem.terms.values())
        assert rem.is_zero() or math.gcd(*rem.terms.values()) == 1


def test_no_float_coefficient_gets_in():
    """With int coefficients a / b is a float; every entry point rejects one."""
    x = MultiPoly.variable(("x",), 0)
    with pytest.raises(TypeError):
        MultiPoly(("x",), {(1,): 0.5})
    with pytest.raises(TypeError):
        x.scale(0.5)
    with pytest.raises(TypeError):
        x.mul_term((1,), 0.5)
    # normal_form reduces integer polynomials only
    with pytest.raises(TypeError):
        normal_form(MultiPoly(("x",), {(1,): Fraction(1, 2)}), [])
    with pytest.raises(TypeError):
        normal_form(MultiPoly(("x",), {(1,): Fraction(1, 2), (0,): 1}), [x])


def test_buchberger_agrees_with_fraction_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coefficient = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    monomial = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
    polynomial = st.dictionaries(monomial, coefficient, min_size=1, max_size=4)

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.lists(polynomial, min_size=1, max_size=3), st.sampled_from([1, 3, 10, 40]))
    def check(terms, max_pairs):
        gens = [MultiPoly(("x", "y", "z"), t) for t in terms]
        budget = GroebnerBudget(max_pairs=max_pairs, max_degree=8)
        for key in (grevlex_key, lex_key):
            assert_same_buchberger(gens, budget, key, full=DEFAULT_BUDGET)
        f = gens[0] * gens[-1] + gens[0]
        for key in (grevlex_key, lex_key):
            assert_primitive_remainder(f, gens[1:], key)

    check()


def test_unit_charts_against_sympy():
    sympy = pytest.importorskip("sympy")
    systems = recorded_chart_systems(0, 2, 2, 4)
    checked = {True: 0, False: 0}
    for gens in systems:
        certified = groebner(gens).certificate is not None
        if checked[certified] >= 3:
            continue
        checked[certified] += 1
        symbols = sympy.symbols(gens[0].variables)
        exprs = [
            sum(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(v**e for v, e in zip(symbols, exps)))
                for exps, c in g.terms.items())
            for g in gens
        ]
        unit = list(sympy.groebner(exprs, *symbols, order="grevlex").exprs) == [1]
        assert unit == (groebner(gens).status == IdealStatus.NO_COMPLEX_SOLUTION)
        if certified:
            assert unit
    assert checked[True] == 3


def test_solve_simple_point():
    xy = ("x", "y")
    basis = [poly(xy, {(1, 0): 1, (0, 0): -1}), poly(xy, {(0, 1): 1, (0, 0): -2})]
    pts = solve_if_zero_dimensional(basis)
    assert pts == [(Fraction(1), Fraction(2))]


def test_solve_no_rational_root():
    x = ("x",)
    basis = [poly(x, {(2,): 1, (0,): -2})]  # x^2 - 2
    assert solve_if_zero_dimensional(basis) is None


def test_solve_unit_ideal():
    x = ("x",)
    assert solve_if_zero_dimensional([MultiPoly.constant(x, 1)]) is None


def test_rational_roots():
    # (2x - 1)(x + 3) = 2x^2 + 5x - 3
    assert rational_roots([-3, 5, 2]) == [Fraction(-3), Fraction(1, 2)]
    assert rational_roots([0, 1]) == [Fraction(0)]
    assert rational_roots([]) == []
    assert rational_roots([0, 0, 0]) == []
    assert rational_roots([7]) == []
    assert rational_roots([Fraction(-1, 3)]) == []
    assert rational_roots([0, 0, 5]) == [Fraction(0)]
    assert rational_roots([1, 0, 1]) == []
    assert rational_roots([-2, 0, 1]) == []
    assert rational_roots([Fraction(1, 2), Fraction(-3, 4), Fraction(1, 4)]) == [1, 2]


def times_linear(coeffs, a, b):
    """Ascending coefficients of coeffs * (a x - b)."""
    out = [0] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] -= b * c
        out[i + 1] += a * c
    return out


def evaluate(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


def test_rational_roots_against_trial_division():
    rng = random.Random(11)
    for _ in range(300):
        coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(0, 9))]
        assert rational_roots(coeffs) == trial_division_rational_roots(coeffs)
    for _ in range(200):
        coeffs = [rng.choice([-3, -2, -1, 1, 2, 3])]
        for _ in range(rng.randint(0, 2)):
            coeffs = [c + rng.randint(-2, 2) for c in coeffs] + [rng.randint(1, 3)]
        for _ in range(rng.randint(0, 3)):
            a, b = rng.randint(1, 4), rng.randint(-4, 4)  # b = 0 plants the zero root
            for _ in range(rng.randint(1, 2)):  # repeated roots
                coeffs = times_linear(coeffs, a, b)
        if rng.random() < 0.3:
            coeffs = [Fraction(c, rng.randint(1, 6)) for c in coeffs]
        assert rational_roots(coeffs) == trial_division_rational_roots(coeffs)


def test_rational_roots_with_large_coefficients():
    """Constant terms of 128 bits and more, far beyond the trial-division oracle."""
    rng = random.Random(29)
    cases = []
    for _ in range(10):
        planted = set()
        coeffs = [rng.randint(1, 2**20) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(3, 5)):
            a, b = rng.randint(1, 2**30), rng.choice([-1, 1]) * rng.randint(2**43, 2**50)
            planted.add(Fraction(b, a))
            coeffs = times_linear(coeffs, a, b)
        assert abs(coeffs[0]).bit_length() >= 128
        roots = rational_roots(coeffs)
        assert roots == sorted(set(roots))
        assert all(evaluate(coeffs, r) == 0 for r in roots)
        assert planted <= set(roots)
        cases.append((coeffs, roots))
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for coeffs, roots in cases:
        _, factors = sympy.Poly(list(reversed(coeffs)), x).factor_list()
        linear = [f.all_coeffs() for f, _ in factors if f.degree() == 1]
        assert roots == sorted(Fraction(-int(c0), int(c1)) for c1, c0 in linear)


def test_rational_roots_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    small = st.integers(-6, 6)
    factor = st.tuples(st.integers(1, 6), small)

    @hypothesis.settings(max_examples=75, deadline=None, database=None)
    @hypothesis.given(st.lists(small, max_size=5), st.lists(factor, max_size=5))
    def check(base, factors):
        coeffs = base
        for a, b in factors:
            coeffs = times_linear(coeffs, a, b)
        roots = rational_roots(coeffs)
        assert all(isinstance(r, Fraction) for r in roots)
        assert roots == sorted(set(roots))
        assert all(evaluate(coeffs, r) == 0 for r in roots)
        if any(coeffs):
            assert {Fraction(b, a) for a, b in factors} <= set(roots)
        else:
            assert roots == []

    check()
