"""Sparse multivariate polynomials with integer or rational coefficients.

These carry the parametrized coefficient systems produced by chart
parametrizations (unknown entries of constant matrices) and their Groebner
reductions, which run on integer polynomials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, le, neg, sub
from typing import Callable, Mapping, Sequence

from .errors import DegreeMismatch
from .linalg import ONE, ZERO, frac, subset_det

Exponents = tuple[int, ...]
OrderKey = Callable[[Exponents], tuple]


def grevlex_key(exps: Exponents) -> tuple:
    """Sort key realizing graded reverse lexicographic order."""
    return (sum(exps), tuple(map(neg, reversed(exps))))


def lex_key(exps: Exponents) -> tuple:
    return tuple(exps)


class MultiPoly:
    """Polynomial in named variables; terms maps exponent vectors to coefficients.

    A coefficient is an int when given as one and a Fraction otherwise, so
    the polynomials built from integers stay integer polynomials.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, int | Fraction] | None = None):
        self.variables = tuple(variables)
        clean: dict[Exponents, int | Fraction] = {}
        if terms:
            n = len(self.variables)
            for exps, coeff in terms.items():
                if len(exps) != n:
                    raise DegreeMismatch("exponent vector does not match variable count")
                c = coeff if type(coeff) is int else frac(coeff)  # a float raises TypeError
                if c != 0:
                    clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "MultiPoly":
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables: Sequence[str], index: int) -> "MultiPoly":
        exps = tuple(1 if i == index else 0 for i in range(len(variables)))
        return cls(variables, {exps: 1})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def leading(self, key: OrderKey = grevlex_key) -> tuple[Exponents, int | Fraction]:
        exps = max(self.terms, key=key)
        return exps, self.terms[exps]

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.variables != other.variables:
            raise DegreeMismatch("operands over different variable lists")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) + c
        return MultiPoly(self.variables, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict[Exponents, int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(self.variables, out)

    def scale(self, c) -> "MultiPoly":
        return MultiPoly(self.variables, {e: c * v for e, v in self.terms.items()})

    def mul_term(self, exps: Exponents, coeff: int | Fraction) -> "MultiPoly":
        return MultiPoly(self.variables, {tuple(map(add, e, exps)): c * coeff for e, c in self.terms.items()})

    def primitive(self) -> "MultiPoly":
        """The positive multiple of self with int coefficients of gcd 1."""
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        ints = {e: c.numerator * (den // c.denominator) for e, c in self.terms.items()}
        content = math.gcd(*ints.values())
        return MultiPoly(self.variables, {e: v // content for e, v in ints.items()})

    def monic(self, key: OrderKey = grevlex_key) -> "MultiPoly":
        if self.is_zero():
            return self
        _, lc = self.leading(key)
        return self.scale(ONE / lc)

    # -- substitution / evaluation -------------------------------------------

    def substitute(self, assignment: Mapping[int, Fraction]) -> "MultiPoly":
        """Plug rational values in for a subset of variables (by index)."""
        out: dict[Exponents, Fraction] = {}
        for exps, c in self.terms.items():
            for i, val in assignment.items():
                c *= frac(val) ** exps[i]
            e = tuple(0 if i in assignment else x for i, x in enumerate(exps))
            out[e] = out.get(e, ZERO) + c
        return MultiPoly(self.variables, out)

    def eval(self, point: Sequence) -> Fraction:
        vals = [frac(x) for x in point]
        return sum((c * math.prod(v**e for v, e in zip(vals, exps) if e) for exps, c in self.terms.items()), ZERO)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[exps]
            mono = "*".join(
                (v if e == 1 else f"{v}^{e}") for v, e in zip(self.variables, exps) if e
            )
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
            parts.append(f"{sign}{body}" if not parts else f" {sign or '+'} {body}")
        return "".join(parts)

    __repr__ = __str__


def divides(e1: Exponents, e2: Exponents) -> bool:
    return all(map(le, e1, e2))


def normal_form(f: MultiPoly, divisors: Sequence[MultiPoly], key: OrderKey = grevlex_key) -> MultiPoly:
    """Primitive remainder of multivariate division of f by the list of divisors.

    f and the divisors have int coefficients.  Fraction-free: eliminating the
    leading term c*x^w of p by g = g_c*x^v + ... is p := a*p - b*x^(w-v)*g,
    a/b = g_c/c in lowest terms with a > 0.  The remainder r collected so far
    is scaled along with p and their common content is divided out after each
    scaling, so r ends as a positive multiple of the remainder of division
    over Q; it is returned divided by its content.
    """
    heads = []
    for g in divisors:
        if g.terms:
            tail = dict(g.terms)
            lead = max(tail, key=key)
            heads.append((lead, tail.pop(lead), tail))
    p = dict(f.terms)
    order = {e: key(e) for e in p}  # the order key of every monomial met
    rem: dict[Exponents, int] = {}
    while p:
        lead = max(p, key=order.__getitem__)
        c = p.pop(lead)
        head = next((h for h in heads if divides(h[0], lead)), None)
        if head is None:
            rem[lead] = c
            continue
        g_lead, g_c, tail = head
        d = math.gcd(c, g_c) if g_c > 0 else -math.gcd(c, g_c)
        a, b = g_c // d, c // d
        if a != 1:
            p = {e: v * a for e, v in p.items()}
            rem = {e: v * a for e, v in rem.items()}
        shift = tuple(map(sub, lead, g_lead))
        for e, v in tail.items():
            m = tuple(map(add, e, shift))
            w = p.get(m, 0) - b * v
            if w:
                p[m] = w
            else:
                del p[m]
            if m not in order:
                order[m] = key(m)
        if a != 1:
            content = math.gcd(*p.values(), *rem.values())
            if content > 1:
                p = {e: v // content for e, v in p.items()}
                rem = {e: v // content for e, v in rem.items()}
    content = math.gcd(*rem.values())
    return MultiPoly(f.variables, {e: v // content for e, v in rem.items()})


def mp_det(grid: Sequence[Sequence[MultiPoly]], variables: Sequence[str]) -> MultiPoly:
    """Determinant of a MultiPoly grid by column-subset dynamic programming."""
    det = subset_det(grid, MultiPoly.constant(variables, 1))
    return MultiPoly(variables) if det is None else det
