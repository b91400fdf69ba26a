"""Sparse multivariate polynomials over the rationals.

These carry the parametrized coefficient systems produced by chart
parametrizations (unknown entries of constant matrices) and their Groebner
reductions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import DegreeMismatch
from .linalg import ONE, ZERO, frac, subset_det

Exponents = tuple[int, ...]
OrderKey = Callable[[Exponents], tuple]


def grevlex_key(exps: Exponents) -> tuple:
    """Sort key realizing graded reverse lexicographic order."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def lex_key(exps: Exponents) -> tuple:
    return tuple(exps)


class MultiPoly:
    """Polynomial in named variables; terms maps exponent vectors to coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, Fraction] | None = None):
        self.variables = tuple(variables)
        clean: dict[Exponents, Fraction] = {}
        if terms:
            n = len(self.variables)
            for exps, coeff in terms.items():
                if len(exps) != n:
                    raise DegreeMismatch("exponent vector does not match variable count")
                c = frac(coeff)
                if c != 0:
                    clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "MultiPoly":
        v = frac(value)
        if v == 0:
            return cls(variables)
        return cls(variables, {tuple(0 for _ in variables): v})

    @classmethod
    def variable(cls, variables: Sequence[str], index: int) -> "MultiPoly":
        exps = tuple(1 if i == index else 0 for i in range(len(variables)))
        return cls(variables, {exps: ONE})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def leading(self, key: OrderKey = grevlex_key) -> tuple[Exponents, Fraction]:
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
            v = out.get(exps, ZERO) + c
            if v == 0:
                out.pop(exps, None)
            else:
                out[exps] = v
        return MultiPoly(self.variables, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e, ZERO) + c1 * c2
                if v == 0:
                    out.pop(e, None)
                else:
                    out[e] = v
        return MultiPoly(self.variables, out)

    def scale(self, c) -> "MultiPoly":
        c = frac(c)
        if c == 0:
            return MultiPoly(self.variables)
        return MultiPoly(self.variables, {e: c * v for e, v in self.terms.items()})

    def mul_term(self, exps: Exponents, coeff: Fraction) -> "MultiPoly":
        if coeff == 0:
            return MultiPoly(self.variables)
        return MultiPoly(
            self.variables,
            {tuple(a + b for a, b in zip(e, exps)): c * coeff for e, c in self.terms.items()},
        )

    def monic(self, key: OrderKey = grevlex_key) -> "MultiPoly":
        if self.is_zero():
            return self
        _, lc = self.leading(key)
        return self.scale(ONE / lc)

    # -- substitution / evaluation -------------------------------------------

    def substitute(self, assignment: Mapping[int, Fraction]) -> "MultiPoly":
        """Plug rational values in for a subset of variables (by index)."""
        out = MultiPoly(self.variables)
        for exps, c in self.terms.items():
            coeff = c
            new_exps = list(exps)
            for i, val in assignment.items():
                e = exps[i]
                if e:
                    coeff *= frac(val) ** e
                new_exps[i] = 0
            if coeff != 0:
                out = out + MultiPoly(self.variables, {tuple(new_exps): coeff})
        return out

    def eval(self, point: Sequence) -> Fraction:
        vals = [frac(x) for x in point]
        acc = ZERO
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(vals, exps):
                if e:
                    term *= v**e
            acc += term
        return acc

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
    return all(a <= b for a, b in zip(e1, e2))


def normal_form(f: MultiPoly, divisors: Sequence[MultiPoly], key: OrderKey = grevlex_key) -> MultiPoly:
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


def mp_det(grid: Sequence[Sequence[MultiPoly]], variables: Sequence[str]) -> MultiPoly:
    """Determinant of a MultiPoly grid by column-subset dynamic programming."""
    det = subset_det(grid, MultiPoly.constant(variables, 1))
    return MultiPoly(variables) if det is None else det
