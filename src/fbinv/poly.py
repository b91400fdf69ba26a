"""Univariate polynomials in s and homogeneous bivariate polynomials in (s, t).

A homogeneous polynomial carries its degree as a formal label so that the zero
polynomial of each degree is representable; this is what lets autoregressive
rows keep their degree shape even when entries vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DegreeExceeded, DegreeMismatch
from .linalg import ONE, ZERO, frac, subset_det


@dataclass(frozen=True)
class UniPoly:
    """Polynomial in s; coeffs[k] is the coefficient of s^k, no trailing zeros."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_coeffs(cls, coeffs: Iterable) -> "UniPoly":
        c = [frac(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        return cls(tuple(c))

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def constant(cls, value) -> "UniPoly":
        return cls.from_coeffs([value])

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly.from_coeffs([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(tuple(out))

    def scale(self, c) -> "UniPoly":
        c = frac(c)
        if c == 0:
            return UniPoly.zero()
        return UniPoly(tuple(c * x for x in self.coeffs))

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dq = len(rem) - len(div)
        if dq < 0:
            return UniPoly.zero(), self
        quo = [ZERO] * (dq + 1)
        lead = div[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(div) - 1] / lead
            quo[k] = c
            if c != 0:
                for j, d in enumerate(div):
                    rem[k + j] -= c * d
        return UniPoly.from_coeffs(quo), UniPoly.from_coeffs(rem[: len(div) - 1])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(ONE / self.coeffs[-1])

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mono = "" if k == 0 else ("s" if k == 1 else f"s^{k}")
            parts.append(_format_term(c, mono, first=not parts))
        return "".join(parts)


@dataclass(frozen=True)
class HomPoly:
    """Homogeneous polynomial of formal degree d; coeffs[j] multiplies s^(d-j) t^j."""

    degree: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.degree < 0:
            raise DegreeMismatch("negative formal degree")
        if len(self.coeffs) != self.degree + 1:
            raise DegreeMismatch("coefficient list does not match formal degree")

    @classmethod
    def zero(cls, degree: int) -> "HomPoly":
        return cls(degree, tuple(ZERO for _ in range(degree + 1)))

    @classmethod
    def from_coeffs(cls, degree: int, coeffs: Iterable) -> "HomPoly":
        return cls(degree, tuple(frac(x) for x in coeffs))

    @classmethod
    def from_terms(cls, degree: int, terms: Iterable[tuple]) -> "HomPoly":
        """Build from (coefficient, s_exponent, t_exponent) triples."""
        c = [ZERO] * (degree + 1)
        for coeff, a, b in terms:
            if a + b != degree:
                raise DegreeMismatch(f"term s^{a} t^{b} is not of degree {degree}")
            c[b] += frac(coeff)
        return cls(degree, tuple(c))

    @classmethod
    def monomial(cls, coeff, s_exp: int, t_exp: int) -> "HomPoly":
        return cls.from_terms(s_exp + t_exp, [(coeff, s_exp, t_exp)])

    @classmethod
    def constant(cls, value) -> "HomPoly":
        return cls.from_coeffs(0, [value])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def coeff(self, s_exp: int, t_exp: int) -> Fraction:
        if s_exp + t_exp != self.degree or t_exp < 0 or s_exp < 0:
            return ZERO
        return self.coeffs[t_exp]

    def __add__(self, other: "HomPoly") -> "HomPoly":
        if self.degree != other.degree:
            # zero is homogeneous of every degree; let it adapt
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise DegreeMismatch(f"cannot add degrees {self.degree} and {other.degree}")
        return HomPoly(self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "HomPoly":
        return HomPoly(self.degree, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + (-other)

    def __mul__(self, other: "HomPoly") -> "HomPoly":
        d = self.degree + other.degree
        out = [ZERO] * (d + 1)
        for j, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for k, b in enumerate(other.coeffs):
                if b != 0:
                    out[j + k] += a * b
        return HomPoly(d, tuple(out))

    def scale(self, c) -> "HomPoly":
        c = frac(c)
        return HomPoly(self.degree, tuple(c * x for x in self.coeffs))

    def shift(self, s_exp: int, t_exp: int) -> "HomPoly":
        """Multiply by the monomial s^s_exp t^t_exp."""
        d = self.degree + s_exp + t_exp
        out = [ZERO] * (d + 1)
        for j, c in enumerate(self.coeffs):
            out[j + t_exp] = c
        return HomPoly(d, tuple(out))

    def eval(self, s0, t0) -> Fraction:
        """Horner's rule in s0, carrying one running power of t0."""
        if self.is_zero():
            return ZERO
        s0, t0 = frac(s0), frac(t0)
        acc = ZERO
        tpow = ONE
        for c in self.coeffs:
            acc = acc * s0 + c * tpow
            tpow *= t0
        return acc

    def t_valuation(self) -> int:
        """Smallest t-exponent with nonzero coefficient (degree+1 for zero)."""
        for j, c in enumerate(self.coeffs):
            if c != 0:
                return j
        return self.degree + 1

    def s_valuation(self) -> int:
        for j in range(self.degree, -1, -1):
            if self.coeffs[j] != 0:
                return self.degree - j
        return self.degree + 1

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            a = self.degree - j
            mono = _bi_mono(a, j)
            parts.append(_format_term(c, mono, first=not parts))
        return "".join(parts)


def _bi_mono(a: int, b: int) -> str:
    s_part = "" if a == 0 else ("s" if a == 1 else f"s^{a}")
    t_part = "" if b == 0 else ("t" if b == 1 else f"t^{b}")
    if s_part and t_part:
        return s_part + "*" + t_part
    return s_part or t_part


def _format_term(c: Fraction, mono: str, first: bool) -> str:
    sign = "-" if c < 0 else ("" if first else "+")
    mag = abs(c)
    if not mono:
        body = str(mag)
    elif mag == 1:
        body = mono
    else:
        body = f"{mag}*{mono}"
    return sign + body if first else f" {sign or '+'} {body}"


def homogenize(f: UniPoly, target_degree: int) -> HomPoly:
    """Send each term c s^a to c s^a t^(target_degree - a)."""
    if f.degree > target_degree:
        raise DegreeExceeded(f"degree {f.degree} exceeds target {target_degree}")
    out = [ZERO] * (target_degree + 1)
    for a, c in enumerate(f.coeffs):
        out[target_degree - a] = c
    return HomPoly(target_degree, tuple(out))


def dehomogenize(h: HomPoly) -> UniPoly:
    """Evaluate at t = 1."""
    return UniPoly.from_coeffs([h.coeffs[h.degree - a] for a in range(h.degree + 1)])


def uni_mat_det(grid: Sequence[Sequence[UniPoly]]) -> UniPoly:
    """Determinant of a UniPoly grid by column-subset dynamic programming."""
    det = subset_det(grid, UniPoly.constant(1))
    return UniPoly.zero() if det is None else det
