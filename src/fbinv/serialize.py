"""JSON file formats for every core type.

Rationals are strings "p/q" (q > 0) or integer strings; matrices are
row-major nested lists; a homogeneous polynomial is {"degree": d, "terms":
[["c", a, b], ...]} with a + b = d.  Dumps are deterministic (sorted keys,
fixed separators) so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .arsys import ARSystem, SyzygyBasis, validate
from .errors import ParseError, ShapeMismatch
from .grassmann import GrassmannPoint
from .linalg import RatMatrix, frac
from .pencil import PencilSystem
from .poly import HomPoly, UniPoly
from .polymatrix import HomPolyMatrix
from .realization import MFD, StateSpace

# Largest polynomial or row degree a document may declare.  Past parsing,
# nothing finishes near it: the kernel engine's degree-n system alone has
# (m+p)(n+1) columns.
MAX_DEGREE = 1000


def rational_to_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rational(value) -> Fraction:
    """An integer, or a string "p/q" or "p" of ASCII digits with an optional sign on p."""
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, str) and not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", value, re.ASCII):
        raise ParseError(f"bad rational {value!r}: expected an integer or p/q")
    if isinstance(value, (int, str)):
        try:
            return frac(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {value!r}: {exc}") from None
    raise ParseError(f"rationals must be integers or strings, got {type(value).__name__}")


def matrix_to_json(mat: RatMatrix) -> list[list[str]]:
    return [[rational_to_str(x) for x in row] for row in mat.entries]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_int(value, what: str) -> int:
    """A JSON integer, taken as it is: no float, string or bool is converted."""
    if not _is_int(value):
        raise ParseError(f"bad {what} {value!r}")
    return value


def _parse_degree(value, what: str) -> int:
    degree = _parse_int(value, what)
    if degree < 0:
        raise ParseError(f"bad {what} {degree!r}")
    if degree > MAX_DEGREE:
        raise ParseError(f"{what} {degree} exceeds the limit {MAX_DEGREE}")
    return degree


def _nested_list(data, what: str) -> list[list]:
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ParseError(f"{what} must be a nested list")
    return data


def parse_matrix(data, what: str = "matrix") -> RatMatrix:
    _nested_list(data, what)
    if data and any(len(r) != len(data[0]) for r in data):
        raise ParseError(f"{what} rows have inconsistent lengths")
    return RatMatrix.from_rows([[parse_rational(x) for x in row] for row in data])


def hompoly_to_json(h: HomPoly) -> dict:
    terms = [
        [rational_to_str(c), h.degree - j, j]
        for j, c in enumerate(h.coeffs)
        if c != 0
    ]
    return {"degree": h.degree, "terms": terms}


def parse_hompoly(data) -> HomPoly:
    if not isinstance(data, dict) or "degree" not in data or "terms" not in data:
        raise ParseError("polynomial needs 'degree' and 'terms'")
    degree = _parse_degree(data["degree"], "degree")
    if not isinstance(data["terms"], list):
        raise ParseError("'terms' must be a list")
    triples = []
    for term in data["terms"]:
        if not (isinstance(term, list) and len(term) == 3):
            raise ParseError(f"bad term {term!r}")
        c, a, b = term
        if not _is_int(a) or not _is_int(b) or a < 0 or b < 0:
            raise ParseError(f"bad exponents in {term!r}")
        if a + b != degree:
            raise ParseError(f"term s^{a} t^{b} does not have degree {degree}")
        triples.append((parse_rational(c), a, b))
    return HomPoly.from_terms(degree, triples)


def unipoly_to_json(f: UniPoly) -> list[str]:
    return [rational_to_str(c) for c in f.coeffs]


def parse_unipoly(data) -> UniPoly:
    if not isinstance(data, list):
        raise ParseError("univariate polynomial must be a coefficient list")
    return UniPoly.from_coeffs([parse_rational(x) for x in data])


def ar_to_json(ar: ARSystem) -> dict:
    return {
        "kind": "ar",
        "m": ar.m,
        "p": ar.p,
        "row_degrees": list(ar.row_degrees),
        "P": [[hompoly_to_json(e) for e in row] for row in ar.P.entries],
    }


def parse_ar(data) -> ARSystem:
    for key in ("m", "p", "row_degrees", "P"):
        if key not in data:
            raise ParseError(f"ar system missing '{key}'")
    rows = _nested_list(data["P"], "'P'")
    if not rows:
        raise ParseError("'P' must be a nonempty nested list")
    grid = [[parse_hompoly(e) for e in row] for row in rows]
    degrees = data["row_degrees"]
    if not isinstance(degrees, list):
        raise ParseError("'row_degrees' must be a list")
    return validate(
        HomPolyMatrix.from_rows(grid),
        [_parse_degree(d, "row degree") for d in degrees],
        _parse_int(data["m"], "'m'"),
        _parse_int(data["p"], "'p'"),
    )


def state_space_to_json(ss: StateSpace) -> dict:
    return {
        "kind": "state_space",
        "A": matrix_to_json(ss.A),
        "B": matrix_to_json(ss.B),
        "C": matrix_to_json(ss.C),
        "D": matrix_to_json(ss.D),
    }


def parse_state_space(data) -> StateSpace:
    for key in ("A", "B", "C", "D"):
        if key not in data:
            raise ParseError(f"state space missing '{key}'")
    return StateSpace(
        parse_matrix(data["A"], "A"),
        parse_matrix(data["B"], "B"),
        parse_matrix(data["C"], "C"),
        parse_matrix(data["D"], "D"),
    )


def mfd_to_json(mfd: MFD) -> dict:
    out = {
        "kind": "mfd",
        "D": [[unipoly_to_json(f) for f in row] for row in mfd.Dmat],
        "N": [[unipoly_to_json(f) for f in row] for row in mfd.Nmat],
        "row_degrees": list(mfd.row_degrees),
    }
    if mfd.improper:
        out["improper"] = True
    if mfd.reduced_from is not None:
        out["reduced_from"] = mfd.reduced_from
    return out


def parse_mfd(data) -> MFD:
    for key in ("D", "N"):
        if key not in data:
            raise ParseError(f"mfd missing '{key}'")
    Dmat = tuple(tuple(parse_unipoly(f) for f in row) for row in _nested_list(data["D"], "'D'"))
    Nmat = tuple(tuple(parse_unipoly(f) for f in row) for row in _nested_list(data["N"], "'N'"))
    if len(Dmat) != len(Nmat) or not Dmat:
        raise ParseError("D and N must have the same positive number of rows")
    if any(len(r) != len(Dmat) for r in Dmat):
        raise ParseError("D block must be square")
    degrees = data.get("row_degrees")
    if degrees is None:
        degrees = [
            max(max((f.degree for f in drow + nrow), default=0), 0)
            for drow, nrow in zip(Dmat, Nmat)
        ]
    elif not isinstance(degrees, list):
        raise ParseError("'row_degrees' must be a list")
    reduced_from = data.get("reduced_from")
    if reduced_from is not None and not (_is_int(reduced_from) and reduced_from >= 0):
        raise ParseError(f"bad 'reduced_from' {reduced_from!r}")
    improper = data.get("improper", False)
    if not isinstance(improper, bool):
        raise ParseError(f"bad 'improper' {improper!r}")
    return MFD(
        Dmat,
        Nmat,
        tuple(_parse_degree(d, "row degree") for d in degrees),
        improper=improper,
        reduced_from=reduced_from,
    )


def pencil_to_json(ps: PencilSystem) -> dict:
    return {
        "kind": "pencil",
        "K": matrix_to_json(ps.K),
        "L": matrix_to_json(ps.L),
        "M": matrix_to_json(ps.M),
    }


def parse_pencil(data) -> PencilSystem:
    for key in ("K", "L", "M"):
        if key not in data:
            raise ParseError(f"pencil missing '{key}'")
    K = parse_matrix(data["K"], "K")
    L = parse_matrix(data["L"], "L")
    M = parse_matrix(data["M"], "M")
    n = K.cols
    p = K.rows - n
    m = M.cols - p
    if p < 1 or m < 1:
        raise ParseError("pencil dimensions are inconsistent")
    return PencilSystem(K, L, M, n, m, p)


def transform_to_json(T: RatMatrix) -> dict:
    return {"kind": "transform", "T": matrix_to_json(T)}


def parse_transform(data) -> RatMatrix:
    if "T" in data:
        return parse_matrix(data["T"], "T")
    for key in ("T1", "T2"):
        if key not in data:
            raise ParseError("transform needs 'T' or blocks 'T1', 'F', 'G', 'T2'")
    T1 = parse_matrix(data["T1"], "T1")
    T2 = parse_matrix(data["T2"], "T2")
    m, p = T1.rows, T2.rows
    F = parse_matrix(data["F"], "F") if "F" in data else RatMatrix.zeros(m, p)
    G = parse_matrix(data["G"], "G") if "G" in data else RatMatrix.zeros(p, m)
    if F.rows != m or F.cols != p or G.rows != p or G.cols != m:
        raise ParseError("transform blocks have inconsistent shapes")
    top = T1.hstack(F)
    bottom = G.hstack(T2)
    return top.vstack(bottom)


def syzygy_to_json(syz: SyzygyBasis) -> dict:
    return {
        "kind": "syzygy",
        "row_degrees": list(syz.row_degrees),
        "Q": [[hompoly_to_json(e) for e in row] for row in syz.Q.entries],
    }


def grassmann_to_json(point: GrassmannPoint, with_pluecker: bool = True) -> dict:
    out: dict[str, Any] = {
        "kind": "grassmann_point",
        "ambient_dim": point.ambient_dim,
        "subspace_dim": point.subspace_dim,
        "canonical_basis": matrix_to_json(point.canonical_basis),
    }
    if with_pluecker:
        try:
            out["pluecker"] = [rational_to_str(x) for x in point.pluecker]
        except ShapeMismatch:
            out["pluecker_omitted"] = "coordinate vector exceeds the size cap"
    return out


_PARSERS = {
    "ar": parse_ar,
    "state_space": parse_state_space,
    "mfd": parse_mfd,
    "pencil": parse_pencil,
    "transform": parse_transform,
}


def parse_system(data):
    """Dispatch on the 'kind' field; returns the corresponding core object."""
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _PARSERS:
        raise ParseError(f"unknown or missing kind {kind!r}")
    return _PARSERS[kind](data)


def load_system(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError and over-long ints
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    return parse_system(data)


def system_to_json(obj) -> dict:
    if isinstance(obj, ARSystem):
        return ar_to_json(obj)
    if isinstance(obj, StateSpace):
        return state_space_to_json(obj)
    if isinstance(obj, MFD):
        return mfd_to_json(obj)
    if isinstance(obj, PencilSystem):
        return pencil_to_json(obj)
    if isinstance(obj, SyzygyBasis):
        return syzygy_to_json(obj)
    if isinstance(obj, GrassmannPoint):
        return grassmann_to_json(obj)
    if isinstance(obj, RatMatrix):
        return transform_to_json(obj)
    raise TypeError(f"no serialization for {type(obj).__name__}")


def dumps(data) -> str:
    return json.dumps(data, sort_keys=True, indent=1)
