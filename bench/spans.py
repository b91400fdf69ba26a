"""In-memory spans around fbinv's public layer functions.

The tracer rebinds each traced function in every fbinv module that holds it
(and `RatMatrix.rref` on its class), so callers inside the package pick up the
wrapper through their normal global lookup.  The library code itself is not
edited.  Each wrapper records one span: name, parent, start, end and the
counts taken from its arguments and result.  Spans of one operation stay in
memory until the operation ends, then fold into per-layer totals, so memory
stays bounded however long the run is.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


# Count functions get the call's arguments and its result, which is None when
# a deadline cut the call short.


def _groebner_counts(args, result) -> dict:
    if result is None:
        return {}
    status = result.status.value
    return {
        "unit_basis": status == "NoComplexSolution",
        "solvable": status == "HasComplexSolution",
        "budget_exceeded": status == "BudgetExceeded",
        "basis_size": len(result.basis) if result.basis is not None else 0,
    }


def _normal_form_counts(args, result) -> dict:
    if result is None:
        return {}
    zero = not result.terms
    bits = max((_bits(c) for c in result.terms.values()), default=0)
    return {"zero": zero, "coeff_bits": bits}


def _solve_counts(args, result) -> dict:
    return {"found": result is not None}


def _rational_roots_counts(args, result) -> dict:
    return {"input_bits": max((_bits(Fraction(c)) for c in args[0]), default=0)}


# (layer name, defining module, attribute, count function).  The layer name is
# the metric prefix; `stability.decision` covers both public decision calls.
TARGETS = (
    ("ideals.groebner", "fbinv.ideals", "groebner", _groebner_counts),
    ("multipoly.normal_form", "fbinv.multipoly", "normal_form", _normal_form_counts),
    ("multipoly.mp_det", "fbinv.multipoly", "mp_det", None),
    ("ideals.solve", "fbinv.ideals", "solve_if_zero_dimensional", _solve_counts),
    ("ideals.rational_roots", "fbinv.ideals", "rational_roots", _rational_roots_counts),
    ("arsys.compute_Q", "fbinv.arsys", "compute_Q", None),
    ("arsys.observable_part", "fbinv.arsys", "observable_part", None),
    ("arsys.minimal_kernel_generators", "fbinv.arsys", "minimal_kernel_generators", None),
    ("polymatrix.generic_rank", "fbinv.polymatrix", "generic_rank", None),
    ("realization.left_coprime_mfd", "fbinv.realization", "left_coprime_mfd", None),
    ("realization.to_hom_ar", "fbinv.realization", "to_hom_ar", None),
    ("serialize.load_system", "fbinv.serialize", "load_system", None),
    ("serialize.dumps", "fbinv.serialize", "dumps", None),
    ("cli.main", "fbinv.cli", "main", None),
    ("stability.decision", "fbinv.stability", "is_nondegenerate", None),
    ("stability.decision", "fbinv.stability", "stability_check", None),
)
RREF_LAYER = "linalg.rref"
LAYERS = tuple(dict.fromkeys([t[0] for t in TARGETS] + [RREF_LAYER]))


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)
    maxima: dict = field(default_factory=dict)


class Tracer:
    """Collects spans while installed; `end_op()` turns an operation's spans into totals."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, counts]
        self._stack: list[int] = []
        self.totals = {name: LayerTotals() for name in LAYERS}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), None, None]
            spans.append(span)
            stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[3] = clock()
                stack.pop()
                if count_fn is not None:
                    span[4] = count_fn(args, result)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every traced function where fbinv's modules look it up."""
        modules = [m for n, m in sys.modules.items() if n == "fbinv" or n.startswith("fbinv.")]
        for name, home, attr, count_fn in TARGETS:
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(name, original, count_fn)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        ratmatrix = sys.modules["fbinv.linalg"].RatMatrix
        self._restore.append((ratmatrix, "rref", ratmatrix.rref))
        ratmatrix.rref = self._wrap(RREF_LAYER, ratmatrix.rref, None)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def end_op(self):
        """Fold the operation's spans into the totals, then drop them.

        A deadline can interrupt a wrapper before its span is closed; such a
        span has no end and is skipped.
        """
        closed = [s[3] is not None for s in self.spans]
        child = [0.0] * len(self.spans)
        for ok, (name, parent, start, end, _) in zip(closed, self.spans):
            if ok and parent >= 0:
                child[parent] += end - start
        for index, (name, parent, start, end, counts) in enumerate(self.spans):
            if not closed[index]:
                continue
            totals = self.totals[name]
            totals.calls += 1
            totals.self_s += (end - start) - child[index]
            for key, value in (counts or {}).items():
                if isinstance(value, bool):
                    totals.counts[key] = totals.counts.get(key, 0) + value
                else:
                    totals.maxima[key] = max(totals.maxima.get(key, 0), value)
        self.spans.clear()
        self._stack.clear()

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics, with calls and self times given per round."""
        t = self.totals

        def per_round(value):
            return value / rounds

        def ratio(num, den):
            return num / den if den else 0.0

        g, nf, solve, roots = (
            t["ideals.groebner"],
            t["multipoly.normal_form"],
            t["ideals.solve"],
            t["ideals.rational_roots"],
        )
        out = {
            "ideals.groebner.calls": (per_round(g.calls), "count/round"),
            "ideals.groebner.self_s": (per_round(g.self_s), "s/round"),
            "ideals.groebner.unit_basis": (per_round(g.counts.get("unit_basis", 0)), "count/round"),
            "ideals.groebner.solvable": (per_round(g.counts.get("solvable", 0)), "count/round"),
            "ideals.groebner.budget_exceeded": (
                per_round(g.counts.get("budget_exceeded", 0)),
                "count/round",
            ),
            "ideals.groebner.basis_size_max": (g.maxima.get("basis_size", 0), "count"),
            "multipoly.normal_form.calls": (per_round(nf.calls), "count/round"),
            "multipoly.normal_form.self_s": (per_round(nf.self_s), "s/round"),
            "multipoly.normal_form.zero_ratio": (ratio(nf.counts.get("zero", 0), nf.calls), "ratio"),
            "multipoly.normal_form.coeff_bits_max": (nf.maxima.get("coeff_bits", 0), "bits"),
            "multipoly.mp_det.calls": (per_round(t["multipoly.mp_det"].calls), "count/round"),
            "multipoly.mp_det.self_s": (per_round(t["multipoly.mp_det"].self_s), "s/round"),
            "stability.decision.self_s": (per_round(t["stability.decision"].self_s), "s/round"),
            "ideals.solve.calls": (per_round(solve.calls), "count/round"),
            "ideals.solve.self_s": (per_round(solve.self_s), "s/round"),
            "ideals.solve.found_ratio": (ratio(solve.counts.get("found", 0), solve.calls), "ratio"),
            "ideals.rational_roots.calls": (per_round(roots.calls), "count/round"),
            "ideals.rational_roots.self_s": (per_round(roots.self_s), "s/round"),
            "ideals.rational_roots.input_bits_max": (roots.maxima.get("input_bits", 0), "bits"),
            "linalg.rref.calls": (per_round(t[RREF_LAYER].calls), "count/round"),
        }
        for name in (
            "arsys.compute_Q",
            "arsys.observable_part",
            "arsys.minimal_kernel_generators",
            RREF_LAYER,
            "polymatrix.generic_rank",
            "realization.left_coprime_mfd",
            "realization.to_hom_ar",
            "serialize.load_system",
            "serialize.dumps",
            "cli.main",
        ):
            out[f"{name}.self_s"] = (per_round(t[name].self_s), "s/round")
        return out
