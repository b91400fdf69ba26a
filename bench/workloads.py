"""The benchmark's workloads: seeded inputs, the timed operations and their checks.

Inputs are built from the run's seed during set-up; the hanging `witness`
inputs are the exception, fixed so that they fail the same way in every run.
An operation is one public decision call (`certify`, `witness`) or one whole
CLI chain for one input file (`cli-chain`).
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import checks

# (p, m, n) with balanced row degrees and n >= mp: every chart's Groebner run
# ends in {1}.  (2,4,8) is left out: its exhaustive stability check alone takes
# minutes.  The small rungs repeat so that the median falls among many inputs.
# (2,3,7) repeats so that the p90 tail falls in the middle of its stability
# checks, five per round: spread over the round they sample a third of it,
# which keeps the tail from resting on a few moments of a wandering machine.
CERTIFY_LADDER = (
    ((2, 2, 4), 4),
    ((2, 2, 5), 4),
    ((3, 2, 6), 2),
    ((2, 3, 6), 2),
    ((2, 3, 7), 5),
    ((3, 2, 7), 2),
    ((4, 2, 8), 1),
)
CERTIFY_DEADLINE_S = 30.0
# Inputs whose charts are checked against sympy's Groebner engine, when it is installed.
SYMPY_CHECKED = ((2, 2, 4),)
HAVE_SYMPY = importlib.util.find_spec("sympy") is not None

# ((p, m, row degrees), inputs per round) with n < mp.  These compositions
# decide in well under a second on every seed tried; the seed draws the
# coefficients.  The row order is fixed because it changes the chart search's
# cost several-fold.  The third copies fill the 120-140 ms band of decision
# times where the median falls, so that it rests on many inputs.  The four
# copies of each (2,3,5) composition fill the 300-400 ms band of stability
# checks where the p90 tail falls: with only two draws each, which draws a
# seed made moved the tail by a fifth.
WITNESS_LADDER = (
    ((2, 2, (0, 3)), 2),
    ((2, 3, (0, 4)), 2),
    ((2, 3, (1, 3)), 3),
    ((3, 2, (0, 0, 4)), 3),
    ((3, 2, (0, 1, 3)), 3),
    ((2, 3, (1, 4)), 4),
    ((2, 3, (0, 5)), 4),
    ((3, 2, (0, 2, 3)), 2),
    ((3, 2, (1, 1, 3)), 3),
)
# Balanced-degree n < mp inputs, fixed rather than seeded: `is_nondegenerate`
# does not return on them, because `ideals.rational_roots` enumerates divisors
# of a constant term of 130 and 138 bits at the first solvable chart.  Each
# counts as one failed op per round until root finding is fixed.  Entries are
# the arguments of random_ar_system(random.Random(seed), m, p, n, row_degrees).
WITNESS_HANGING = ((0, 3, 2, 5, None), (0, 2, 3, 5, (2, 2, 1)))
WITNESS_DEADLINE_S = 2.5

# Observable state spaces (n, m, p) with n <= 4 and m, p <= 2, each drawn
# CLI_COPIES times.  Multi-output sizes keep n >= mp, where a chart search
# never has to extract a witness.
CLI_LADDER = (
    (2, 1, 1),
    (2, 2, 1),
    (3, 1, 1),
    (4, 1, 1),
    (3, 2, 1),
    (4, 2, 1),
    (2, 1, 2),
    (3, 1, 2),
    (4, 1, 2),
    (4, 2, 2),
)
CLI_COPIES = 3
CLI_DEADLINE_S = 10.0


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    deadline_s: float


def balanced(n: int, p: int) -> list[int]:
    q, r = divmod(n, p)
    return [q + (1 if i < r else 0) for i in range(p)]


def spread(keyed):
    """Order `(k, count, item)` entries so that each rung's copies are spread
    evenly over the round, copy k of count at (k + 1/2) / count of the way.

    A rung's ops then sample the machine at several moments of every round
    rather than in one burst, which steadies the percentiles that rest on them.
    """
    order = sorted(range(len(keyed)), key=lambda i: (keyed[i][0] + 0.5) / keyed[i][1])
    return [keyed[i][2] for i in order]


class DecisionWorkload:
    """`is_nondegenerate` then the exhaustive `stability_check` on each input.

    The decisions are looked up on `fbinv.stability` at call time, so a tracer
    that rebinds them there sees every call.
    """

    def __init__(self, inputs, deadline_s: float, sympy_sizes=()):
        import fbinv.stability

        self.stability = fbinv.stability
        self.inputs = inputs  # [(label, ARSystem)]
        self.sympy_sizes = sympy_sizes
        self.ops: list[Op] = []
        for label, ar in inputs:
            self.ops.append(Op(f"nondegenerate {label}", self._nondegenerate(ar), deadline_s))
            self.ops.append(Op(f"stability {label}", self._stability(ar), deadline_s))

    def _nondegenerate(self, ar):
        return lambda: self.stability.is_nondegenerate(ar)

    def _stability(self, ar):
        return lambda: self.stability.stability_check(ar, self.stability.StabilityMode.EXHAUSTIVE)

    def report(self, output) -> bytes:
        """The verdict's full, deterministic text: status, witnesses, charts, ranks."""
        return repr(output).encode()

    def declined(self, output) -> str | None:
        status = output.status.value
        return "returned NotCertified" if status == "NotCertified" else None

    def check(self, outputs: dict[int, object]) -> dict[int, list[str]]:
        from fbinv.arsys import compute_Q, is_observable, observable_part

        problems: dict[int, list[str]] = {}
        for i, (_label, ar) in enumerate(self.inputs):
            P = checks.matrix_of(ar.P)
            m, p, n = ar.m, ar.p, ar.n
            nd = outputs.get(2 * i)
            st = outputs.get(2 * i + 1)
            if nd is not None:
                found = checks.check_dimension_count(nd.status.value, m, p, n)
                witnesses = [nd.witness] + [r.witness for r in nd.chart_reports]
                for K in witnesses:
                    if K is not None:
                        found += checks.check_degeneracy_witness(P, K.entries, m, n)
                if nd.status.value == "Nondegenerate" and (p, m, n) in self.sympy_sizes and HAVE_SYMPY:
                    found += checks.check_unit_charts_sympy(P, m, p)
                problems[2 * i] = found
            if st is not None:
                found = []
                if nd is not None:
                    found += checks.check_stable_if_nondegenerate(nd.status.value, st.status.value)
                syz = compute_Q(observable_part(ar))
                Q = checks.matrix_of(syz.Q)
                found += checks.check_kernel(P, Q, syz.row_degrees, n, is_observable(ar))
                details = checks.details_of(st)
                if st.witness is not None:
                    found += checks.check_stability_witness(Q, st.witness.entries, details)
                sampled = self.stability.stability_check(
                    ar, self.stability.StabilityMode.GENERIC_SUBSPACE, seed=i
                )
                found += checks.check_modes_agree(
                    st.status.value, details, sampled.status.value, checks.details_of(sampled)
                )
                problems[2 * i + 1] = found
        return problems


def certify(seed: int, workdir: str) -> DecisionWorkload:
    from fbinv.sampling import random_ar_system

    rng = random.Random(seed)
    keyed = []
    for (p, m, n), count in CERTIFY_LADDER:
        for k in range(count):
            ar = random_ar_system(rng, m, p, n, row_degrees=balanced(n, p))
            keyed.append((k, count, (f"(p,m,n)=({p},{m},{n}) #{k}", ar)))
    return DecisionWorkload(spread(keyed), CERTIFY_DEADLINE_S, SYMPY_CHECKED)


def witness(seed: int, workdir: str) -> DecisionWorkload:
    from fbinv.reference import reference_system
    from fbinv.sampling import random_ar_system

    rng = random.Random(seed)
    keyed = []
    for (p, m, degrees), count in WITNESS_LADDER:
        for k in range(count):
            ar = random_ar_system(rng, m, p, sum(degrees), row_degrees=degrees)
            keyed.append((k, count, (f"(p,m,n)=({p},{m},{sum(degrees)}) degrees {degrees} #{k}", ar)))
    inputs = spread(keyed)
    inputs.append(("reference_system", reference_system()))
    for fixed_seed, m, p, n, rows in WITNESS_HANGING:
        ar = random_ar_system(random.Random(fixed_seed), m, p, n, row_degrees=rows)
        inputs.append((f"(p,m,n)=({p},{m},{n}) degrees {ar.row_degrees}, fixed seed {fixed_seed}", ar))
    return DecisionWorkload(inputs, WITNESS_DEADLINE_S)


class CliChainWorkload:
    """factorize -> homogenize -> nondegenerate -> stability generic -> stability exhaustive.

    Each command runs through `fbinv.cli.main` in this process, with its
    report captured and its `-o` payload written under `workdir`.
    """

    def __init__(self, seed: int, workdir: str):
        import fbinv.cli
        from fbinv.sampling import random_state_space
        from fbinv.serialize import dumps, system_to_json

        self.cli = fbinv.cli
        rng = random.Random(seed)
        keyed = []
        for n, m, p in CLI_LADDER:
            for k in range(CLI_COPIES):
                ss = random_state_space(rng, n, m, p, observable=True)
                prefix = os.path.join(workdir, f"sys{len(keyed)}")
                with open(prefix + "-ss.json", "w", encoding="utf-8") as fh:
                    fh.write(dumps(system_to_json(ss)) + "\n")
                keyed.append((k, CLI_COPIES, (f"(n,m,p)=({n},{m},{p}) #{k}", ss, prefix)))
        self.inputs = spread(keyed)  # [(label, StateSpace, path prefix)]
        self.ops = [
            Op(f"chain {label}", self._chain(prefix), CLI_DEADLINE_S)
            for label, _ss, prefix in self.inputs
        ]

    def _chain(self, prefix):
        steps = (
            ["factorize", prefix + "-ss.json", "-o", prefix + "-mfd.json"],
            ["homogenize", prefix + "-mfd.json", "-o", prefix + "-ar.json"],
            ["nondegenerate", prefix + "-ar.json"],
            ["stability", prefix + "-ar.json", "--mode", "generic"],
            ["stability", prefix + "-ar.json", "--mode", "exhaustive"],
        )

        def run():
            codes, texts = [], []
            for argv in steps:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    codes.append(self.cli.main(argv))
                texts.append(out.getvalue())
            for suffix in ("-mfd.json", "-ar.json"):
                with open(prefix + suffix, encoding="utf-8") as fh:
                    texts.append(fh.read())
            return tuple(codes), tuple(texts)

        return run

    def report(self, output) -> bytes:
        codes, texts = output
        return (repr(codes) + "\n" + "\n".join(texts)).encode()

    def declined(self, output) -> str | None:
        codes = output[0]
        # generic mode never certifies: exit 3 there is its documented outcome
        if codes[3] not in (0, 3):
            return f"generic stability exited {codes[3]}"
        if any(c != 0 for i, c in enumerate(codes) if i != 3):
            return f"exit codes {codes}"
        return None

    def check(self, outputs: dict[int, object]) -> dict[int, list[str]]:
        from fbinv.arsys import compute_Q, is_observable, observable_part
        from fbinv.serialize import parse_system

        problems: dict[int, list[str]] = {}
        for i, (_label, ss, _prefix) in enumerate(self.inputs):
            if i not in outputs:
                continue
            _codes, texts = outputs[i]
            nondeg, generic, exhaustive = (json.loads(t) for t in texts[2:5])
            mfd, ar_json = json.loads(texts[5]), json.loads(texts[6])
            A, B, C, Dss = ([list(row) for row in M.entries] for M in (ss.A, ss.B, ss.C, ss.D))
            Dmat = [checks.rat_from_json(row) for row in mfd["D"]]
            Nmat = [checks.rat_from_json(row) for row in mfd["N"]]
            degrees = mfd["row_degrees"]
            P = [[checks.poly_from_json(e) for e in row] for row in ar_json["P"]]
            m, p, n = ar_json["m"], ar_json["p"], sum(ar_json["row_degrees"])
            found = checks.check_factorization(A, B, C, Dss, Dmat, Nmat, degrees)
            found += checks.check_homogenized(P, Dmat, Nmat, degrees)
            found += checks.check_dimension_count(nondeg["status"], m, p, n)
            witnesses = [nondeg["witness"]] + [c["witness"] for c in nondeg["charts"]]
            for K in witnesses:
                if K is not None:
                    found += checks.check_degeneracy_witness(P, checks.rat_from_json(K), m, n)
            found += checks.check_stable_if_nondegenerate(nondeg["status"], exhaustive["status"])
            found += checks.check_modes_agree(
                exhaustive["status"], exhaustive["details"], generic["status"], generic["details"]
            )
            if p == 1:
                found += checks.check_miso(P, exhaustive["status"])
            ar = parse_system(ar_json)
            syz = compute_Q(observable_part(ar))
            Q = checks.matrix_of(syz.Q)
            found += checks.check_kernel(P, Q, syz.row_degrees, n, is_observable(ar))
            for report in (generic, exhaustive):
                if report["witness"] is not None:
                    found += checks.check_stability_witness(
                        Q, checks.rat_from_json(report["witness"]), report["details"]
                    )
            problems[i] = found
        return problems


WORKLOADS = {"certify": certify, "witness": witness, "cli-chain": CliChainWorkload}
