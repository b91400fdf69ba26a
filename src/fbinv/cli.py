"""Command-line front end.

Exit codes: 0 the result was computed (mathematical verdicts, true or false,
live in the report, not the exit code); 2 parse or validation failure; 3 a
budget ran out or a certification could not be completed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .arsys import ARSystem, act_T, compute_Q, observable_part, rho_embedding
from .errors import FbinvError, ParseError
from .ideals import DEFAULT_BUDGET, GroebnerBudget
from .linalg import RatMatrix
from .miso import miso_equivalent, miso_invariant
from .pencil import act_pencil, is_admissible, is_controllable, reorder_to_input_first, to_ar
from .realization import MFD, apply_extended_feedback, left_coprime_mfd, to_hom_ar
from .reference import run_reference_checks
from .serialize import (
    MAX_DEGREE,
    dumps,
    grassmann_to_json,
    load_system,
    matrix_to_json,
    system_to_json,
)
from .stability import (
    DegeneracyStatus,
    StabilityMode,
    StabilityStatus,
    is_nondegenerate,
    stability_check,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_CERTIFIED = 3


def _budget(args) -> GroebnerBudget:
    for flag, value in (("--budget", args.budget), ("--max-degree", args.max_degree)):
        if value < 0:
            raise ParseError(f"{flag} must be nonnegative, got {value}")
    return GroebnerBudget(max_pairs=args.budget, max_degree=args.max_degree)


def _seed(args) -> int:
    """--seed, else FBINV_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("FBINV_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"FBINV_SEED must be an integer, got {raw!r}") from None


def _one_based(chart) -> list[int] | None:
    return [c + 1 for c in chart] if chart is not None else None


def cmd_factorize(args):
    ss = load_system(args.input, *args.kinds)
    mfd = left_coprime_mfd(ss, strict=args.strict)
    report = system_to_json(mfd)
    return EXIT_OK, report


def cmd_homogenize(args):
    mfd = load_system(args.input, *args.kinds)
    report = system_to_json(to_hom_ar(mfd))
    return EXIT_OK, report


def cmd_kernel(args):
    ar = load_system(args.input, *args.kinds)
    report = system_to_json(compute_Q(ar))
    return EXIT_OK, report


def cmd_observable_part(args):
    ar = load_system(args.input, *args.kinds)
    report = system_to_json(observable_part(ar))
    return EXIT_OK, report


def cmd_nondegenerate(args):
    ar = load_system(args.input, *args.kinds)
    verdict = is_nondegenerate(ar, budget=_budget(args))
    report = {
        "command": "nondegenerate",
        "status": verdict.status.value,
        "witness": matrix_to_json(verdict.witness) if verdict.witness is not None else None,
        "witness_chart": _one_based(verdict.chart),
        "charts": [
            {
                "chart": _one_based(r.chart),
                "status": r.status,
                "witness": matrix_to_json(r.witness) if r.witness is not None else None,
            }
            for r in verdict.chart_reports
        ],
    }
    code = EXIT_NOT_CERTIFIED if verdict.status == DegeneracyStatus.NOT_CERTIFIED else EXIT_OK
    return code, report


def cmd_stability(args):
    seed = _seed(args)
    ar = load_system(args.input, *args.kinds)
    mode = StabilityMode.EXHAUSTIVE if args.mode == "exhaustive" else StabilityMode.GENERIC_SUBSPACE
    verdict = stability_check(ar, mode=mode, seed=seed, budget=_budget(args))
    report = {
        "command": "stability",
        "mode": verdict.mode.value,
        "status": verdict.status.value,
        "seed": seed,
        "details": [
            {
                "h": r.h,
                "weak_bound": r.weak_bound,
                "strict_bound": r.strict_bound,
                "achieved": r.achieved,
                "strict_ok": r.strict_ok,
                "weak_ok": r.weak_ok,
            }
            for r in verdict.details
        ],
        "witness": matrix_to_json(verdict.witness) if verdict.witness is not None else None,
    }
    code = EXIT_NOT_CERTIFIED if verdict.status == StabilityStatus.NOT_CERTIFIED else EXIT_OK
    return code, report


def cmd_miso_invariant(args):
    ar = load_system(args.input, *args.kinds)
    point = miso_invariant(ar)
    report = grassmann_to_json(point)
    report["command"] = "miso-invariant"
    return EXIT_OK, report


def cmd_equivalent(args):
    ar1 = load_system(args.input, *args.kinds)
    ar2 = load_system(args.other, *args.kinds)
    verdict = miso_equivalent(ar1, ar2)
    report = {"command": "equivalent", "equivalent": verdict}
    return EXIT_OK, report


def cmd_act(args):
    obj = load_system(args.input, *args.kinds)
    T = load_system(args.transform, "transform")
    if isinstance(obj, ARSystem):
        result = act_T(obj, T)
    elif isinstance(obj, MFD):
        result = apply_extended_feedback(obj, T)
    else:
        result = act_pencil(
            obj, RatMatrix.identity(obj.n + obj.p), RatMatrix.identity(obj.n), T
        )
    report = system_to_json(result)
    return EXIT_OK, report


def cmd_embed(args):
    if args.ell > MAX_DEGREE:
        raise ParseError(f"--ell {args.ell} exceeds the limit {MAX_DEGREE}")
    ar = load_system(args.input, *args.kinds)
    point = rho_embedding(ar, args.ell)
    report = grassmann_to_json(point, with_pluecker=not args.no_pluecker)
    report["command"] = "embed"
    report["ell"] = args.ell
    return EXIT_OK, report


def cmd_pencil_check(args):
    ps = load_system(args.input, *args.kinds)
    admissible = is_admissible(ps)
    report = {
        "command": "pencil-check",
        "admissible": admissible,
        "controllable": is_controllable(ps) if admissible else None,
        "n": ps.n,
        "m": ps.m,
        "p": ps.p,
    }
    return EXIT_OK, report


def cmd_pencil_to_ar(args):
    ps = load_system(args.input, *args.kinds)
    ar = to_ar(ps)
    order = "y_first"
    if not args.keep_pencil_order:
        ar = reorder_to_input_first(ar)
        order = "u_first"
    report = system_to_json(ar)
    report["variable_order"] = order
    return EXIT_OK, report


def cmd_verify_example51(args):
    report = run_reference_checks(seed=_seed(args), budget=_budget(args))
    report["command"] = "verify-example51"
    code = EXIT_OK if report["pass"] else EXIT_NOT_CERTIFIED
    return code, report


def _render_text(report, stream):
    def walk(value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            for key in sorted(value):
                sub = value[key]
                if isinstance(sub, (dict, list)):
                    print(f"{pad}{key}:", file=stream)
                    walk(sub, indent + 1)
                else:
                    print(f"{pad}{key}: {sub}", file=stream)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, (dict, list)):
                    walk(item, indent)
                    print(f"{pad}-", file=stream)
                else:
                    print(f"{pad}- {item}", file=stream)
        else:
            print(f"{pad}{value}", file=stream)

    walk(report)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged.

    Each subcommand is declared once: its handler, the file kind its input
    holds, and only the flags that handler reads.
    """
    parser = argparse.ArgumentParser(
        prog="fbinv",
        description="Exact decision procedures for output-feedback invariants of linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, handler, *kinds, seed=False, budget=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, kinds=kinds)
        if kinds:
            p.add_argument("input", help=f"input {' or '.join(kinds)} file (JSON)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("-o", "--output", help="also write the JSON report to this path")
        if seed:
            p.add_argument("--seed", type=int, help="random seed (default: FBINV_SEED, else 0)")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET.max_pairs, help="Groebner S-pair budget")
            p.add_argument(
                "--max-degree", type=int, default=DEFAULT_BUDGET.max_degree, help="Groebner total-degree budget"
            )
        return p

    factorize = command("factorize", "state space -> left coprime matrix fraction", cmd_factorize, "state_space")
    factorize.add_argument("--strict", action="store_true", help="error on non-observable systems instead of reducing")
    command("homogenize", "matrix fraction -> homogeneous AR system", cmd_homogenize, "mfd")
    command("kernel", "AR system -> minimal kernel generators Q", cmd_kernel, "ar")
    command("observable-part", "AR system -> observable part", cmd_observable_part, "ar")
    command("nondegenerate", "decide degeneracy of an AR system", cmd_nondegenerate, "ar", budget=True)
    stab = command(
        "stability", "certify or refute the stability criterion", cmd_stability, "ar", seed=True, budget=True
    )
    stab.add_argument("--mode", choices=("generic", "exhaustive"), default="exhaustive")
    command("miso-invariant", "Grassmannian invariant of a single-output system", cmd_miso_invariant, "ar")
    eq = command("equivalent", "compare two single-output systems", cmd_equivalent, "ar")
    eq.add_argument("other", help="second input ar file (JSON)")
    act = command("act", "apply an external-variable transformation", cmd_act, "ar", "mfd", "pencil")
    act.add_argument("--transform", required=True, help="transform file (JSON)")
    embed = command("embed", "Grassmannian embedding at a chosen twist", cmd_embed, "ar")
    embed.add_argument("--ell", type=int, required=True)
    embed.add_argument("--no-pluecker", action="store_true")
    command("pencil-check", "admissibility and controllability of a pencil", cmd_pencil_check, "pencil")
    p2a = command("pencil-to-ar", "eliminate the latent variable of a pencil", cmd_pencil_to_ar, "pencil")
    p2a.add_argument(
        "--keep-pencil-order",
        action="store_true",
        help="keep (y; u) column order instead of bridging to (u; y)",
    )
    command(
        "verify-example51", "run the bundled reference verification", cmd_verify_example51, seed=True, budget=True
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, report = args.handler(args)
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(dumps(report) + "\n")
            except OSError as exc:
                raise ParseError(f"cannot write {args.output}: {exc}") from None
    except FbinvError as exc:
        error_report = {"command": args.command, "error": type(exc).__name__, "message": str(exc)}
        if args.format == "json":
            print(dumps(error_report))
        else:
            _render_text(error_report, sys.stdout)
        return EXIT_PARSE
    if args.format == "json":
        print(dumps(report))
    else:
        _render_text(report, sys.stdout)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
