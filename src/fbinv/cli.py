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
from .ideals import GroebnerBudget
from .linalg import RatMatrix
from .miso import miso_equivalent, miso_invariant
from .pencil import PencilSystem, act_pencil, is_admissible, is_controllable, reorder_to_input_first, to_ar
from .realization import MFD, StateSpace, apply_extended_feedback, left_coprime_mfd, to_hom_ar
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


def _expect(obj, klass, what: str):
    if not isinstance(obj, klass):
        raise ParseError(f"expected a {what} file, got {type(obj).__name__}")
    return obj


def _one_based(chart) -> list[int] | None:
    return [c + 1 for c in chart] if chart is not None else None


def cmd_factorize(args):
    ss = _expect(load_system(args.input), StateSpace, "state_space")
    mfd = left_coprime_mfd(ss, strict=args.strict)
    report = system_to_json(mfd)
    return EXIT_OK, report


def cmd_homogenize(args):
    mfd = _expect(load_system(args.input), MFD, "mfd")
    report = system_to_json(to_hom_ar(mfd))
    return EXIT_OK, report


def cmd_kernel(args):
    ar = _expect(load_system(args.input), ARSystem, "ar")
    report = system_to_json(compute_Q(ar))
    return EXIT_OK, report


def cmd_observable_part(args):
    ar = _expect(load_system(args.input), ARSystem, "ar")
    report = system_to_json(observable_part(ar))
    return EXIT_OK, report


def cmd_nondegenerate(args):
    ar = _expect(load_system(args.input), ARSystem, "ar")
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
    ar = _expect(load_system(args.input), ARSystem, "ar")
    mode = StabilityMode.EXHAUSTIVE if args.mode == "exhaustive" else StabilityMode.GENERIC_SUBSPACE
    verdict = stability_check(ar, mode=mode, seed=args.seed, budget=_budget(args))
    report = {
        "command": "stability",
        "mode": verdict.mode.value,
        "status": verdict.status.value,
        "seed": args.seed,
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
    ar = _expect(load_system(args.input), ARSystem, "ar")
    point = miso_invariant(ar)
    report = grassmann_to_json(point)
    report["command"] = "miso-invariant"
    return EXIT_OK, report


def cmd_equivalent(args):
    ar1 = _expect(load_system(args.input), ARSystem, "ar")
    ar2 = _expect(load_system(args.other), ARSystem, "ar")
    verdict = miso_equivalent(ar1, ar2)
    report = {"command": "equivalent", "equivalent": verdict}
    return EXIT_OK, report


def cmd_act(args):
    obj = load_system(args.input)
    T = load_system(args.transform)
    if not isinstance(T, RatMatrix):
        raise ParseError("--transform must point at a transform file")
    if isinstance(obj, ARSystem):
        result = act_T(obj, T)
    elif isinstance(obj, MFD):
        result = apply_extended_feedback(obj, T)
    elif isinstance(obj, PencilSystem):
        result = act_pencil(
            obj, RatMatrix.identity(obj.n + obj.p), RatMatrix.identity(obj.n), T
        )
    else:
        raise ParseError("act applies to ar, mfd and pencil files")
    report = system_to_json(result)
    return EXIT_OK, report


def cmd_embed(args):
    if args.ell > MAX_DEGREE:
        raise ParseError(f"--ell {args.ell} exceeds the limit {MAX_DEGREE}")
    ar = _expect(load_system(args.input), ARSystem, "ar")
    point = rho_embedding(ar, args.ell)
    report = grassmann_to_json(point, with_pluecker=not args.no_pluecker)
    report["command"] = "embed"
    report["ell"] = args.ell
    return EXIT_OK, report


def cmd_pencil_check(args):
    ps = _expect(load_system(args.input), PencilSystem, "pencil")
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
    ps = _expect(load_system(args.input), PencilSystem, "pencil")
    ar = to_ar(ps)
    order = "y_first"
    if not args.keep_pencil_order:
        ar = reorder_to_input_first(ar)
        order = "u_first"
    report = system_to_json(ar)
    report["variable_order"] = order
    return EXIT_OK, report


def cmd_verify_example51(args):
    report = run_reference_checks(seed=args.seed, budget=_budget(args))
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
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fbinv",
        description="Exact decision procedures for output-feedback invariants of linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="input system file (JSON)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--seed", type=int)  # None: read FBINV_SEED in main
        p.add_argument("--budget", type=int, default=2000, help="Groebner S-pair budget")
        p.add_argument("--max-degree", type=int, default=60, help="Groebner total-degree budget")
        p.add_argument("-o", "--output", help="also write the JSON report to this path")
        return p

    common(sub.add_parser("factorize", help="state space -> left coprime matrix fraction")).add_argument(
        "--strict", action="store_true", help="error on non-observable systems instead of reducing"
    )
    common(sub.add_parser("homogenize", help="matrix fraction -> homogeneous AR system"))
    common(sub.add_parser("kernel", help="AR system -> minimal kernel generators Q"))
    common(sub.add_parser("observable-part", help="AR system -> observable part"))
    common(sub.add_parser("nondegenerate", help="decide degeneracy of an AR system"))
    stab = common(sub.add_parser("stability", help="certify or refute the stability criterion"))
    stab.add_argument("--mode", choices=("generic", "exhaustive"), default="exhaustive")
    common(sub.add_parser("miso-invariant", help="Grassmannian invariant of a single-output system"))
    eq = common(sub.add_parser("equivalent", help="compare two single-output systems"))
    eq.add_argument("other", help="second AR system file")
    act = common(sub.add_parser("act", help="apply an external-variable transformation"))
    act.add_argument("--transform", required=True, help="transform file (JSON)")
    embed = common(sub.add_parser("embed", help="Grassmannian embedding at a chosen twist"))
    embed.add_argument("--ell", type=int, required=True)
    embed.add_argument("--no-pluecker", action="store_true")
    common(sub.add_parser("pencil-check", help="admissibility and controllability of a pencil"))
    p2a = common(sub.add_parser("pencil-to-ar", help="eliminate the latent variable of a pencil"))
    p2a.add_argument(
        "--keep-pencil-order",
        action="store_true",
        help="keep (y; u) column order instead of bridging to (u; y)",
    )
    common(sub.add_parser("verify-example51", help="run the bundled reference verification"), needs_input=False)
    return parser


_HANDLERS = {
    "factorize": cmd_factorize,
    "homogenize": cmd_homogenize,
    "kernel": cmd_kernel,
    "observable-part": cmd_observable_part,
    "nondegenerate": cmd_nondegenerate,
    "stability": cmd_stability,
    "miso-invariant": cmd_miso_invariant,
    "equivalent": cmd_equivalent,
    "act": cmd_act,
    "embed": cmd_embed,
    "pencil-check": cmd_pencil_check,
    "pencil-to-ar": cmd_pencil_to_ar,
    "verify-example51": cmd_verify_example51,
}


def _env_seed() -> int:
    raw = os.environ.get("FBINV_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"FBINV_SEED must be an integer, got {raw!r}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _env_seed()
        code, report = _HANDLERS[args.command](args)
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
