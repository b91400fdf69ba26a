"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload certify --seed 1 --seconds 36 --trace 0

The load is a closed loop: one process, one thread, one client, so the next
operation starts only when the last one has returned.  Every run attempts
whole rounds of the workload's operations and stops at the round boundary
nearest to `--seconds` (after at least enough rounds for the tail
percentile).  With `--trace 0` the last line holds the end-to-end metrics;
with `--trace 1` it holds the per-layer metrics of a run that alternates
untraced and traced rounds.  Details go to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 7

# The tail percentile, fixed per workload so that every run reports the same
# one: the highest of p50, p75, p90, p95 and p99 with at least ten samples
# beyond it at the fewest samples a run may have (see min_rounds).
TAIL = {"certify": 90, "witness": 90, "cli-chain": 95}


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM; a BaseException so no library handler swallows it."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


def import_fresh():
    """Import fbinv from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "fbinv" or n.startswith("fbinv.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("fbinv")
    importlib.import_module("fbinv.cli")


def run_op(op):
    """(seconds, output or None, failure reason or None) for one operation."""
    signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
    start = time.perf_counter()
    try:
        output = op.run()
        failure = None
    except DeadlineExceeded:
        output, failure = None, f"missed its {op.deadline_s:g} s deadline"
    except Exception as exc:  # an op that raises is counted, not fatal
        output, failure = None, f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
    return elapsed, output, failure


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(times, succeeded, wall_s, tail_q):
    values = sorted(times)
    metrics = {
        "ops_per_s": (succeeded / wall_s, "1/s"),
        "op_p50_ms": (statistics.median(values) * 1000, "ms"),
    }
    if len(values) >= 40:
        metrics["op_tail_ms"] = (percentile(values, tail_q) * 1000, "ms")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "witness", "cli-chain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fbinv", "__init__.py")):
        print(f"bench: no fbinv sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import checks
    import spans
    import workloads

    signal.signal(signal.SIGALRM, _alarm)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")

    # Set-up: import, build and validate the seeded inputs, one warm-up op.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_fresh()
        os.makedirs(workdir, exist_ok=True)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.ops[0].run()
        setup_times.append(time.perf_counter() - start)

    ops = workload.ops
    tail_q = TAIL[args.workload]
    # enough samples that the tail percentile has ten beyond it
    min_rounds = math.ceil(10 / (1 - tail_q / 100) / len(ops))
    tracer = spans.Tracer() if args.trace else None

    # The timed loop.  records: (round, op index, seconds, traced)
    records = []
    firsts: dict[int, object] = {}
    reports: dict[tuple[int, int], bytes] = {}
    failures: dict[tuple[int, int], str] = {}
    outputs: dict[tuple[int, int], object] = {}
    gc.collect()
    rounds = 0
    loop_start = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and rounds % 2 == 1
            if traced:
                tracer.install()
            for index, op in enumerate(ops):
                elapsed, output, failure = run_op(op)
                if traced:
                    tracer.end_op()
                records.append((rounds, index, elapsed, traced))
                if failure is not None:
                    failures[(rounds, index)] = failure
                else:
                    outputs[(rounds, index)] = output
            if traced:
                tracer.uninstall()
            rounds += 1
            elapsed = time.perf_counter() - loop_start
            step = 1 if tracer is None else 2  # a traced run ends on a whole pair
            if rounds % step == 0 and (tracer or rounds >= min_rounds):
                # stop at the round boundary nearest to --seconds
                if elapsed + step * elapsed / rounds / 2 >= args.seconds:
                    break
        wall_s = time.perf_counter() - loop_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # Classify and check outputs, outside the timed loop.
        check_start = time.perf_counter()
        for key, output in outputs.items():
            reason = workload.declined(output)
            if reason is not None:
                failures[key] = reason
                continue
            reports[key] = workload.report(output)
            firsts.setdefault(key[1], output)
        try:
            problems = workload.check(firsts)
        except Exception as exc:  # malformed output: every checked op is rejected
            problems = {index: [f"check raised {type(exc).__name__}: {exc}"] for index in firsts}
        first_report = {}
        for (rnd, index), data in sorted(reports.items()):
            first_report.setdefault(index, data)
            found = list(problems.get(index, []))
            found += checks.check_identical(first_report[index], data)
            if found:
                failures[(rnd, index)] = "check rejected output: " + "; ".join(found)
        check_s = time.perf_counter() - check_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rejected = {k: v for k, v in failures.items() if v.startswith("check rejected")}
    correct = not rejected
    attempted = len(records)
    failed = len(failures)

    def summarize(selected, wall):
        times = [r[2] for r in selected]
        ok = sum(1 for r in selected if (r[0], r[1]) not in failures)
        return end_to_end(times, ok, wall, tail_q)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "tail_percentile": tail_q,
        "wall_s": wall_s,
        "round_s": [sum(r[2] for r in records if r[0] == k) for k in range(rounds)],
        "check_s": check_s,
        "setup_s": setup_times,
        "failures": sorted({f"{ops[i].name}: {why}" for (_, i), why in failures.items()}),
        "op_ms": [[r[2] * 1000 for r in records if r[0] == k] for k in range(rounds)],
        "op_median_ms": {
            op.name: statistics.median(r[2] for r in records if r[1] == i) * 1000
            for i, op in enumerate(ops)
        },
    }
    if tracer is None:
        metrics = summarize(records, wall_s)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    else:
        pairs = rounds // 2
        plain = [r for r in records if not r[3]]
        traced_records = [r for r in records if r[3]]
        plain_s = sum(r[2] for r in plain)
        traced_s = sum(r[2] for r in traced_records)
        detail["untraced_end_to_end"] = summarize(plain, plain_s)
        detail["traced_end_to_end"] = summarize(traced_records, traced_s)
        metrics = tracer.layer_metrics(pairs)
        metrics["trace.overhead_s"] = ((traced_s - plain_s) / pairs, "s/round")
    detail["metrics"] = metrics

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
