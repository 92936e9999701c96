"""pafix benchmark: time to a verified fixed-point count, per workload.

    python3 bench/run.py --workload cat-powers --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: each map is solved after the
previous one finishes.  A pass solves every map of the workload once,
building each map afresh from the seeded inputs, and checks every answer
with the gate.  After an untimed warm-up the run repeats passes for
about ``--seconds`` (at least MIN_PASSES) and reports each end-to-end
metric as the median over passes of the pass's sum over maps.

With ``--trace 1`` the run makes one untraced pass and two traced passes,
reports the per-layer metrics of the traced passes and checks that both
traced passes made the same calls.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    from pafix import affine, fileio, fixcount, veering
except ImportError as exc:
    sys.exit("bench: cannot import pafix from %s: %s" % (ROOT / "src", exc))

from gate import check_map
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, make_inputs

STAGES = ("setup_s", "count_s", "oracle_s", "bound_s")
MIN_PASSES = 5
TRACED_PASSES = 2

# Reported end-to-end metrics and their units.  oracle_s and bound_s are
# printed too but not reported: only trace-family runs those stages, so
# they are zero on the other workloads.
END_TO_END = {"setup_s": "s", "count_s": "s", "total_s": "s", "peak_rss_mb": "MiB"}

# Per-layer times that read exactly 0 on the workloads that never touch
# fileio: a time that is 0 on every run measures nothing, so these are
# printed, not reported.  Counts are exact, and are reported even when 0.
UNREPORTED_LAYER = ("fileio.loads_s", "fileio.dumps_s", "fileio.self_s")


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def _stage(times, key, fn, *args):
    start = time.perf_counter()
    try:
        return fn(*args)
    finally:
        times[key] += time.perf_counter() - start


def _build(item):
    if item.text is not None:
        return fileio.loads(item.text)[1]
    f = affine.torus_from_matrix(item.matrix)[1]
    return f.power(item.power) if item.power > 1 else f


def _oracle(f):
    section = veering.annular_avoiding_f_section(f)
    return fixcount.oracle_count_fixed_points(f, section)


def solve(item, times, notes=None):
    """Solve one map, adding each stage's time to ``times``.  Returns the
    FixReport and the gate's problems.  ``notes`` collects the tallies of
    a traced pass."""
    f = _stage(times, "setup_s", _build, item)
    report = _stage(times, "count_s", fixcount.count_fixed_points, f)
    oracle = bound = None
    if item.full:
        oracle = _stage(times, "oracle_s", _oracle, f)
        bound = _stage(times, "bound_s", fixcount.markov_upper_bound, f)
    if notes is not None:
        notes["affine.pieces"] += len(f.pieces)
        if item.text is not None:
            notes["fileio.bytes"] += len(item.text.encode())
    return report, check_map(item.expected, report, oracle, bound)


def run_pass(items, notes=None):
    """One pass over the maps: stage times summed over maps, and per map
    its total, its records (both None if it raised) and its problems.
    Every pass starts from a collected heap."""
    gc.collect()
    times = dict.fromkeys(STAGES, 0.0)
    outcomes = []
    for item in items:
        try:
            report, problems = solve(item, times, notes)
            outcomes.append((report.total, repr(report.records()), tuple(problems)))
        except Exception as exc:  # a map that raises is a failed map, not a failed run
            traceback.print_exc(file=sys.stderr)
            outcomes.append((None, None, ("raised %s: %s" % (type(exc).__name__, exc),)))
    times["total_s"] = sum(times[s] for s in STAGES)
    return times, outcomes


def median_times(passes):
    return {k: statistics.median(t[k] for t, _ in passes) for k in passes[0][0]}


def report_maps(items, outcomes):
    for item, (total, _, problems) in zip(items, outcomes):
        status = "FAIL: " + "; ".join(problems) if problems else "ok"
        print("  %-24s total %-4s %s" % (item.name, total, status))


def print_metric(name, value, unit, note=""):
    shown = "%d" % value if isinstance(value, int) else "%.6f" % value
    print("%-36s %16s %-5s %s" % (name, shown, unit, note))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.trace:
        # Traced so that dumps, which writes the file-load text, is timed.
        with Tracer() as generation:
            items = make_inputs(args.workload, args.seed)
    else:
        items = make_inputs(args.workload, args.seed)
    # Untimed warm-up through the workload's own entry points: the first
    # lefschetz_number call pays a lazy sympy import.  All maps of a
    # workload take the same stages, so its first map is enough.
    run_pass(items[:1])

    passes = []
    clock = time.perf_counter
    start = clock()
    if args.trace:
        passes.append(run_pass(items))
    else:
        longest = 0.0
        while len(passes) < MIN_PASSES or clock() - start + longest <= args.seconds:
            begun = clock()
            passes.append(run_pass(items))
            longest = max(longest, clock() - begun)
    traced = []
    for _ in range(args.trace * TRACED_PASSES):
        with Tracer() as tracer:
            times, outcomes = run_pass(items, tracer.notes)
        traced.append((tracer, times, outcomes))
    elapsed = clock() - start

    runs = passes + [(times, outcomes) for _, times, outcomes in traced]
    attempted = len(items) * len(runs)
    failed = sum(1 for _, outcomes in runs for *_, problems in outcomes if problems)
    correct = True
    if any(outcomes != runs[0][1] for _, outcomes in runs):
        correct = False
        print("answers changed between passes", file=sys.stderr)

    print("pafix benchmark: workload %s, seed %d, %d maps, %d passes%s in %.1f s"
          % (args.workload, args.seed, len(items), len(passes),
             " + %d traced" % len(traced) if traced else "", elapsed))
    report_maps(items, runs[0][1])
    print("  total_s per pass: " + " ".join("%.3f" % t["total_s"] for t, _ in passes))
    untraced = median_times(passes)
    for name in STAGES + ("total_s",):
        note = "" if untraced[name] or name == "total_s" else "(stage not in this workload)"
        print_metric(name, untraced[name], "s", note)
    print_metric("fail_frac", failed / attempted, "", "(%d of %d maps)" % (failed, attempted))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print_metric("peak_rss_mb", peak, "MiB")

    if not args.trace:
        metrics = dict(untraced, peak_rss_mb=peak)
        out = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        first, second = traced[0][0], traced[1][0]
        if (first.calls, first.raised, first.notes) != \
                (second.calls, second.raised, second.notes):
            correct = False
            print("traced passes made different calls", file=sys.stderr)
        per_layer = [layer_metrics(t) for t, _, _ in traced]
        for m in per_layer:
            m["fileio.dumps_s"] = generation.seconds["fileio.dumps"]
        out = {}
        for name, value in per_layer[0].items():
            if layer_unit(name) == "s":
                value = statistics.median(m[name] for m in per_layer)
            print_metric(name, value, layer_unit(name))
            if name not in UNREPORTED_LAYER:
                out[name] = {"value": value, "unit": layer_unit(name)}
        traced_total = statistics.median(times["total_s"] for _, times, _ in traced)
        print_metric("trace.overhead_s", traced_total - untraced["total_s"], "s",
                     "(traced total_s %.3f, untraced %.3f)"
                     % (traced_total, untraced["total_s"]))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
