"""Tests for the benchmark harness: inputs, gate, metric names, tracer."""

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts src on sys.path and imports pafix)
from gate import check_map  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

from pafix import affine, exactnum, fixcount  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_inputs_are_deterministic_per_seed():
    for workload in WORKLOADS:
        assert make_inputs(workload, 5) == make_inputs(workload, 5)
    assert make_inputs("trace-family", 5) != make_inputs("trace-family", 6)
    texts = [i.text for i in make_inputs("file-load", 5)]
    assert all(texts)
    assert texts != [i.text for i in make_inputs("file-load", 6)]


def test_trace_family_draws_both_trace_signs():
    for seed in range(20):
        traces = [i.matrix[0][0] + i.matrix[1][1]
                  for i in make_inputs("trace-family", seed)]
        assert sorted(abs(t) for t in traces) == [3, 3, 4, 4]
        assert sum(t < 0 for t in traces) == 2
        assert all(i.full for i in make_inputs("trace-family", seed))


def test_gate_flags_a_wrong_report():
    good = SimpleNamespace(total=6, lefschetz=6, index_sum=6)
    assert check_map(6, good, oracle=good, bound=82) == []
    # the negative-trace miscount of [[-3,-1],[-2,-1]]
    wrong = SimpleNamespace(total=4, lefschetz=6, index_sum=-2)
    problems = check_map(6, wrong, oracle=good, bound=82)
    assert len(problems) == 4
    assert check_map(6, good, oracle=good, bound=5) == ["Markov bound 5 < total 6"]


def test_metric_names_and_units():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(layer_metrics(Tracer())) + list(run.END_TO_END)
    names += ["oracle_s", "bound_s", "fail_frac", "trace.overhead_s"]
    for name in names:
        assert NAME.fullmatch(name), name
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    reported = [n for n in layer_metrics(Tracer()) if n not in run.UNREPORTED_LAYER]
    assert [m["name"] for m in spec["per_layer"]] == reported
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_tracer_restores_and_repeats_counts():
    originals = (fixcount.count_fixed_points, fixcount.apply_to_edge,
                 exactnum.FieldElement.__dict__["__mul__"],
                 exactnum.FieldElement.__dict__["__rmul__"],
                 exactnum.RealNumberField.__dict__["create"])
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            _, f = affine.torus_from_matrix([[2, 1], [1, 1]])
            assert fixcount.count_fixed_points(f).total == 1
        counts.append(tracer.calls)
    assert counts[0] == counts[1]
    assert counts[0]["fixcount.count"] == 1 and counts[0]["exactnum.mul"] > 0
    assert originals == (fixcount.count_fixed_points, fixcount.apply_to_edge,
                         exactnum.FieldElement.__dict__["__mul__"],
                         exactnum.FieldElement.__dict__["__rmul__"],
                         exactnum.RealNumberField.__dict__["create"])
