"""Tests of the benchmark itself: its output contract, its gates, and its
accounting of failed passes.  Run with ``python -m pytest benches``."""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from tracing import NullTracer, Tracer, summarize

BENCH_DIR = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

# per-layer metrics each workload must report as nonzero; the rest read 0
# because the workload never calls that layer (reflected_frac is a true 0:
# no path leaves the box on these states)
NONZERO = {
    "ensemble_stationary": [
        m for m in (x["name"] for x in SPEC["per_layer"])
        if m.startswith("sampler.") and m != "sampler.reflected_frac"
    ] + ["fields.b_at_ms", "fields.drift_fields_ms",
         "fields.analytic_oracle_ms"],
    "packet_transport": [
        m for m in (x["name"] for x in SPEC["per_layer"])
        if m.startswith(("sampler.", "fields."))
        and m != "sampler.reflected_frac"],
    "operator_algebra": [
        m for m in (x["name"] for x in SPEC["per_layer"])
        if m.startswith("algebra.")] + ["fields.analytic_oracle_ms"],
    "verify_fast": ["harness.verify_suite_s", "harness.report_to_json_ms",
                    "harness.check.continued_two_time_s"],
}


def test_spec_names_match_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    tr = Tracer()
    produced = workloads.layer_metrics(tr, {"counters": {}}, {})
    assert {m["name"] for m in SPEC["per_layer"]} == \
        set(produced) | {"trace_overhead_s"}
    assert [m["name"] for m in SPEC["end_to_end"]] == \
        ["wall_s", "setup_s", "peak_rss_mb"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        capture_output=True, text=True, timeout=170, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = line["metrics"]
    assert {k: v["unit"] for k, v in got.items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in got.values())
    must = NONZERO[workload] if trace else list(expected)
    assert [m for m in must if not got[m]["value"] > 0] == []


def _gated(name, mutate):
    wl = workloads.WORKLOADS[name]
    st = wl.setup(5, "smoke", NullTracer())
    out = wl.body(st, NullTracer())
    before = {op.name: op.passed for op in wl.gates(st, out)}
    mutate(st.refs)
    after = {op.name: op.passed for op in wl.gates(st, out)}
    return before, after


@pytest.mark.parametrize("name, mutate, op", [
    ("ensemble_stationary",
     lambda refs: refs.update(variance=0.55),
     "variance_dev_over_gate_se[nu=0.5]"),
    ("packet_transport",
     lambda refs: refs.update(mean=refs["mean"] + 0.2),
     "mc_mean_dev_over_gate_se[nu=2.0]"),
    ("operator_algebra",
     lambda refs: refs.update(
         two_time_continued=lambda s: 0.51 * np.exp(-1j * s)),
     "two_time_continued_vs_ladder[base]"),
])
def test_wrong_reference_fails_the_gate(name, mutate, op):
    before, after = _gated(name, mutate)
    assert all(before.values())
    assert after[op] is False
    assert sum(not ok for ok in after.values()) >= 1


class _Raising:
    name = "raising"

    def body(self, st, tr):
        from nelsonlab import NumericalBreakdownError
        raise NumericalBreakdownError("non-finite position")

    def gates(self, st, out):  # pragma: no cover - never reached
        raise AssertionError


def test_raised_op_is_failed_and_not_timed():
    passes = run.Passes(_Raising(), None)
    t = passes.repeat(NullTracer(), budget=0.0)
    assert (passes.attempted, passes.failed) == (1, 1)
    assert t["ok"] == [] and len(t["all"]) == 1


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    st = tr.self_times()
    outer = tr.spans[0]
    assert tr.spans[1]["parent"] == outer["id"]
    assert st["outer"]["self_s"] == pytest.approx(
        st["outer"]["total_s"] - st["inner"]["total_s"])


def test_summary_tail_has_ten_samples_beyond():
    s = summarize([float(i) for i in range(40)])
    assert s["median"] == 19.5
    assert s["tail_value"] == 29.0 and s["tail_percentile"] == 75.0
    assert summarize([1.0] * 10)["tail_value"] is None
