"""Tests of the benchmark's own statistics, ledger, checks and traffic shares.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import os

import numpy as np
import pytest

from perfbench import checks, ledger, run, stats, traffic
from perfbench.stats import Outcome


def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    values = list(rng.exponential(1.0, size=257))
    for q in (0, 1, 50, 90, 99, 99.9, 100):
        assert stats.percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_supported_percentile_leaves_ten_samples_beyond():
    assert stats.supported_percentile(1000) == pytest.approx(99.0)
    assert stats.supported_percentile(10) is None
    values = [float(v) for v in range(1000)]
    assert stats.beyond(values, 99.0) == 10
    for n in (11, 57, 385, 2888):
        sample = [float(v) for v in range(n)]
        assert stats.beyond(sample, stats.supported_percentile(n)) >= 10


def test_latency_is_timed_from_the_scheduled_send_time():
    late = Outcome(due=10.0, sent=10.5, done=10.6, status=200)
    assert late.latency == pytest.approx(0.6)
    assert late.lag == pytest.approx(0.5)
    on_time = Outcome(due=10.0, sent=10.0, done=10.1, status=200)
    summary = stats.latency_summary([late, on_time])
    assert summary["p50_ms"] == pytest.approx(350.0)
    assert summary["samples"] == 2


def test_goodput_counts_only_successes_within_the_limit():
    outcomes = [
        Outcome(0.0, 0.0, 0.05, 200),
        Outcome(0.0, 0.0, 0.20, 200),  # too slow
        Outcome(0.0, 0.0, 0.01, 503),  # fast but refused
        Outcome(0.0, 0.0, 0.01, None),  # timed out or broken
        Outcome(0.0, 0.0, 0.01, 200, mismatch=True),  # wrong answer
    ]
    assert stats.goodput(outcomes, limit_seconds=0.1, duration_seconds=2.0) == pytest.approx(0.5)


def test_errors_count_non_2xx_timeouts_and_mismatches():
    outcomes = [
        Outcome(0, 0, 1, 200),
        Outcome(0, 0, 1, 204),
        Outcome(0, 0, 1, 400),
        Outcome(0, 0, 1, 503),
        Outcome(0, 0, 1, None),
        Outcome(0, 0, 1, 200, mismatch=True),
    ]
    assert stats.failures(outcomes) == 4
    assert stats.error_rate(len(outcomes), 4) == pytest.approx(4 / 6)
    with pytest.raises(ValueError):
        stats.error_rate(0, 0)
    with pytest.raises(ValueError):
        stats.latency_summary([Outcome(0, 0, 1, None)])


def test_poisson_schedule_is_seeded_with_a_fixed_count():
    first = stats.poisson_schedule(20.0, 400, np.random.default_rng(3))
    again = stats.poisson_schedule(20.0, 400, np.random.default_rng(3))
    assert first == again
    assert len(first) == 400
    assert all(b > a for a, b in zip(first, first[1:]))
    assert first[-1] / 400 == pytest.approx(1 / 20.0, rel=0.15)


def _span(name, span_id, parent, start, duration, trace="t"):
    return {"name": name, "span_id": span_id, "parent_id": parent, "trace_id": trace,
            "start_monotonic": start, "duration_seconds": duration, "attributes": {}}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("request", "r", None, 0.0, 10.0),
        _span("a", "a", "r", 1.0, 4.0),
        _span("b", "b", "r", 3.0, 4.0),  # overlaps a: union covers 1..7
        _span("c", "c", "a", 2.0, 1.0),
    ]
    selfs = ledger.self_times(spans)
    assert selfs["r"] == pytest.approx(4.0)
    assert selfs["a"] == pytest.approx(3.0)
    rows = ledger.per_root(spans, "request")
    assert len(rows) == 1
    # Named layers a (self 3) and c (self 1): 6 of the root's 10 are unattributed.
    assert ledger.unattributed_ms(rows, "request", ["a", "c"]) == pytest.approx(6000.0)


def test_recorder_nests_spans_and_writes_the_span_schema(tmp_path):
    recorder = ledger.Recorder()
    recorder.enabled = True
    with recorder.span("request", kind="request"):
        with recorder.span("child"):
            pass
    path = tmp_path / "spans.jsonl"
    recorder.write_jsonl(str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    fields = {"name", "kind", "trace_id", "span_id", "parent_id", "start_time",
              "start_monotonic", "duration_seconds", "cpu_seconds", "status", "error",
              "attributes"}
    assert all(set(record) == fields for record in records)
    root, child = records
    assert child["parent_id"] == root["span_id"] and child["trace_id"] == root["trace_id"]


def test_report_check_tolerates_float32_noise_only():
    reference = {"ratios": {"itd": 0.25}, "counts": {"itd": 3}, "dominant_defect": "itd"}
    assert checks.differences(
        {"ratios": {"itd": 0.25 + 1e-7}, "counts": {"itd": 3}, "dominant_defect": "itd"},
        reference,
    ) == []
    assert checks.differences(
        {"ratios": {"itd": 0.2501}, "counts": {"itd": 3}, "dominant_defect": "itd"}, reference
    )
    assert checks.differences(
        {"ratios": {"itd": 0.25}, "counts": {"itd": 4}, "dominant_defect": "itd"}, reference
    )
    assert checks.differences({"ratios": {"itd": 0.25}}, reference)


def test_traffic_kinds_are_classified_against_earlier_requests():
    planner = traffic.Traffic("m")
    inputs, labels = np.zeros((2, 1, 2, 2)), np.array([0, 1])
    first = planner.plan(0, inputs, labels, "json", recombined=False)
    repeat = planner.plan(0, inputs, labels, "json", recombined=False)
    other_codec = planner.plan(0, inputs, labels, "binary", recombined=False)
    mixed = planner.plan(1, inputs, labels, "binary", recombined=True)
    kinds = [p.kind for p in (first, repeat, other_codec, mixed)]
    assert kinds == ["fresh", "exact_repeat", "cross_codec_repeat", "recombined"]
    assert traffic.shares([first, repeat, other_codec, mixed])["exact_repeat"] == 0.25


def test_every_workload_names_its_latency_limit():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for entry in spec["workloads"]:
        assert run._latency_limit_ms(spec, entry["name"]) > 0
