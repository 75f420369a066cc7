"""The three workloads: offline-cifar, serve-fresh and serve-recurring.

Each returns a :class:`Result`: the end-to-end metrics (untraced run) or the
per-layer metrics (traced run), the operation counts, and an ``info`` record
with sample counts, traffic shares and the latency ledger.
"""

from __future__ import annotations

import math
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.api.diagnoser as api_diagnoser
import repro.api.schema as api_schema
import repro.serve.service as serve_service
from repro.api import DiagnoserConfig
from repro.cli import serve as serve_cli
from repro.core.classifier import DefectCaseClassifier
from repro.core.footprint import FootprintExtractor
from repro.core.instrument import SoftmaxInstrumentedModel
from repro.monitor.sink import MonitorSink
from repro.serve import ReplicaPool
from repro.serve.batching import BatchingEngine
from repro.serve.service import DiagnosisService
from repro.wire import get_codec

from . import checks, ledger, stats
from .ledger import Recorder, patched
from .loadgen import LoadGenerator, Served
from .server import SERVE_ARGS, ServerProcess
from .stats import Outcome
from .subjects import OFFLINE_SUBJECT, SERVE_SUBJECT, Subject, build_subject
from .traffic import HotSet, Planned, Traffic, fresh_requests, shares

#: Share of ``--seconds`` spent in the open loop; the closed loop gets the rest.
OPEN_SHARE = 0.8
#: Fixed open-loop rates (requests/s) and sender connections.  serve-fresh
#: sends over one connection: with two, the replicas' drift-monitor stalls
#: overlap in a pattern set by routing history, and p99 swung between about
#: 160 and 360 ms from run to run on a 2-core machine.  Over one connection the
#: replicas alternate strictly, so the stalls keep a fixed pattern and still
#: show in full in the tail.  A quarter of the requests stall; the rate keeps
#: those queued behind a stall few enough that the median stays on the
#: unstalled mode (at 6 req/s it swung between 19 and 85 ms from run to run).
RATES = {"serve-fresh": 4.0, "serve-recurring": 150.0}
OPEN_CONNECTIONS = {"serve-fresh": 1, "serve-recurring": 2}
#: Requests planned for the closed loop (it stops on time, not on count).
CLOSED_PLANNED = {"serve-fresh": 300, "serve-recurring": 10000}
WARM_FRESH = 24
#: serve-fresh warm-up also fills both replicas' drift windows (2048 cases
#: each), so every timed request meets the monitor in its steady state.
WINDOW_FILL_REQUESTS = 4
WINDOW_FILL_ROWS = 1024
#: The first small warm-up request is this large, so the replicas' drift
#: evaluations (one per 64 cases each) end up on requests 3 and 5 apart rather
#: than on consecutive ones; back-to-back stalls over one connection made the
#: tail depend on whether a request arrived between them.
WARM_OFFSET_ROWS = 32
HOT_PAYLOADS = 64
#: Share of serve-recurring requests that recombine hot rows into a new body
#: (a response-cache miss answered from the footprint cache).  Kept small so
#: p99 falls inside these requests' latencies, not in the queueing bursts
#: behind them (at 0.15, p99 swung between 24 and 33 ms).
RECOMBINE_SHARE = 0.05
#: serve-recurring warm-up puts every hot row in both replicas' footprint
#: caches (in groups of this many rows) before the hot payloads themselves.
COVERING_ROWS = 256
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Served requests replayed in process, through wrapped layer calls, per traced run.
REPLAY_REQUESTS = 120
OFFLINE_BATCH = 256
#: 3840 production cases: 15 batches of 256.
OFFLINE_PER_CLASS = 384
#: Offline batches compared with ``DeepMorph.diagnose`` (each once).
OFFLINE_CHECKED = 4

SERVE_LAYERS = (
    "wire.decode", "wire.encode", "replicas.acquire", "schema.validate", "batching.extract",
    "footprint.extract", "instrument.backbone", "monitor.observe", "specifics",
    "classifier.build_context", "classifier.aggregate",
)
OFFLINE_LAYERS = (
    "schema.validate", "footprint.extract", "instrument.backbone", "specifics",
    "classifier.build_context", "classifier.aggregate",
)


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    limit_ms: float
    work_dir: str
    src_dir: str
    import_seconds: float
    process_start: float
    spans_path: str


@dataclass
class Result:
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    info: Dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def count(self, outcomes: Sequence[Outcome]) -> None:
        self.attempted += len(outcomes)
        self.failed += stats.failures(outcomes)
        self.mismatches += sum(1 for outcome in outcomes if outcome.mismatch)


# -- per-layer metric names (every workload prints all of them) ------------------------

PER_LAYER = {
    "gateway.http_overhead_ms": "ms",
    "wire.decode_ms.json": "ms", "wire.decode_ms.binary": "ms",
    "wire.encode_ms.json": "ms", "wire.encode_ms.binary": "ms",
    "wire.request_bytes.json": "bytes", "wire.request_bytes.binary": "bytes",
    "schema.validate_ms": "ms",
    "replicas.acquire_ms": "ms",
    "gateway.shed_total": "count",
    "batching.wait_ms": "ms", "batching.cases_per_batch": "count",
    "batching.batches_total": "count",
    "cache.footprint_hit_ratio": "ratio", "cache.footprint_lookups": "count",
    "cache.response_hit_ratio": "ratio", "cache.response_lookups": "count",
    "footprint.extract_ms": "ms", "footprint.extract_us_per_case": "us",
    "instrument.backbone_ms": "ms", "instrument.probe_ms": "ms",
    "specifics.ms": "ms",
    "classifier.ms": "ms",
    "monitor.observe_ms.p50": "ms", "monitor.observe_ms.max": "ms",
    "monitor.evaluations_total": "count",
    "training.fit_s": "s", "instrument.fit_s": "s", "patterns.fit_s": "s",
    "registry.load_s": "s", "server.start_s": "s",
    "client.lag_p99_ms": "ms",
    "trace.unattributed_ms": "ms", "trace.overhead_ms": "ms",
    "server.logged_errors": "count",
}


def _put_layers(result: Result, values: Dict[str, float]) -> None:
    """Every per-layer metric; a layer the workload bypasses reads 0."""
    for name, unit in PER_LAYER.items():
        result.put(name, values.get(name, 0.0), unit)


def _layer_values(rows, spans, root: str, layers: Sequence[str]) -> Dict[str, float]:
    """Per-layer medians over the replayed roots (ms)."""
    median = ledger.layer_median_ms
    extract_spans = [s for s in spans if s["name"] == "footprint.extract"]
    cases = sum(int(s["attributes"].get("num_cases", 0)) for s in extract_spans)
    observe = [s["duration_seconds"] * 1e3 for s in spans if s["name"] == "monitor.observe"]
    return {
        "schema.validate_ms": median(rows, "schema.validate", "total"),
        "replicas.acquire_ms": median(rows, "replicas.acquire", "total"),
        "batching.wait_ms": median(rows, "batching.extract", "self"),
        "footprint.extract_ms": median(rows, "footprint.extract", "total"),
        "footprint.extract_us_per_case": (
            sum(s["duration_seconds"] for s in extract_spans) * 1e6 / cases if cases else 0.0
        ),
        "instrument.backbone_ms": median(rows, "instrument.backbone", "total"),
        "instrument.probe_ms": median(rows, "footprint.extract", "self"),
        "specifics.ms": median(rows, "specifics", "total"),
        "classifier.ms": stats.median([
            (row.get("classifier.build_context", {}).get("total", 0.0)
             + row.get("classifier.aggregate", {}).get("total", 0.0)) * 1e3
            for row in rows
        ]) if rows else 0.0,
        "monitor.observe_ms.p50": stats.median(observe) if observe else 0.0,
        "monitor.observe_ms.max": max(observe) if observe else 0.0,
        "trace.unattributed_ms": ledger.unattributed_ms(rows, root, layers),
    }


def _ledger_table(rows, root: str, layers: Sequence[str], served_p50: Optional[float]) -> List[Dict]:
    """Median self time per layer, with its share of the served (or root) p50."""
    base = served_p50 if served_p50 else ledger.layer_median_ms(rows, root, "total")
    table = []
    for name in (root,) + tuple(layers):
        self_ms = ledger.layer_median_ms(rows, name, "self")
        table.append({
            "span": name,
            "calls": int(sum(row.get(name, {}).get("count", 0) for row in rows)),
            "median_total_ms": ledger.layer_median_ms(rows, name, "total"),
            "median_self_ms": self_ms,
            "share_of_p50": self_ms / base if base else 0.0,
        })
    return table


def _wrap_targets(extra: Sequence[Tuple[object, str, str]] = ()) -> List[Tuple]:
    return [
        (FootprintExtractor, "extract_coalesced", "footprint.extract",
         lambda args, kwargs: {"num_cases": int(sum(len(g) for g in args[1]))}),
        (SoftmaxInstrumentedModel, "collect_activations", "instrument.backbone"),
        (DefectCaseClassifier, "build_context", "classifier.build_context"),
        (DefectCaseClassifier, "aggregate", "classifier.aggregate"),
        *extra,
    ]


def _setup_seconds(run: Run, durations: Sequence[float]) -> float:
    """Median set-up time; each set-up also pays the interpreter's imports once."""
    return stats.median([run.import_seconds + d for d in durations])


# -- offline-cifar -----------------------------------------------------------------------


def offline_cifar(run: Run) -> Result:
    result = Result()
    rng = np.random.default_rng(run.seed)

    def setup(index: int):
        started = time.perf_counter()
        subject = build_subject(
            OFFLINE_SUBJECT, "itd", f"{run.work_dir}/registry-{index}", "resnet-offline"
        )
        inputs, labels = subject.generator.sample(
            OFFLINE_PER_CLASS, rng=int(rng.integers(2**31)) if index == 0 else 0
        ).arrays()
        next(subject.local.diagnose_iter(inputs[:OFFLINE_BATCH], labels[:OFFLINE_BATCH]))
        return subject, inputs, labels, time.perf_counter() - started

    subject, inputs, labels, first = setup(0)
    num_batches = math.ceil(len(labels) / OFFLINE_BATCH)
    first_reports: Dict[int, Dict] = {}
    outcomes: List[Outcome] = []
    recorder = Recorder()
    traced_outcomes: List[Outcome] = []
    wall_start = time.perf_counter()
    stop = wall_start + run.seconds
    traced_from = wall_start + run.seconds / 2 if run.trace else math.inf
    targets = _wrap_targets([
        (api_schema, "validate_arrays", "schema.validate"),
        (api_diagnoser, "compute_specifics_batch", "specifics"),
    ])
    batch = 0
    while time.perf_counter() < stop:
        index = batch % num_batches
        rows = slice(index * OFFLINE_BATCH, (index + 1) * OFFLINE_BATCH)
        tracing = time.perf_counter() >= traced_from
        recorder.enabled = tracing
        with patched(recorder, targets if tracing else ()):
            began = time.perf_counter()
            with recorder.span("batch", {"batch": index}, kind="request"):
                report = next(subject.local.diagnose_iter(
                    inputs[rows], labels[rows], batch_size=OFFLINE_BATCH
                ), None)
            done = time.perf_counter()
        # diagnose_iter skips a batch without misclassified cases; the
        # subject model misclassifies most cases, so that is a failure here.
        outcome = Outcome(began, began, done, 200 if report is not None else None)
        (traced_outcomes if tracing else outcomes).append(outcome)
        document = report.to_dict() if report is not None else {}
        if index in first_reports:
            # A repeated batch must reproduce its first report exactly.
            outcome.mismatch = document != first_reports[index]
        else:
            first_reports[index] = document
        batch += 1
    elapsed = time.perf_counter() - wall_start

    # Output check, outside the timed window: a sample of batches against the
    # paper's pipeline entry point, DeepMorph.diagnose.
    morph = subject.local.morph
    keys = ("num_cases", "ratios", "counts", "dominant_defect", "context")
    for index in sorted(first_reports)[:OFFLINE_CHECKED]:
        rows = slice(index * OFFLINE_BATCH, (index + 1) * OFFLINE_BATCH)
        reference = morph.diagnose(inputs[rows], labels[rows]).as_dict()
        diff = checks.differences(
            {key: first_reports[index][key] for key in keys}, {key: reference[key] for key in keys}
        )
        if diff:
            result.info.setdefault("mismatches", []).append({"batch": index, "diff": diff[:5]})
            for outcome in outcomes + traced_outcomes:
                outcome.mismatch = True
            break
    all_outcomes = outcomes + traced_outcomes
    result.count(all_outcomes)
    result.info["batches"] = len(all_outcomes)
    result.info["test_accuracy"] = subject.test_accuracy

    if run.trace:
        rows_ = ledger.per_root(recorder.spans, "batch")
        values = _layer_values(rows_, recorder.spans, "batch", OFFLINE_LAYERS)
        untraced = stats.latency_summary(outcomes) if outcomes else None
        traced = stats.latency_summary(traced_outcomes)
        values["trace.overhead_ms"] = traced["p50_ms"] - (untraced["p50_ms"] if untraced else 0.0)
        values.update({k: subject.timings.get(k, 0.0) for k in (
            "training.fit_s", "instrument.fit_s", "patterns.fit_s", "registry.load_s")})
        _put_layers(result, values)
        result.info["ledger"] = _ledger_table(rows_, "batch", OFFLINE_LAYERS, None)
        recorder.write_jsonl(run.spans_path)
        result.info["spans"] = run.spans_path
        return result

    summary = stats.latency_summary(outcomes)
    result.info["latency"] = summary
    result.put("latency_p50_ms", summary["p50_ms"], "ms")
    result.put("latency_p99_ms", summary["p99_ms"], "ms")
    result.put("goodput_rps", stats.goodput(outcomes, run.limit_ms / 1e3, elapsed), "1/s")
    result.put("capacity_rps", len(outcomes) / elapsed, "1/s")
    result.put("cases_per_s", len(outcomes) * OFFLINE_BATCH / elapsed, "1/s")
    result.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    durations = [first] + [setup(i)[3] for i in range(1, SETUP_REPEATS)]
    result.info["setup_runs_s"] = durations
    result.put("setup_s", _setup_seconds(run, durations), "s")
    return result


# -- serving workloads -------------------------------------------------------------------


@dataclass
class Plan:
    warm: List[Planned]
    open: List[Planned]
    offsets: List[float]
    closed: List[Planned]
    traffic: Traffic


def _plan(run: Run, subject: Subject, rng: np.random.Generator) -> Plan:
    rate = RATES[run.workload]
    count = int(math.ceil(rate * run.seconds * OPEN_SHARE))
    traffic = Traffic(subject.name)
    if run.workload == "serve-fresh":
        warm = fresh_requests(
            traffic, subject.generator, subject.model, WINDOW_FILL_REQUESTS, rng,
            rows_per_request=WINDOW_FILL_ROWS, codec="binary",
        ) + fresh_requests(
            traffic, subject.generator, subject.model, 1, rng, rows_per_request=WARM_OFFSET_ROWS
        ) + fresh_requests(traffic, subject.generator, subject.model, WARM_FRESH - 1, rng)
        opened = fresh_requests(traffic, subject.generator, subject.model, count, rng)
        closed = fresh_requests(
            traffic, subject.generator, subject.model, CLOSED_PLANNED[run.workload], rng
        )
    else:
        hot = HotSet(traffic, subject.generator, subject.model, HOT_PAYLOADS, rng)
        warm = hot.covering(COVERING_ROWS) + list(hot.payloads)
        opened = [hot.draw(rng, RECOMBINE_SHARE) for _ in range(count)]
        closed = [hot.draw(rng, RECOMBINE_SHARE) for _ in range(CLOSED_PLANNED[run.workload])]
    offsets = stats.poisson_schedule(rate, count, rng)
    return Plan(warm, opened, offsets, closed, traffic)


def _counters(metrics: Dict) -> Dict[str, float]:
    """The /metrics counters the ledger uses, summed over replicas."""
    aggregate = metrics["aggregate_counters"]
    gateway = metrics["gateway"]
    batch_sum = sum(r["engine.batch_cases"]["sum"] for r in metrics["replicas"])
    return {
        "shed": gateway["gateway.shed_total"]["value"] + metrics["pool"]["pool.shed_total"]["value"],
        "response_hits": gateway["gateway.response_cache_hits_total"]["value"],
        "response_misses": gateway["gateway.response_cache_misses_total"]["value"],
        "footprint_hits": aggregate["cache.hits_total"],
        "footprint_misses": aggregate["cache.misses_total"],
        "batches": aggregate["engine.batches_total"],
        "batch_cases": batch_sum,
        "evaluations": aggregate["monitor.evaluations"],
    }


def _start_serving(run: Run, subject: Subject, plan: Plan) -> Tuple[ServerProcess, LoadGenerator, List[Served]]:
    server = ServerProcess(subject.registry, run.src_dir)
    try:
        client = LoadGenerator(server.port)
        warm = client.serial(plan.warm)
    except BaseException:
        server.stop()
        raise
    return server, client, warm


def _check_served(subject: Subject, served: Sequence[Served], result: Result) -> None:
    """Compare every served report with the in-process LocalDiagnoser reference."""
    references: Dict[int, Dict] = {}
    for item in served:
        if item.outcome.status != 200:
            continue
        planned = item.planned
        if planned.payload_id not in references:
            references[planned.payload_id] = subject.local.diagnose_arrays(
                planned.inputs, planned.labels
            ).to_dict()
        diff = checks.differences(
            checks.served_document(item.body, planned.codec), references[planned.payload_id]
        )
        if diff:
            item.outcome.mismatch = True
            mismatches = result.info.setdefault("mismatches", [])
            if len(mismatches) < 5:
                mismatches.append({"payload": planned.payload_id, "diff": diff[:5]})


def _replay(subject: Subject, plan: Plan, served: Sequence[Served]):
    """Replay served requests that reached a replica through an in-process pool.

    The pool has the server's configuration; each layer's public function is
    wrapped in a span for the duration of the replay.
    """
    reached = [s for s in served if s.cache_state == "miss" and s.outcome.status == 200]
    step = max(1, len(reached) // REPLAY_REQUESTS)
    sample = reached[::step][:REPLAY_REQUESTS]
    pool = ReplicaPool.from_registry(
        subject.registry, num_replicas=2, **DiagnoserConfig(monitor=True).service_kwargs()
    )
    recorder = Recorder()
    wire: Dict[str, Dict[str, List[float]]] = {
        codec: {"decode": [], "encode": [], "bytes": []} for codec in ("json", "binary")
    }
    try:
        for item in plan.warm:
            pool.diagnose_dict(subject.name, item.inputs, item.labels)
        targets = _wrap_targets([
            (ReplicaPool, "acquire", "replicas.acquire"),
            (DiagnosisService, "_validate_request", "schema.validate"),
            (BatchingEngine, "extract", "batching.extract"),
            (MonitorSink, "observe_extracted", "monitor.observe"),
            (serve_service, "compute_specifics_batch", "specifics"),
        ])
        recorder.enabled = True
        for item in sample:
            codec = get_codec(item.planned.codec)
            with patched(recorder, targets):
                with recorder.span("request", {"codec": codec.name}, kind="request"):
                    with recorder.span("wire.decode"):
                        request = codec.decode_request(item.planned.body)
                    with recorder.span("replicas.diagnose_dict"):
                        document = pool.diagnose_dict(
                            request.model, request.inputs, request.labels,
                            version=request.version, metadata=request.metadata,
                        )
                    with recorder.span("wire.encode"):
                        codec.encode_report(document)
            for name, numbers in wire.items():
                other = get_codec(name)
                body = plan.traffic.body(item.planned, name)
                began = time.perf_counter()
                other.decode_request(body)
                middle = time.perf_counter()
                other.encode_report(document)
                numbers["decode"].append((middle - began) * 1e3)
                numbers["encode"].append((time.perf_counter() - middle) * 1e3)
                numbers["bytes"].append(float(len(body)))
    finally:
        pool.shutdown()
    return recorder, sample, wire


def serve(run: Run) -> Result:
    result = Result()
    rng = np.random.default_rng(run.seed)
    started = time.perf_counter()
    subject = build_subject(SERVE_SUBJECT, "utd", f"{run.work_dir}/registry-0", "lenet")
    trained = time.perf_counter()
    plan = _plan(run, subject, rng)
    planned = time.perf_counter()
    server, client, warm = _start_serving(run, subject, plan)
    first = (trained - started) + (time.perf_counter() - planned)
    try:
        result.info["process_start_to_first_request_s"] = time.perf_counter() - run.process_start
        result.info["traffic_planning_s"] = planned - trained
        connections = min(OPEN_CONNECTIONS[run.workload], len(client.senders))
        before = _counters(server.get_json("/metrics"))
        server_config = server.get_json("/stats")
        if run.trace:
            half = len(plan.open) // 2
            untraced = client.open_loop(plan.open[:half], plan.offsets[:half], connections)
            shift = plan.offsets[half - 1]
            traced = client.open_loop(
                plan.open[half:], [o - shift for o in plan.offsets[half:]], connections
            )
            opened, closed = untraced + traced, []
        else:
            opened = client.open_loop(plan.open, plan.offsets, connections)
            closed_seconds = run.seconds * (1.0 - OPEN_SHARE)
            closed_stop = time.perf_counter() + closed_seconds
            closed = client.closed_loop(plan.closed, closed_seconds)
        after = _counters(server.get_json("/metrics"))
        rss = server.peak_rss_mb()
    finally:
        # Stopped with the client's keep-alive connections still open, as a
        # real client pool would leave them; what the server logs is counted.
        logged_errors = server.stop()
        client.close()
    result.info["server_exit_code"] = server.exit_code()
    result.info["server_logged_errors"] = logged_errors
    if logged_errors:
        result.info["server_log_tail"] = [line.rstrip() for line in server.lines[-12:]]
    flags = serve_cli.build_parser().parse_args(["--registry", subject.registry, *SERVE_ARGS])
    result.info["server_config"] = {
        "command": "repro-serve " + " ".join(SERVE_ARGS),
        "replicas": server_config["pool"]["num_replicas"],
        "max_inflight": server_config["pool"]["max_inflight"],
        "batch_window_s": flags.batch_wait,
        "max_batch_cases": flags.max_batch_cases,
        "footprint_cache_cases": flags.cache_size,
        "response_cache": server_config["gateway"]["response_cache"],
        "monitor": server_config["pool"]["replicas"][0]["monitor"],
        "monitor_window_cases": flags.monitor_window,
        "monitor_update_cases": flags.monitor_update_cases,
    }
    result.info["test_accuracy"] = subject.test_accuracy
    result.info["traffic_shares"] = {
        "open_loop": shares([s.planned for s in opened]),
        "closed_loop": shares([s.planned for s in closed]),
    }
    result.info["open_rate_rps"] = RATES[run.workload]
    result.info["open_connections"] = connections

    _check_served(subject, warm + opened + closed, result)
    result.count([s.outcome for s in warm + opened + closed])
    delta = {key: after[key] - before[key] for key in after}
    result.info["server_counters"] = delta
    open_outcomes = [s.outcome for s in opened]

    if run.trace:
        traced_items = opened[len(opened) // 2:]
        recorder, sample, wire = _replay(subject, plan, traced_items)
        rows = ledger.per_root(recorder.spans, "request")
        values = _layer_values(rows, recorder.spans, "request", SERVE_LAYERS)
        untraced_p50 = stats.latency_summary([s.outcome for s in opened[: len(opened) // 2]])["p50_ms"]
        traced_p50 = stats.latency_summary([s.outcome for s in traced_items])["p50_ms"]
        served_rtt = stats.median([
            (s.outcome.done - s.outcome.sent) * 1e3 for s in sample
        ]) if sample else 0.0
        in_process = ledger.layer_median_ms(rows, "replicas.diagnose_dict", "total")
        lookups_fp = delta["footprint_hits"] + delta["footprint_misses"]
        lookups_rc = delta["response_hits"] + delta["response_misses"]
        values.update({
            "gateway.http_overhead_ms": served_rtt - in_process if sample else 0.0,
            "gateway.shed_total": delta["shed"],
            "batching.cases_per_batch": delta["batch_cases"] / delta["batches"] if delta["batches"] else 0.0,
            "batching.batches_total": delta["batches"],
            "cache.footprint_hit_ratio": delta["footprint_hits"] / lookups_fp if lookups_fp else 0.0,
            "cache.footprint_lookups": lookups_fp,
            "cache.response_hit_ratio": delta["response_hits"] / lookups_rc if lookups_rc else 0.0,
            "cache.response_lookups": lookups_rc,
            "monitor.evaluations_total": delta["evaluations"],
            "server.start_s": server.start_seconds,
            "client.lag_p99_ms": stats.lag_p99_ms(open_outcomes),
            "trace.overhead_ms": traced_p50 - untraced_p50,
            "server.logged_errors": logged_errors,
        })
        for codec, numbers in wire.items():
            if numbers["decode"]:
                values[f"wire.decode_ms.{codec}"] = stats.median(numbers["decode"])
                values[f"wire.encode_ms.{codec}"] = stats.median(numbers["encode"])
                values[f"wire.request_bytes.{codec}"] = stats.median(numbers["bytes"])
        values.update(subject.timings)
        _put_layers(result, values)
        result.info["replayed_requests"] = len(sample)
        result.info["served_rtt_p50_ms"] = served_rtt
        result.info["ledger"] = _ledger_table(rows, "request", SERVE_LAYERS, served_rtt)
        # What the in-process replay does not see: the HTTP round trip around
        # ReplicaPool.diagnose_dict, so the rows add up to the served p50.
        result.info["ledger"].insert(0, {
            "span": "gateway.http_overhead", "calls": len(sample),
            "median_total_ms": values["gateway.http_overhead_ms"],
            "median_self_ms": values["gateway.http_overhead_ms"],
            "share_of_p50": values["gateway.http_overhead_ms"] / served_rtt if served_rtt else 0.0,
        })
        recorder.spans.extend(_http_span(item, n) for n, item in enumerate(traced_items))
        recorder.write_jsonl(run.spans_path)
        result.info["spans"] = run.spans_path
        return result

    summary = stats.latency_summary(open_outcomes)
    result.info["latency"] = summary
    result.info["client_lag_p99_ms"] = stats.lag_p99_ms(open_outcomes)
    # The phase's nominal length: the schedule holds rate x length requests.
    open_seconds = len(open_outcomes) / RATES[run.workload]
    # Only what completed inside the phase counts: the requests still in
    # flight at its end would otherwise stretch it by up to one stall.
    closed_ok = [s for s in closed if not s.outcome.failed and s.outcome.done <= closed_stop]
    result.info["closed_loop_requests"] = len(closed)
    result.put("latency_p50_ms", summary["p50_ms"], "ms")
    result.put("latency_p99_ms", summary["p99_ms"], "ms")
    result.put("goodput_rps", stats.goodput(open_outcomes, run.limit_ms / 1e3, open_seconds), "1/s")
    result.put("capacity_rps", len(closed_ok) / closed_seconds, "1/s")
    result.put("cases_per_s", sum(len(s.planned.labels) for s in closed_ok) / closed_seconds, "1/s")
    result.put("peak_rss_mb", rss, "MiB")
    durations = [first] + [
        _repeat_setup(run, plan, index) for index in range(1, SETUP_REPEATS)
    ]
    result.info["setup_runs_s"] = durations
    result.put("setup_s", _setup_seconds(run, durations), "s")
    return result


def _repeat_setup(run: Run, plan: Plan, index: int) -> float:
    """One more set-up with the same steps and warm-up traffic; returns its seconds."""
    started = time.perf_counter()
    subject = build_subject(SERVE_SUBJECT, "utd", f"{run.work_dir}/registry-{index}", "lenet")
    server, client, warm = _start_serving(run, subject, plan)
    elapsed = time.perf_counter() - started
    server.stop()
    client.close()
    if any(item.outcome.failed for item in warm):
        raise RuntimeError("warm-up failed during a repeated set-up")
    return elapsed


def _http_span(item: Served, number: int) -> Dict:
    """The client's record of one traced HTTP request, in the span schema."""
    outcome = item.outcome
    epoch = time.time() - time.perf_counter()
    return {
        "name": "http.request",
        "kind": "client",
        "trace_id": f"{number + 1:032x}",
        "span_id": f"{number + 1:016x}",
        "parent_id": None,
        "start_time": epoch + outcome.sent,
        "start_monotonic": outcome.sent,
        "duration_seconds": outcome.done - outcome.sent,
        "cpu_seconds": None,
        "status": "ok" if not outcome.failed else "error",
        "error": None,
        "attributes": {
            "codec": item.planned.codec,
            "kind": item.planned.kind,
            "http.status": outcome.status,
            "response_cache": item.cache_state,
            "lag_ms": outcome.lag * 1e3,
        },
    }


WORKLOADS: Dict[str, Callable[[Run], Result]] = {
    "offline-cifar": offline_cifar,
    "serve-fresh": serve,
    "serve-recurring": serve,
}


def cleanup(run: Run) -> None:
    shutil.rmtree(run.work_dir, ignore_errors=True)
