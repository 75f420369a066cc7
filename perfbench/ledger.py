"""The per-layer ledger: spans recorded by the benchmark around layer calls.

The program under test is not modified.  During a traced run the benchmark
wraps the public functions at each layer boundary (``patched``) so that every
call records a span, keeps the spans in memory, and writes them at the end as
JSON lines with the fields of ``repro.obs.Span.to_dict`` -- so ``repro-trace``
renders the file like any trace the server exports.

Diagnosis work is replayed one request at a time, so a single open-span stack
shared by all threads gives the right parent even when a layer runs on the
batching engine's drain thread while the caller waits.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .stats import median

Span = Dict[str, object]


class Recorder:
    """Collects finished spans in memory; disabled recorders cost one branch."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(
        self, name: str, attributes: Optional[Dict[str, object]] = None, kind: str = "internal"
    ) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        with self._lock:
            parent = self._stack[-1] if self._stack else None
            record: Span = {
                "name": name,
                "kind": kind,
                "trace_id": parent["trace_id"] if parent else os.urandom(16).hex(),
                "span_id": os.urandom(8).hex(),
                "parent_id": parent["span_id"] if parent else None,
                "start_time": time.time(),
                "start_monotonic": time.perf_counter(),
                "duration_seconds": None,
                "cpu_seconds": None,
                "status": "ok",
                "error": None,
                "attributes": dict(attributes or {}),
            }
            self._stack.append(record)
        cpu_start = time.thread_time()
        try:
            yield record
        except BaseException as error:
            record["status"] = "error"
            record["error"] = f"{type(error).__name__}: {error}"
            raise
        finally:
            record["duration_seconds"] = time.perf_counter() - record["start_monotonic"]
            record["cpu_seconds"] = max(0.0, time.thread_time() - cpu_start)
            with self._lock:
                self._stack.remove(record)
                self.spans.append(record)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda span: span["start_monotonic"]):
                handle.write(json.dumps(record) + "\n")


def _timed(recorder: Recorder, name: str, fn: Callable, describe: Optional[Callable]) -> Callable:
    def wrapper(*args, **kwargs):
        with recorder.span(name, describe(args, kwargs) if describe else None):
            return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


@contextlib.contextmanager
def patched(recorder: Recorder, targets: Sequence[Tuple]) -> Iterator[None]:
    """Wrap ``owner.attr`` in a span named ``name`` for each target, then restore.

    A target is ``(owner, attr, name)`` or ``(owner, attr, name, describe)``,
    where ``describe(args, kwargs)`` returns the span's attributes.  ``owner``
    is a class (methods and static methods) or a module (functions called
    through the module's globals).
    """
    saved = []
    try:
        for owner, attr, name, *rest in targets:
            describe = rest[0] if rest else None
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, staticmethod):
                wrapped = _timed(recorder, name, raw.__func__, describe)
                setattr(owner, attr, staticmethod(wrapped))
            else:
                setattr(owner, attr, _timed(recorder, name, raw, describe))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """span id -> duration minus the part of its interval its children cover."""
    children: Dict[str, List[Span]] = {}
    for span in spans:
        if span["parent_id"] is not None:
            children.setdefault(span["parent_id"], []).append(span)
    result: Dict[str, float] = {}
    for span in spans:
        lo = span["start_monotonic"]
        hi = lo + span["duration_seconds"]
        covered = [
            (max(lo, c["start_monotonic"]), min(hi, c["start_monotonic"] + c["duration_seconds"]))
            for c in children.get(span["span_id"], ())
        ]
        covered = [(a, b) for a, b in covered if b > a]
        result[span["span_id"]] = span["duration_seconds"] - _union_length(covered)
    return result


def per_root(spans: Sequence[Span], root_name: str) -> List[Dict[str, Dict[str, float]]]:
    """For each root span: ``{name: {"total": s, "self": s, "count": n}}`` over its tree.

    The root itself appears under ``root_name``.
    """
    selfs = self_times(spans)
    by_trace: Dict[str, List[Span]] = {}
    for span in spans:
        by_trace.setdefault(span["trace_id"], []).append(span)
    rows = []
    for trace in by_trace.values():
        if not any(s["name"] == root_name and s["parent_id"] is None for s in trace):
            continue
        row: Dict[str, Dict[str, float]] = {}
        for span in trace:
            entry = row.setdefault(span["name"], {"total": 0.0, "self": 0.0, "count": 0})
            entry["total"] += span["duration_seconds"]
            entry["self"] += selfs[span["span_id"]]
            entry["count"] += 1
        rows.append(row)
    return rows


def layer_median_ms(rows: Sequence[Dict[str, Dict[str, float]]], name: str, key: str) -> float:
    """Median over roots of a layer's total or self time in ms (0 in roots without it)."""
    if not rows:
        return 0.0
    return median([row.get(name, {}).get(key, 0.0) * 1e3 for row in rows])


def unattributed_ms(
    rows: Sequence[Dict[str, Dict[str, float]]], root_name: str, layers: Sequence[str]
) -> float:
    """Median over roots of the root's duration not covered by a named layer's self time."""
    if not rows:
        return 0.0
    values = []
    for row in rows:
        attributed = sum(row.get(name, {}).get("self", 0.0) for name in layers)
        values.append((row[root_name]["total"] - attributed) * 1e3)
    return median(values)
