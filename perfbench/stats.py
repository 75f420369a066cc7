"""Statistics of one benchmark run: percentiles, open-loop latency, goodput, errors.

Pure functions over plain Python numbers, so they are unit-tested without a
server (``perfbench/tests/test_stats.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

#: A tail percentile is reported only as far as at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between ranks.

    Matches ``numpy.percentile``'s default method, so numbers agree with any
    numpy-based analysis of the same samples.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def supported_percentile(n: int, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest percentile with at least ``min_beyond`` of ``n`` samples beyond it.

    ``None`` when the sample is too small to place even one tail sample
    (``n <= min_beyond``).
    """
    if n <= min_beyond:
        return None
    return 100.0 * (1.0 - min_beyond / n)


@dataclass
class Outcome:
    """One timed operation as the client saw it.

    ``due`` is when the schedule said to send it, ``sent`` when the client
    actually sent it and ``done`` when the last response byte arrived, all on
    one monotonic clock in seconds.  ``status`` is the HTTP status (200 for a
    successful in-process call) or ``None`` for a timeout or broken
    connection.  ``mismatch`` is set by the output check.
    """

    due: float
    sent: float
    done: float
    status: Optional[int]
    mismatch: bool = False

    @property
    def latency(self) -> float:
        """Latency from the scheduled send time, so a stalled sender shows."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """How late the generator sent this operation."""
        return self.sent - self.due

    @property
    def failed(self) -> bool:
        return self.status is None or not 200 <= self.status < 300 or self.mismatch


def failures(outcomes: Iterable[Outcome]) -> int:
    return sum(1 for outcome in outcomes if outcome.failed)


def error_rate(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("error rate of zero attempted operations")
    return failed / attempted


def goodput(outcomes: Sequence[Outcome], limit_seconds: float, duration_seconds: float) -> float:
    """Successful operations that met the latency limit, per second of the phase.

    A failed operation misses the limit whatever its latency.
    """
    if duration_seconds <= 0:
        raise ValueError("goodput over a non-positive duration")
    good = sum(
        1 for outcome in outcomes if not outcome.failed and outcome.latency <= limit_seconds
    )
    return good / duration_seconds


def latency_summary(outcomes: Sequence[Outcome]) -> Dict[str, float]:
    """p50/p99 of successful latencies in ms, with the sample count and tail support."""
    latencies = [outcome.latency * 1e3 for outcome in outcomes if not outcome.failed]
    if not latencies:
        raise ValueError("no successful operation to summarize")
    return {
        "p50_ms": median(latencies),
        "p99_ms": percentile(latencies, 99.0),
        "samples": len(latencies),
        "beyond_p99": beyond(latencies, 99.0),
        "supported_percentile": supported_percentile(len(latencies)) or 0.0,
    }


def lag_p99_ms(outcomes: Sequence[Outcome]) -> float:
    return percentile([outcome.lag * 1e3 for outcome in outcomes], 99.0)


def poisson_schedule(rate: float, count: int, rng) -> List[float]:
    """``count`` send offsets (seconds) of a Poisson process at ``rate`` per second.

    The count, not the duration, is fixed, so every run holds the same number
    of requests and the tail percentile keeps its support.
    """
    gaps = rng.exponential(1.0 / rate, size=count)
    offsets: List[float] = []
    total = 0.0
    for gap in gaps:
        total += float(gap)
        offsets.append(total)
    return offsets
