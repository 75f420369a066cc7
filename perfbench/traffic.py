"""Seeded request traffic for the serving workloads.

Every request holds at least one case the subject model misclassifies, so no
request is refused with ``NoFaultyCasesError`` -- a refusal would measure the
generator, not the server.  A case counts as misclassified only when the
float64 prediction misses the label by a probability margin far above the
float32 rounding of the served path, so the server agrees with the generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.api.schema import DiagnosisRequest
from repro.wire import get_codec

ROWS_PER_REQUEST = 16
#: Probability margin by which a counted misclassification must win.
MISCLASSIFY_MARGIN = 1e-3

KINDS = ("fresh", "exact_repeat", "cross_codec_repeat", "recombined")


@dataclass
class Planned:
    """One request: its arrays, wire codec, encoded body and traffic kind."""

    payload_id: int
    inputs: np.ndarray
    labels: np.ndarray
    codec: str
    body: bytes
    kind: str = "fresh"


def misclassified(model, inputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mask of rows whose prediction misses ``labels`` by more than the margin."""
    probs = model.predict_proba(inputs)
    top = probs.argmax(axis=1)
    wrong_score = probs[np.arange(len(labels)), top]
    right_score = probs[np.arange(len(labels)), labels]
    return (top != labels) & (wrong_score - right_score > MISCLASSIFY_MARGIN)


def encode(model_name: str, inputs: np.ndarray, labels: np.ndarray, codec: str) -> bytes:
    request = DiagnosisRequest(model=model_name, inputs=inputs, labels=labels)
    return get_codec(codec).encode_request(request)


class Traffic:
    """Plans requests and classifies each against everything sent before it."""

    def __init__(self, model_name: str) -> None:
        self.model_name = model_name
        self._sent_bodies: set = set()
        self._sent_payloads: set = set()
        self._bodies: Dict = {}
        self._next_id = 0

    def new_payload_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def body(self, planned: "Planned", codec: str) -> bytes:
        """``planned``'s payload encoded under ``codec`` (cached per payload)."""
        key = (planned.payload_id, codec)
        if key not in self._bodies:
            self._bodies[key] = encode(self.model_name, planned.inputs, planned.labels, codec)
        return self._bodies[key]

    def plan(self, payload_id: int, inputs, labels, codec: str, recombined: bool) -> Planned:
        key = (payload_id, codec)
        body = self._bodies.get(key)
        if body is None:
            body = self._bodies[key] = encode(self.model_name, inputs, labels, codec)
        if key in self._sent_bodies:
            kind = "exact_repeat"
        elif payload_id in self._sent_payloads:
            kind = "cross_codec_repeat"
        else:
            kind = "recombined" if recombined else "fresh"
        self._sent_bodies.add(key)
        self._sent_payloads.add(payload_id)
        return Planned(payload_id, inputs, labels, codec, body, kind)


def shares(planned: Sequence[Planned]) -> Dict[str, float]:
    counts = {kind: 0 for kind in KINDS}
    for item in planned:
        counts[item.kind] += 1
    total = max(1, len(planned))
    return {kind: counts[kind] / total for kind in KINDS}


#: Production cases sampled from the data generator per run; every request
#: row is a base case plus its own pixel noise, so no two rows repeat.
BASE_PER_CLASS = 200
ROW_NOISE = 0.03


def fresh_requests(
    traffic: Traffic, generator, model, count: int, rng: np.random.Generator,
    rows_per_request: int = ROWS_PER_REQUEST, codec: str = "json",
) -> List[Planned]:
    """``count`` requests of never-seen cases, each with a misclassified case."""
    base, base_labels = generator.sample(BASE_PER_CLASS, rng=int(rng.integers(2**31))).arrays()
    out: List[Planned] = []
    while len(out) < count:
        # A few spare requests cover the rare one without a misclassified case.
        spare = (count - len(out)) // 10 + 1
        pick = rng.integers(len(base_labels), size=(count - len(out) + spare) * rows_per_request)
        noise = rng.normal(0.0, ROW_NOISE, size=(len(pick),) + base.shape[1:])
        inputs = np.clip(base[pick] + noise, 0.0, 1.5)
        labels = base_labels[pick]
        wrong = misclassified(model, inputs, labels)
        for start in range(0, len(labels) - rows_per_request + 1, rows_per_request):
            rows = slice(start, start + rows_per_request)
            if not wrong[rows].any():
                continue
            out.append(traffic.plan(
                traffic.new_payload_id(), inputs[rows], labels[rows], codec, recombined=False
            ))
            if len(out) == count:
                break
    return out


class HotSet:
    """A fixed set of labeled payloads that an investigation keeps re-submitting."""

    def __init__(self, traffic: Traffic, generator, model, size: int, rng) -> None:
        self.traffic = traffic
        self.payloads = fresh_requests(traffic, generator, model, size, rng)
        self.rows = np.concatenate([p.inputs for p in self.payloads])
        self.labels = np.concatenate([p.labels for p in self.payloads])
        self.wrong_rows = np.flatnonzero(misclassified(model, self.rows, self.labels))

    def covering(self, group_rows: int) -> List[Planned]:
        """Bodies that put every hot row through each of two alternating replicas.

        Each group of ``group_rows`` hot rows is sent twice, the second time in
        reverse order (a different request), so consecutive requests land on
        both replicas and each extracts and caches every row.
        """
        out: List[Planned] = []
        for start in range(0, len(self.labels), group_rows):
            rows = np.arange(start, min(start + group_rows, len(self.labels)))
            if not np.isin(rows, self.wrong_rows).any():
                raise ValueError("a covering group holds no misclassified case")
            for order in (rows, rows[::-1]):
                out.append(self.traffic.plan(
                    self.traffic.new_payload_id(), self.rows[order], self.labels[order],
                    "json", recombined=True,
                ))
        return out

    def draw(self, rng: np.random.Generator, recombine_share: float) -> Planned:
        """A repeat of a hot payload, or a new body recombining hot rows.

        The codec is JSON or binary with equal odds.
        """
        codec = "json" if rng.random() < 0.5 else "binary"
        if rng.random() >= recombine_share:
            hot = self.payloads[int(rng.integers(len(self.payloads)))]
            return self.traffic.plan(hot.payload_id, hot.inputs, hot.labels, codec, False)
        anchor = int(self.wrong_rows[int(rng.integers(len(self.wrong_rows)))])
        others = rng.choice(
            np.delete(np.arange(len(self.labels)), anchor),
            size=ROWS_PER_REQUEST - 1,
            replace=False,
        )
        rows = np.concatenate([[anchor], others])
        return self.traffic.plan(
            self.traffic.new_payload_id(), self.rows[rows], self.labels[rows], codec, True
        )
