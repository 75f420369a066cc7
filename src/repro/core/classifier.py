"""Per-case defect classification and report aggregation.

The final step of the DeepMorph pipeline: given the footprint specifics of
every faulty case, decide which defect each case is evidence for, and report
the ratio of each defect type over all faulty cases.  The defect with the
highest ratio is the dominant defect of the target model — exactly what the
paper's Table I reports.

The paper does not spell out the per-case decision rule, so this module
implements the rule documented in DESIGN.md: each case is described by a
feature vector built from its footprint specifics plus two model-level
context signals (how concentrated the faulty cases are over true classes, and
how much the learned class execution patterns overlap), and three linear
scoring functions — one per defect type — turn that vector into defect
scores.  The default weights were calibrated on held-out defect-injection
runs with :mod:`repro.experiments.calibrate`; they are ordinary configuration
(see :class:`DefectClassifierConfig`) so ablation experiments can replace
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..defects.spec import DefectType
from ..exceptions import ConfigurationError
from .specifics import FootprintSpecifics

__all__ = [
    "DiagnosisContext",
    "DefectClassifierConfig",
    "CaseVerdict",
    "DefectReport",
    "DefectCaseClassifier",
    "FEATURE_NAMES",
    "build_feature_vector",
    "build_feature_matrix",
    "error_concentration",
]

#: Order of the features consumed by the linear scoring functions.
FEATURE_NAMES: Tuple[str, ...] = (
    "bias",
    "final_confidence",
    "commitment",
    "match_predicted",
    "match_true",
    "atypicality_true",
    "mean_entropy",
    "late_entropy",
    "nn_typicality_predicted",
    "nn_typicality_true",
    "stability",
    "divergence_point",
    "error_concentration",
    "pattern_overlap",
    "feature_quality",
    "training_inconsistency",
)


@dataclass(frozen=True)
class DiagnosisContext:
    """Model-level signals shared by every faulty case of one diagnosis.

    Attributes
    ----------
    error_concentration:
        How concentrated the faulty cases are over their true classes, in
        ``[0, 1]``.  Data defects (ITD, UTD) concentrate errors in the
        affected classes; structure defects spread them out.
    pattern_overlap:
        Mean similarity between different classes' execution patterns, in
        ``[0, 1]``.  A backbone that cannot separate the classes (structure
        defect) produces overlapping patterns.
    feature_quality:
        Best held-out probe accuracy over the hidden layers, rescaled so
        chance level is 0.
    training_inconsistency:
        Largest systematic disagreement between training labels and the
        trained model's own predictions on the training set, in ``[0, 1]``.
        Mislabeled training data produces a large value (the model either
        refuses to learn the wrong labels or flips the genuine ones).
    """

    error_concentration: float = 0.5
    pattern_overlap: float = 0.3
    feature_quality: float = 1.0
    training_inconsistency: float = 0.0


def error_concentration(true_labels: Sequence[int], num_classes: int, top_k: int = 3) -> float:
    """Share of faulty cases whose true class is among the ``top_k`` most affected classes.

    Rescaled so a uniform spread over ``num_classes`` classes maps to 0 and
    full concentration in ``top_k`` classes maps to 1.
    """
    labels = np.asarray(list(true_labels), dtype=np.int64)
    if labels.size == 0:
        return 0.0
    if num_classes <= 0:
        raise ConfigurationError(f"num_classes must be positive, got {num_classes}")
    top_k = max(1, min(int(top_k), num_classes))
    counts = np.bincount(labels, minlength=num_classes)
    top_share = float(np.sort(counts)[::-1][:top_k].sum() / labels.size)
    baseline = top_k / num_classes
    if baseline >= 1.0:
        return 1.0
    return float(np.clip((top_share - baseline) / (1.0 - baseline), 0.0, 1.0))


def build_feature_vector(
    specifics: FootprintSpecifics, context: DiagnosisContext
) -> np.ndarray:
    """Assemble the feature vector (ordered as :data:`FEATURE_NAMES`) for one case."""
    return np.array([
        1.0,
        specifics.final_confidence,
        specifics.commitment,
        specifics.match_predicted,
        specifics.match_true,
        specifics.atypicality_true,
        specifics.mean_entropy,
        specifics.late_entropy,
        specifics.nn_typicality_predicted,
        specifics.nn_typicality_true,
        specifics.stability,
        specifics.divergence_point,
        context.error_concentration,
        context.pattern_overlap,
        context.feature_quality,
        context.training_inconsistency,
    ], dtype=np.float64)


def build_feature_matrix(
    specifics: Sequence[FootprintSpecifics], context: DiagnosisContext
) -> np.ndarray:
    """Assemble all case feature vectors as one ``(N, F)`` matrix.

    The batched counterpart of :func:`build_feature_vector`: the context
    columns are broadcast once and the per-case columns are filled from the
    specifics, so the defect scores of a whole faulty-case batch reduce to a
    single ``(N, F) @ (F, D)`` product in
    :meth:`DefectCaseClassifier.classify_batch`.
    """
    n = len(specifics)
    matrix = np.empty((n, len(FEATURE_NAMES)), dtype=np.float64)
    matrix[:, 0] = 1.0
    matrix[:, 1] = [s.final_confidence for s in specifics]
    matrix[:, 2] = [s.commitment for s in specifics]
    matrix[:, 3] = [s.match_predicted for s in specifics]
    matrix[:, 4] = [s.match_true for s in specifics]
    matrix[:, 5] = [s.atypicality_true for s in specifics]
    matrix[:, 6] = [s.mean_entropy for s in specifics]
    matrix[:, 7] = [s.late_entropy for s in specifics]
    matrix[:, 8] = [s.nn_typicality_predicted for s in specifics]
    matrix[:, 9] = [s.nn_typicality_true for s in specifics]
    matrix[:, 10] = [s.stability for s in specifics]
    matrix[:, 11] = [s.divergence_point for s in specifics]
    matrix[:, 12] = context.error_concentration
    matrix[:, 13] = context.pattern_overlap
    matrix[:, 14] = context.feature_quality
    matrix[:, 15] = context.training_inconsistency
    return matrix


# Default scoring weights, one row per defect type, columns ordered as
# FEATURE_NAMES.  Calibrated with repro.experiments.calibrate on defect-
# injection runs (LeNet/AlexNet on the synthetic MNIST stand-in and
# ResNet/DenseNet on the synthetic CIFAR stand-in) that use different seeds
# from the Table I defaults; see EXPERIMENTS.md.
_DEFAULT_WEIGHTS: Dict[DefectType, Tuple[float, ...]] = {
    DefectType.ITD: (
        -0.3857,  # bias
        0.5394,  # final_confidence
        0.5680,  # commitment
        -1.5548,  # match_predicted
        -1.5386,  # match_true
        0.2658,  # atypicality_true
        -0.5833,  # mean_entropy
        -0.9438,  # late_entropy
        -0.7658,  # nn_typicality_predicted
        -0.5797,  # nn_typicality_true
        0.7375,  # stability
        -0.7206,  # divergence_point
        3.3296,  # error_concentration
        -0.7040,  # pattern_overlap
        -0.0148,  # feature_quality
        -0.5000,  # training_inconsistency (hand-set; see DESIGN.md)
    ),
    DefectType.UTD: (
        -0.4107,  # bias
        -0.4851,  # final_confidence
        -0.5684,  # commitment
        0.0861,  # match_predicted
        1.1256,  # match_true
        0.7024,  # atypicality_true
        0.2112,  # mean_entropy
        0.1467,  # late_entropy
        0.8433,  # nn_typicality_predicted
        -1.2671,  # nn_typicality_true
        1.4060,  # stability
        -0.1002,  # divergence_point
        -0.7514,  # error_concentration
        -2.9065,  # pattern_overlap
        -0.4620,  # feature_quality
        3.0000,  # training_inconsistency (hand-set; see DESIGN.md)
    ),
    DefectType.SD: (
        0.7866,  # bias
        -0.0541,  # final_confidence
        0.0003,  # commitment
        1.4676,  # match_predicted
        0.4124,  # match_true
        -0.9672,  # atypicality_true
        0.3715,  # mean_entropy
        0.7973,  # late_entropy
        -0.0776,  # nn_typicality_predicted
        1.8469,  # nn_typicality_true
        -2.1210,  # stability
        0.8208,  # divergence_point
        -2.6136,  # error_concentration
        3.6128,  # pattern_overlap
        0.4711,  # feature_quality
        -0.5000,  # training_inconsistency (hand-set; see DESIGN.md)
    ),
}


@dataclass(frozen=True)
class DefectClassifierConfig:
    """Weights and knobs of the per-case defect scoring rule.

    Attributes
    ----------
    weights:
        Mapping from defect type to the linear weights applied to the feature
        vector (ordered as :data:`FEATURE_NAMES`).
    soft_assignment:
        When ``True`` (default), each case contributes its softmax-normalized
        score vector to the ratios; when ``False``, each case contributes only
        its argmax verdict.
    temperature:
        Softmax temperature of the soft assignment (lower = closer to argmax).
    """

    weights: Dict[DefectType, Tuple[float, ...]] = field(
        default_factory=lambda: {k: tuple(v) for k, v in _DEFAULT_WEIGHTS.items()}
    )
    soft_assignment: bool = True
    temperature: float = 1.0

    def __post_init__(self):
        expected = {DefectType.ITD, DefectType.UTD, DefectType.SD}
        if set(self.weights) != expected:
            raise ConfigurationError(
                f"weights must cover exactly {sorted(d.value for d in expected)}, "
                f"got {sorted(d.value for d in self.weights)}"
            )
        for defect, row in self.weights.items():
            if len(row) != len(FEATURE_NAMES):
                raise ConfigurationError(
                    f"weights for {defect.value} must have {len(FEATURE_NAMES)} entries "
                    f"(one per feature), got {len(row)}"
                )
        if self.temperature <= 0:
            raise ConfigurationError(f"temperature must be positive, got {self.temperature}")

    def weight_matrix(self) -> np.ndarray:
        """The weights as a ``(3, num_features)`` array ordered ITD, UTD, SD."""
        return np.array([
            self.weights[DefectType.ITD],
            self.weights[DefectType.UTD],
            self.weights[DefectType.SD],
        ], dtype=np.float64)

    @classmethod
    def from_weight_matrix(
        cls, matrix: np.ndarray, soft_assignment: bool = True, temperature: float = 0.35
    ) -> "DefectClassifierConfig":
        """Build a config from a ``(3, num_features)`` array ordered ITD, UTD, SD."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (3, len(FEATURE_NAMES)):
            raise ConfigurationError(
                f"weight matrix must have shape (3, {len(FEATURE_NAMES)}), got {matrix.shape}"
            )
        return cls(
            weights={
                DefectType.ITD: tuple(matrix[0]),
                DefectType.UTD: tuple(matrix[1]),
                DefectType.SD: tuple(matrix[2]),
            },
            soft_assignment=soft_assignment,
            temperature=temperature,
        )


@dataclass(frozen=True)
class CaseVerdict:
    """The classification of a single faulty case."""

    specifics: FootprintSpecifics
    scores: Dict[DefectType, float]
    evidence: Dict[DefectType, float]
    verdict: DefectType

    def as_dict(self) -> Dict:
        return {
            "verdict": self.verdict.value,
            "scores": {k.value: v for k, v in self.scores.items()},
            "evidence": {k.value: v for k, v in self.evidence.items()},
            "specifics": self.specifics.as_dict(),
        }


@dataclass
class DefectReport:
    """Aggregated diagnosis over all faulty cases of one model.

    Attributes
    ----------
    ratios:
        Fraction of defect evidence assigned to each defect type (sums to 1).
    counts:
        Number of faulty cases whose hard verdict was each type.
    num_cases:
        Total number of faulty cases diagnosed.
    verdicts:
        The per-case verdicts (kept for drill-down and ablation).
    context:
        The model-level context signals used during scoring.
    metadata:
        Free-form experiment context (model kind, dataset, injected defect, ...).
    """

    ratios: Dict[DefectType, float]
    counts: Dict[DefectType, int]
    num_cases: int
    verdicts: List[CaseVerdict] = field(default_factory=list)
    context: Optional[DiagnosisContext] = None
    metadata: Dict = field(default_factory=dict)

    @property
    def dominant_defect(self) -> DefectType:
        """The defect with the highest ratio (the paper's reported diagnosis)."""
        return max(self.ratios, key=lambda defect: self.ratios[defect])

    def ratio(self, defect: "DefectType | str") -> float:
        """The ratio of one defect type."""
        if isinstance(defect, str):
            defect = DefectType.from_string(defect)
        return float(self.ratios.get(defect, 0.0))

    def as_dict(self) -> Dict:
        """JSON-friendly representation (omits per-case verdict details).

        Delegates to the canonical ``v1`` schema of
        :class:`repro.api.schema.DiagnosisReport`, so this dict IS the wire
        document the serving gateway emits.  (Imported lazily: the api
        package depends on this module.)
        """
        from ..api.schema import DiagnosisReport

        return DiagnosisReport.from_defect_report(self).to_dict()

    def format_row(self) -> str:
        """The report as a Table-I-style row: ``ITD  UTD  SD`` ratios."""
        return "  ".join(
            f"{defect.value.upper()}={self.ratios.get(defect, 0.0):.3f}"
            for defect in (DefectType.ITD, DefectType.UTD, DefectType.SD)
        )

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"Diagnosed {self.num_cases} faulty case(s)",
            f"  ratios: {self.format_row()}",
            f"  dominant defect: {self.dominant_defect.value.upper()}",
        ]
        if self.metadata:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(self.metadata.items()))
            lines.append(f"  context: {pairs}")
        return "\n".join(lines)


class DefectCaseClassifier:
    """Scores footprint specifics and aggregates per-case verdicts into a report."""

    _ORDER = (DefectType.ITD, DefectType.UTD, DefectType.SD)

    def __init__(self, config: Optional[DefectClassifierConfig] = None):
        self.config = config or DefectClassifierConfig()

    # -- per-case scoring -------------------------------------------------------

    def scores(
        self, specifics: FootprintSpecifics, context: Optional[DiagnosisContext] = None
    ) -> Dict[DefectType, float]:
        """Raw linear defect scores for one case."""
        context = context or DiagnosisContext()
        features = build_feature_vector(specifics, context)
        raw = self.config.weight_matrix() @ features
        return {defect: float(raw[i]) for i, defect in enumerate(self._ORDER)}

    def classify_case(
        self, specifics: FootprintSpecifics, context: Optional[DiagnosisContext] = None
    ) -> CaseVerdict:
        """Score one case — a thin view over the batched core (``N = 1``)."""
        return self.classify_batch([specifics], context)[0]

    def classify_case_reference(
        self, specifics: FootprintSpecifics, context: Optional[DiagnosisContext] = None
    ) -> CaseVerdict:
        """Per-case scoring loop retained as the batched core's parity reference."""
        scores = self.scores(specifics, context)
        raw = np.array([scores[d] for d in self._ORDER], dtype=np.float64)
        if self.config.soft_assignment:
            logits = raw / self.config.temperature
            logits -= logits.max()
            weights = np.exp(logits)
            weights /= weights.sum()
        else:
            weights = np.zeros_like(raw)
            weights[int(raw.argmax())] = 1.0
        evidence = {defect: float(w) for defect, w in zip(self._ORDER, weights)}
        verdict = self._ORDER[int(raw.argmax())]
        return CaseVerdict(specifics=specifics, scores=scores, evidence=evidence, verdict=verdict)

    # -- batched scoring ------------------------------------------------------------

    def score_matrix(
        self, specifics: Sequence[FootprintSpecifics], context: Optional[DiagnosisContext] = None
    ) -> np.ndarray:
        """Raw linear defect scores of a whole batch: ``(N, D)`` ordered ITD, UTD, SD.

        One ``(N, F) @ (F, D)`` matrix product instead of N per-case
        matrix-vector products — the batched core every scoring API sits on.
        """
        context = context or DiagnosisContext()
        features = build_feature_matrix(specifics, context)
        return features @ self.config.weight_matrix().T

    def _evidence_weights(self, raw: np.ndarray) -> np.ndarray:
        """Per-case evidence weights (``(N, D)``) from raw scores, vectorized."""
        if self.config.soft_assignment:
            logits = raw / self.config.temperature
            logits = logits - logits.max(axis=1, keepdims=True)
            weights = np.exp(logits)
            weights /= weights.sum(axis=1, keepdims=True)
            return weights
        weights = np.zeros_like(raw)
        weights[np.arange(raw.shape[0]), raw.argmax(axis=1)] = 1.0
        return weights

    def _score_batch(
        self,
        specifics: Sequence[FootprintSpecifics],
        context: Optional[DiagnosisContext],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[CaseVerdict]]:
        """Batched scoring core shared by :meth:`classify_batch` and :meth:`aggregate`.

        Returns ``(raw scores, evidence weights, verdict indices, verdicts)``
        so aggregation can reduce over the arrays while handing the per-case
        verdict objects to the report.
        """
        raw = self.score_matrix(specifics, context)
        weights = self._evidence_weights(raw)
        verdict_indices = raw.argmax(axis=1)
        verdicts = [
            CaseVerdict(
                specifics=s,
                scores={defect: float(raw[i, j]) for j, defect in enumerate(self._ORDER)},
                evidence={defect: float(weights[i, j]) for j, defect in enumerate(self._ORDER)},
                verdict=self._ORDER[int(verdict_indices[i])],
            )
            for i, s in enumerate(specifics)
        ]
        return raw, weights, verdict_indices, verdicts

    def classify_batch(
        self,
        specifics: Sequence[FootprintSpecifics],
        context: Optional[DiagnosisContext] = None,
    ) -> List[CaseVerdict]:
        """Score every case of a batch through the single-matmul core."""
        specifics = list(specifics)
        if not specifics:
            return []
        return self._score_batch(specifics, context)[3]

    # -- aggregation ---------------------------------------------------------------

    def build_context(
        self,
        specifics: Sequence[FootprintSpecifics],
        num_classes: int,
        pattern_overlap: float = 0.3,
        feature_quality: float = 1.0,
        training_inconsistency: float = 0.0,
    ) -> DiagnosisContext:
        """Derive the model-level context from the faulty cases and library stats."""
        concentration = error_concentration(
            [s.true_label for s in specifics], num_classes=num_classes
        )
        return DiagnosisContext(
            error_concentration=concentration,
            pattern_overlap=float(pattern_overlap),
            feature_quality=float(feature_quality),
            training_inconsistency=float(training_inconsistency),
        )

    def aggregate(
        self,
        specifics: Sequence[FootprintSpecifics],
        context: Optional[DiagnosisContext] = None,
        metadata: Optional[Dict] = None,
    ) -> DefectReport:
        """Classify every faulty case and aggregate the evidence into a report.

        Batched: one ``(N, F) @ (F, D)`` score matrix, vectorized evidence
        softmax, and array reductions for the counts and ratios.  The per-case
        verdict objects are still materialized for drill-down and ablation.
        """
        specifics = list(specifics)
        if not specifics:
            raise ConfigurationError(
                "cannot aggregate an empty list of faulty cases; the model produced no "
                "misclassifications to diagnose"
            )
        context = context or DiagnosisContext()
        _, weights, verdict_indices, verdicts = self._score_batch(specifics, context)

        evidence_totals = weights.sum(axis=0)
        count_values = np.bincount(verdict_indices, minlength=len(self._ORDER))
        total = float(evidence_totals.sum())
        ratios = {
            defect: float(evidence_totals[j] / total) for j, defect in enumerate(self._ORDER)
        }
        counts = {defect: int(count_values[j]) for j, defect in enumerate(self._ORDER)}
        return DefectReport(
            ratios=ratios,
            counts=counts,
            num_cases=len(verdicts),
            verdicts=verdicts,
            context=context,
            metadata=dict(metadata or {}),
        )

    def aggregate_reference(
        self,
        specifics: Sequence[FootprintSpecifics],
        context: Optional[DiagnosisContext] = None,
        metadata: Optional[Dict] = None,
    ) -> DefectReport:
        """Per-case aggregation loop retained as the batched path's parity reference."""
        if not specifics:
            raise ConfigurationError(
                "cannot aggregate an empty list of faulty cases; the model produced no "
                "misclassifications to diagnose"
            )
        context = context or DiagnosisContext()
        verdicts = [self.classify_case_reference(s, context) for s in specifics]

        evidence_totals = {defect: 0.0 for defect in self._ORDER}
        counts = {defect: 0 for defect in self._ORDER}
        for verdict in verdicts:
            counts[verdict.verdict] += 1
            for defect in self._ORDER:
                evidence_totals[defect] += verdict.evidence[defect]

        total = sum(evidence_totals.values())
        ratios = {defect: evidence_totals[defect] / total for defect in self._ORDER}
        return DefectReport(
            ratios=ratios,
            counts=counts,
            num_cases=len(verdicts),
            verdicts=verdicts,
            context=context,
            metadata=dict(metadata or {}),
        )
