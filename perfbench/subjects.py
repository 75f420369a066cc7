"""Subject models: train, inject a paper defect, fit DeepMorph, register.

The subject model is fixed (its seeds do not depend on ``--seed``); the
benchmark seed drives only the production traffic.  The setup steps the ledger
reports (``training.fit_s``, ``instrument.fit_s``, ``patterns.fit_s``,
``registry.load_s``) are timed around the public calls that do them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict

from repro.api import DiagnoserConfig, LocalDiagnoser
from repro.core.instrument import SoftmaxInstrumentedModel
from repro.core.patterns import PatternLibrary
from repro.defects import InsufficientTrainingData, UnreliableTrainingData
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import make_dataset, make_model, train_model
from repro.rng import derive_seed
from repro.serve import ArtifactRegistry
from repro.training import evaluate

from .ledger import Recorder, patched

#: LeNet on synthetic MNIST with UTD injected (test accuracy about 0.78).
SERVE_SUBJECT = ExperimentSettings(
    model="lenet", dataset="mnist", train_per_class=60, test_per_class=20,
    epochs=8, probe_epochs=6,
)
#: ResNet (scaled preset) on synthetic CIFAR 3x16x16 with ITD injected.
OFFLINE_SUBJECT = ExperimentSettings(
    model="resnet", dataset="cifar", train_per_class=20, test_per_class=20,
    epochs=3, probe_epochs=3,
)


@dataclass
class Subject:
    name: str
    generator: object
    model: object
    registry: str
    local: LocalDiagnoser
    test_accuracy: float
    timings: Dict[str, float] = field(default_factory=dict)


def _inject(settings: ExperimentSettings, train, defect: str):
    rng = derive_seed(settings.seed, "inject", defect, settings.model)
    if defect == "utd":
        injector = UnreliableTrainingData(fraction=settings.utd_fraction)
    elif defect == "itd":
        injector = InsufficientTrainingData(
            num_affected=settings.itd_affected_classes,
            keep_fraction=settings.itd_keep_fraction,
        )
    else:
        raise ValueError(f"unsupported defect {defect!r}")
    injected, _ = injector.apply(train, rng=rng)
    return injected


def build_subject(settings: ExperimentSettings, defect: str, registry: str, name: str) -> Subject:
    """Train the defective model, fit and register DeepMorph, load it back."""
    recorder = Recorder()
    recorder.enabled = True
    targets = [
        (SoftmaxInstrumentedModel, "fit", "instrument.fit"),
        (PatternLibrary, "fit", "patterns.fit"),
    ]
    generator, train, test = make_dataset(settings)
    model = make_model(settings)
    train = _inject(settings, train, defect)
    with recorder.span("training.fit"):
        train_model(model, train, settings)
    model.eval()
    _, accuracy = evaluate(model, test)
    with patched(recorder, targets):
        morph = DiagnoserConfig(probe_epochs=settings.probe_epochs).build_deepmorph(
            rng=derive_seed(settings.seed, "deepmorph", settings.model, defect)
        )
        morph.fit(model, train)
    ArtifactRegistry(registry).register(name, morph)
    started = time.perf_counter()
    local = LocalDiagnoser.from_registry(registry, name)
    timings = {f"{span['name']}_s": span["duration_seconds"] for span in recorder.spans}
    timings["registry.load_s"] = time.perf_counter() - started
    return Subject(name, generator, model, registry, local, float(accuracy), timings)
