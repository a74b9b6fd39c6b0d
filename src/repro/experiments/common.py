"""Shared plumbing for the per-table/figure experiment modules.

Experiments share expensive artifacts: generated datasets, extracted
feature sets with ground-truth labels, and windowed longitudinal
analyses.  All are memoized in-process so a benchmark session generates
each dataset exactly once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.analysis.longitudinal import WindowedAnalysis, analyze_dataset
from repro.datasets.generate import GeneratedDataset, get_dataset
from repro.datasets.specs import spec_for
from repro.ml.validation import LabelEncoder
from repro.sensor.collection import ObservationWindow
from repro.sensor.curation import LabeledSet
from repro.sensor.engine import SensorConfig, SensorEngine
from repro.sensor.features import FeatureSet

__all__ = [
    "LabeledFeatures",
    "sensor_config",
    "federation_shards",
    "sketch_overrides",
    "labeled_features",
    "windowed",
    "format_rows",
]

SECONDS_PER_DAY = 86400.0

#: Window length per long dataset, following § III-B (d values).
WINDOW_DAYS = {"M-sampled": 7.0, "B-multi-year": 1.0, "B-long": 7.0}

#: Analyzability bar per long dataset.  The paper uses 20 queriers at
#: Internet scale (audiences of 10^5-10^6); our scaled world divides
#: footprints by ~10^2-10^3, and the 1:10-sampled M vantage by another
#: ~3-5x, so the sampled/attenuated vantages scale the bar down with
#: them (DESIGN.md § 2's "scale thresholds accordingly").
MIN_QUERIERS = {"M-sampled": 10, "B-multi-year": 10, "B-long": 10}

#: Curation windows per dataset for longitudinal analyses: M-sampled is
#: curated three times about a month apart (§ III-E); B-multi-year once,
#: mid-window.
CURATION_WINDOWS = {"M-sampled": (8, 13, 21), "B-multi-year": (178,), "B-long": (2,)}


@dataclass(slots=True)
class LabeledFeatures:
    """A dataset's sensor-side features joined with true classes."""

    dataset: GeneratedDataset
    X: np.ndarray
    y: np.ndarray
    encoder: LabelEncoder
    originators: np.ndarray
    footprints: np.ndarray

    @property
    def n_classes(self) -> int:
        return len(self.encoder)

    def class_names(self) -> list[str]:
        return list(self.encoder.classes)


_FEATURE_CACHE: dict[tuple[str, str], LabeledFeatures] = {}
_WINDOW_CACHE: dict[tuple[str, str], WindowedAnalysis] = {}


def sensor_config(name: str, preset: str = "default", **overrides) -> SensorConfig:
    """The per-dataset sensor deployment, as one :class:`SensorConfig`.

    Gathers the per-vantage knobs that § III-B assigns per dataset —
    window length d and the (scaled) analyzability bar — which used to
    be repeated as loose kwargs by every cache-builder here.
    """
    spec = spec_for(name, preset)
    # One observation interval: the whole dataset for the DITL captures,
    # d = 7 days (1 for B-multi-year) for the long ones.
    window_days = min(spec.duration_days, WINDOW_DAYS.get(name, 7.0))
    config = SensorConfig(
        window_seconds=window_days * SECONDS_PER_DAY,
        min_queriers=MIN_QUERIERS.get(name, 20),
        **sketch_overrides(),
    )
    return config.replaced(**overrides) if overrides else config


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


def federation_shards() -> int:
    """Shard count for federated sensing, from ``REPRO_SHARDS``.

    With a value > 1 the experiment cache-builders run their batch
    sensing through a :class:`repro.federation.FederatedSensor` instead
    of a single engine; results are bit-identical either way, so — like
    the other work-shaping knobs — it travels as an environment variable
    rather than a cache key.  Unset or invalid → 1 (single engine).
    """
    return max(1, _env_int("REPRO_SHARDS", 1))


def sketch_overrides() -> dict:
    """Sketch pre-stage knobs from the environment, as config overrides.

    ``REPRO_SKETCH=1`` enables the probabilistic pre-select stage for
    every experiment-built :class:`SensorConfig`;
    ``REPRO_SKETCH_WIDTH`` / ``REPRO_SKETCH_DEPTH`` /
    ``REPRO_SKETCH_HLL_PRECISION`` tune its geometry.  Like
    ``REPRO_SHARDS``, these travel as environment variables because the
    experiment caches are keyed by dataset, not by knob.
    Unset (or ``REPRO_SKETCH`` falsy) → no overrides.
    """
    if os.environ.get("REPRO_SKETCH", "").lower() not in ("1", "true", "yes", "on"):
        return {}
    return {
        "sketch_enabled": True,
        "sketch_width": _env_int("REPRO_SKETCH_WIDTH", 4096),
        "sketch_depth": _env_int("REPRO_SKETCH_DEPTH", 4),
        "hll_precision": _env_int("REPRO_SKETCH_HLL_PRECISION", 6),
    }


def labeled_features(name: str, preset: str = "default") -> LabeledFeatures:
    """Features of every analyzable originator, labeled with true classes.

    Used for Table III-style evaluation: the expert ground truth in our
    reproduction is the actor record itself (curation via external
    sources is exercised separately by Table VI).
    """
    key = (name, preset)
    if key in _FEATURE_CACHE:
        return _FEATURE_CACHE[key]
    dataset = get_dataset(name, preset)
    config = sensor_config(name, preset)
    shards = federation_shards()
    # Replay the sensor log in columnar form: the block path is array
    # math end to end and bit-identical to per-object ingestion.  With
    # REPRO_SHARDS > 1 the same replay runs federated (also
    # bit-identical; see repro.federation).
    if shards > 1:
        from repro.federation import FederatedSensor

        with FederatedSensor(
            dataset.directory(), config, n_shards=shards
        ) as federated:
            sensed = federated.process(
                dataset.sensor.log.block(),
                0.0,
                config.window_seconds,
                classify=False,
            )
            features = sensed[0].features
    else:
        engine = SensorEngine(dataset.directory(), config)
        sensed = engine.process(
            dataset.sensor.log.block(), 0.0, config.window_seconds, classify=False
        )
        features = sensed[0].features
    truth = dataset.true_classes()
    keep = np.array([int(o) in truth for o in features.originators], dtype=bool)
    names = [truth[int(o)] for o in features.originators[keep]]
    encoder = LabelEncoder(sorted(set(names)))
    bundle = LabeledFeatures(
        dataset=dataset,
        X=features.matrix[keep],
        y=encoder.encode(names),
        encoder=encoder,
        originators=features.originators[keep],
        footprints=features.footprints[keep],
    )
    _FEATURE_CACHE[key] = bundle
    return bundle


def windowed(name: str, preset: str = "default") -> WindowedAnalysis:
    """Memoized windowed (longitudinal) analysis of a long dataset."""
    key = (name, preset)
    if key in _WINDOW_CACHE:
        return _WINDOW_CACHE[key]
    dataset = get_dataset(name, preset)
    config = sensor_config(name, preset)
    window_days = config.window_days
    curation = CURATION_WINDOWS.get(name, (0,))
    total_windows = max(1, int(spec_for(name, preset).duration_days // window_days))
    curation = tuple(min(c, total_windows - 1) for c in curation)
    analysis = analyze_dataset(
        dataset,
        window_days=window_days,
        min_queriers=config.min_queriers,
        curation_windows=curation,
        per_class_cap=60,
        # Figs 5-7 (B-multi-year) only need features + the labeled set;
        # skipping per-window classification saves hundreds of RF fits.
        classify=name != "B-multi-year",
    )
    _WINDOW_CACHE[key] = analysis
    return analysis


@dataclass(slots=True)
class ClassifiedDataset:
    """One short dataset fully classified: the Figs 10 / Tables V inputs."""

    dataset: GeneratedDataset
    window: ObservationWindow
    features: FeatureSet
    labeled: LabeledSet
    classification: dict[int, str]


_CLASSIFIED_CACHE: dict[tuple[str, str], ClassifiedDataset] = {}


def classified(name: str, preset: str = "default") -> ClassifiedDataset:
    """Curate per § IV-B, train RF on the full ground truth, classify all.

    Matches the paper's Table V procedure: "our preferred classifier (RF)
    with per-dataset training over the entire ground-truth".
    """
    from repro.analysis.longitudinal import curate_from_window, slice_windows

    key = (name, preset)
    if key in _CLASSIFIED_CACHE:
        return _CLASSIFIED_CACHE[key]
    dataset = get_dataset(name, preset)
    # One window spanning the whole dataset (or the first week for the
    # 9-month sampled dataset, matching its d = 7 days).
    config = sensor_config(name, preset, majority_runs=5, seed=dataset.spec.seed + 5)
    window = slice_windows(dataset, config.window_days, config.min_queriers)[0]
    labeled = curate_from_window(
        dataset, window, per_class_cap=140, min_queriers=config.min_queriers
    )
    engine = SensorEngine(dataset.directory(), config)
    classification: dict[int, str] = {}
    present = labeled.restrict_to(window.originators())
    if len(present) >= 8 and len(present.classes_present()) >= 2:
        engine.fit(window.features, present)
        classification = engine.classify_map(window.features)
    bundle = ClassifiedDataset(
        dataset=dataset,
        window=window.observations,
        features=window.features,
        labeled=labeled,
        classification=classification,
    )
    _CLASSIFIED_CACHE[key] = bundle
    return bundle


def format_rows(headers: list[str], rows: list[list[object]]) -> str:
    """Plain-text table formatting for experiment printouts."""
    table = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
