"""The staged sensing engine: one canonical ingestion path (Figure 2).

The paper's sensor is a single conceptual pipeline — authority log →
30 s dedup + windowing → analyzable-originator selection → static/
dynamic features → classifier — and this module is where that pipeline
lives.  Everything the repo senses (the CLI, the experiment harness, the
longitudinal analyses, the examples) routes through here, in batch or
streaming form, so sensing semantics are defined exactly once.

Stages, mapped to the paper:

========== ============================================================
ingest     § III-A — accept (timestamp, querier, originator) tuples,
           validate ordering / drop strictly-late arrivals and
           non-finite timestamps
window     § III-A/B — 30 s per-(querier, originator) dedup + grouping
           into observation intervals (:class:`StreamingCollector`'s
           columnar core is the single implementation; object input is
           converted to an :class:`~repro.logstore.EntryBlock` at the
           API boundary)
select     § III-B — keep analyzable originators (>= ``min_queriers``
           unique queriers)
featurize  § III-C/D — the 14 static + 8 dynamic features per selected
           originator
classify   § III-D/E — majority-vote classification with the configured
           learner over a curated labeled set
========== ============================================================

Every stage records :class:`StageStats` (items in/out, dropped, wall
time), so an engine run can report exactly where volume and time went —
the baseline that later sharding/batching/caching PRs measure against.
All stage timing flows through :mod:`repro.telemetry` spans: each
stage's wall time is measured exactly once (feeding entries is *ingest*
time, closing/assembling windows is *window* time, and so on), so the
per-stage seconds sum to approximately the run's wall time.  When a
:class:`~repro.telemetry.MetricsRegistry` is installed — passed to the
engine or ambient via :func:`repro.telemetry.install` — the same spans
also emit ``repro_stage_seconds`` histograms, ``repro_stage_items_total``
counters, per-window ``repro_window_seconds`` timings, and the
streaming-collector drop/reorder counters; with none installed the
instrumentation is a near-no-op.

Configuration that used to be scattered across call sites (window
length, dedup horizon, reorder slack, analyzability threshold, majority
runs, classifier factory) is gathered into one frozen
:class:`SensorConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np

from repro.dnssim.message import QueryLogEntry
from repro.logstore import EntryBlock
from repro.ml.forest import ForestConfig, RandomForestClassifier
from repro.ml.validation import Classifier, LabelEncoder, majority_vote_predict
from repro.sensor.collection import DEDUP_WINDOW_SECONDS, ObservationWindow
from repro.sensor.curation import LabeledSet
from repro.sensor.directory import QuerierDirectory
from repro.sensor.dynamic import WindowContext
from repro.sensor.features import FeatureSet, features_from_selected
from repro.sensor.selection import ANALYZABLE_THRESHOLD, analyzable
from repro.sensor.streaming import StreamingCollector, StreamingStats
from repro.sketch.prestage import SketchParams, SketchPreStage
from repro.telemetry import (
    MetricsRegistry,
    count,
    get_registry,
    observe,
    set_gauge,
    span,
    use_registry,
)

__all__ = [
    "SECONDS_PER_DAY",
    "STAGE_NAMES",
    "SensorConfig",
    "StageStats",
    "SensedWindow",
    "SensorEngine",
    "ClassifiedOriginator",
    "default_forest_factory",
]

SECONDS_PER_DAY = 86400.0

STAGE_NAMES: tuple[str, ...] = ("ingest", "window", "select", "featurize", "classify")


def default_forest_factory(seed: int) -> RandomForestClassifier:
    """The paper's preferred classifier (RF wins Table III)."""
    return RandomForestClassifier(ForestConfig(n_trees=60), seed=seed)


@dataclass(frozen=True, slots=True)
class SensorConfig:
    """Everything that parameterizes one sensor deployment, in one place.

    Previously these knobs were repeated as loose kwargs and module
    constants across the CLI, the experiment cache-builders, and the
    longitudinal analyses; a frozen config makes a deployment's
    semantics explicit and hashable-by-eye.
    """

    window_seconds: float = 7 * SECONDS_PER_DAY
    """Observation interval length (§ III-B's d; the paper uses 1-7 days)."""
    origin: float = 0.0
    """Timestamp where window 0 begins."""
    dedup_window: float = DEDUP_WINDOW_SECONDS
    """Per-(querier, originator) duplicate suppression horizon (§ III-A)."""
    reorder_slack: float = 2.0
    """Accepted input disorder; later arrivals are dropped as late."""
    min_queriers: int = ANALYZABLE_THRESHOLD
    """Analyzability threshold (§ III-B; 20 at Internet scale)."""
    majority_runs: int = 10
    """Stochastic-classifier reruns per prediction (§ III-D; paper uses 10)."""
    classifier_factory: Callable[[int], Classifier] = default_forest_factory
    """Builds a classifier from a seed; defaults to the paper's RF."""
    seed: int = 0
    """Base seed for the majority-vote classifier runs."""
    sketch_enabled: bool = False
    """Run the probabilistic pre-select stage (:mod:`repro.sketch`).

    Batch paths gate originators on an HLL unique-querier estimate and
    materialize exact observations for survivors only (two passes —
    survivor features are bit-identical to the exact path); the
    streaming path promotes originators to exact state once their
    estimate reaches the promote threshold (single pass).
    """
    sketch_width: int = 4096
    """Count-min sketch columns per row (per-originator query counts)."""
    sketch_depth: int = 4
    """Count-min sketch rows (independent hash functions)."""
    hll_precision: int = 6
    """HyperLogLog precision p — ``2^p`` registers per originator."""
    sketch_fp_rate: float = 0.01
    """Dedup Bloom filter false-positive budget at ``sketch_capacity``."""
    sketch_capacity: int = 1 << 20
    """Distinct (originator, querier, 30 s bucket) events the dedup
    filter is sized for."""
    sketch_margin: float = 0.5
    """One-sided error margin of the approximate gate: the HLL estimate
    is compared against ``(1 - margin) * min_queriers`` so that HLL
    underestimation cannot silently drop analyzable originators.  The
    exact ``min_queriers`` gate still applies at the select stage."""
    sketch_promote_queriers: int = 0
    """Streaming mode: estimate at which an originator starts
    materializing exact state.  0 = auto (``min(4, gate)``); an explicit
    value must not exceed the approximate gate threshold."""

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.dedup_window < 0:
            raise ValueError("dedup_window must be non-negative")
        if self.reorder_slack < 0:
            raise ValueError("reorder_slack must be non-negative")
        if self.min_queriers < 1:
            raise ValueError("min_queriers must be positive")
        if self.majority_runs < 1:
            raise ValueError("majority_runs must be positive")
        if self.sketch_width < 1:
            raise ValueError("sketch_width must be positive")
        if self.sketch_depth < 1:
            raise ValueError("sketch_depth must be positive")
        if not 4 <= self.hll_precision <= 16:
            raise ValueError("hll_precision must be in [4, 16]")
        if not 0.0 < self.sketch_fp_rate < 1.0:
            raise ValueError("sketch_fp_rate must be in (0, 1)")
        if self.sketch_capacity < 1:
            raise ValueError("sketch_capacity must be positive")
        if not 0.0 <= self.sketch_margin < 1.0:
            raise ValueError("sketch_margin must be in [0, 1)")
        if self.sketch_promote_queriers < 0:
            raise ValueError("sketch_promote_queriers must be non-negative (0 = auto)")
        if (
            self.sketch_promote_queriers > 0
            and self.sketch_promote_queriers > self.sketch_gate_queriers
        ):
            raise ValueError(
                "sketch_promote_queriers must not exceed the approximate gate "
                f"threshold ({self.sketch_gate_queriers})"
            )

    @property
    def window_days(self) -> float:
        return self.window_seconds / SECONDS_PER_DAY

    @property
    def sketch_gate_queriers(self) -> int:
        """The approximate gate threshold the HLL estimate is held to."""
        return max(1, math.ceil((1.0 - self.sketch_margin) * self.min_queriers))

    def sketch_params(self) -> SketchParams:
        """The :class:`~repro.sketch.prestage.SketchParams` this config implies."""
        gate = self.sketch_gate_queriers
        promote = self.sketch_promote_queriers or min(4, gate)
        return SketchParams(
            width=self.sketch_width,
            depth=self.sketch_depth,
            hll_precision=self.hll_precision,
            fp_rate=self.sketch_fp_rate,
            capacity=self.sketch_capacity,
            gate_queriers=gate,
            promote_queriers=promote,
            dedup_seconds=self.dedup_window,
            seed=self.seed,
        )

    def replaced(self, **overrides: object) -> "SensorConfig":
        """A copy with the given fields overridden (validated again)."""
        return replace(self, **overrides)  # type: ignore[arg-type]


@dataclass(slots=True)
class StageStats:
    """Accounting for one engine stage."""

    name: str
    items_in: int = 0
    items_out: int = 0
    dropped: int = 0
    seconds: float = 0.0


@dataclass(frozen=True, slots=True)
class ClassifiedOriginator:
    """One classify-stage verdict."""

    originator: int
    app_class: str
    footprint: int


@dataclass(slots=True)
class SensedWindow:
    """One observation interval after every engine stage that applies."""

    window: ObservationWindow
    features: FeatureSet | None = None
    verdicts: list[ClassifiedOriginator] = field(default_factory=list)
    telemetry: dict[str, object] | None = None
    """Per-window observability snapshot, attached by the engine.

    Keys: ``window_start`` / ``window_end``, per-stage counts
    (``originators``, ``selected``, ``featurized``, ``verdicts``) and a
    ``seconds`` dict with this window's select/featurize/classify wall
    times plus ``total``.  Always populated (it reads span wall times,
    which are measured whether or not a metrics registry is installed).
    """

    @property
    def classification(self) -> dict[int, str]:
        return {v.originator: v.app_class for v in self.verdicts}


class SensorEngine:
    """Staged sensor: ingest → window/dedup → select → featurize → classify.

    One engine instance is one sensor deployment: a
    :class:`QuerierDirectory` (metadata for the featurize stage; may be
    omitted when only windowing is needed), a :class:`SensorConfig`, and
    — after :meth:`fit` — a trained classify stage.

    Batch and streaming are the same pipeline.  Batch calls
    (:meth:`process`, :meth:`windows`, :meth:`collect`) run a whole
    time-ordered log through a fresh collector; streaming calls
    (:meth:`ingest_block`, :meth:`poll`, :meth:`finish`) feed a
    persistent one and hand back windows as the watermark closes them.
    Both paths run :class:`~repro.sensor.streaming.StreamingCollector`'s
    columnar core — object input becomes an
    :class:`~repro.logstore.EntryBlock` on the way in — and record
    per-stage :class:`StageStats` (see :meth:`accounting`).
    """

    def __init__(
        self,
        directory: QuerierDirectory | None = None,
        config: SensorConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.directory = directory
        self.config = config or SensorConfig()
        self.registry = registry
        self.stats: dict[str, StageStats] = {
            name: StageStats(name) for name in STAGE_NAMES
        }
        self.encoder = LabelEncoder()
        self._train_X: np.ndarray | None = None
        self._train_y: np.ndarray | None = None
        self._collector: StreamingCollector | None = None
        self._absorbed = StreamingStats()
        self._window_callbacks: list[Callable[[SensedWindow], None]] = []

    # -- window-close hooks ---------------------------------------------

    def on_window(
        self, callback: Callable[[SensedWindow], None]
    ) -> Callable[[], None]:
        """Register a hook invoked with each streaming-sensed window.

        The supported way for long-running callers (the service, the CLI
        stream report) to observe window closes without polling return
        values or reaching into collector internals.  Callbacks fire
        once per :class:`SensedWindow`, in emission order, after the
        window has run through every applicable stage — from inside
        :meth:`poll` / :meth:`finish` on the streaming path.  Exceptions
        propagate to the poller.  Returns an unsubscribe callable.
        """
        self._window_callbacks.append(callback)

        def unsubscribe() -> None:
            try:
                self._window_callbacks.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    def _notify_window(self, sensed: SensedWindow) -> None:
        for callback in list(self._window_callbacks):
            callback(sensed)

    # -- telemetry ------------------------------------------------------

    def _scope(self):
        """Ambient-registry scope for one engine operation.

        Makes an explicitly-passed registry visible to the instrumented
        internals (enrichment cache, classifier)
        without widening their signatures; with ``registry=None`` the
        scope keeps whatever is ambient (possibly nothing).
        """
        return use_registry(self.registry)

    def _record_stage(
        self,
        name: str,
        items_in: int = 0,
        items_out: int = 0,
        dropped: int = 0,
        seconds: float = 0.0,
    ) -> None:
        """Fold one unit of stage work into StageStats + metrics.

        StageStats always updates; the metric emissions no-op unless a
        registry is in scope.
        """
        stage = self.stats[name]
        stage.items_in += items_in
        stage.items_out += items_out
        stage.dropped += dropped
        stage.seconds += seconds
        if get_registry() is None:
            return
        help_items = "Items through each sensing stage, by direction."
        count("repro_stage_items_total", items_in,
              help=help_items, stage=name, direction="in")
        count("repro_stage_items_total", items_out,
              help=help_items, stage=name, direction="out")
        count("repro_stage_items_total", dropped,
              help=help_items, stage=name, direction="dropped")
        if seconds > 0.0:
            observe("repro_stage_seconds", seconds,
                    help="Wall time per unit of stage work.", stage=name)

    def _emit_sketch_metrics(self, prestage, selected) -> None:
        """Publish one window's pre-stage counters (registry in scope)."""
        help_gate = "Originators through the approximate analyzability gate."
        count("repro_sketch_gate_originators_total", prestage.gate_kept,
              help=help_gate, result="kept")
        count("repro_sketch_gate_originators_total", prestage.gate_dropped,
              help=help_gate, result="dropped")
        help_events = "Events through the sketch pre-stage, by outcome."
        count("repro_sketch_events_total", prestage.events_unique,
              help=help_events, result="unique")
        count("repro_sketch_events_total", prestage.events_duplicate,
              help=help_events, result="duplicate")
        count("repro_sketch_events_total", prestage.events_deferred,
              help=help_events, result="deferred")
        help_resolver = ("Streaming promotion-resolver outcomes per "
                         "(originator, chunk), vectorized path only.")
        count("repro_sketch_resolver_originators_total", prestage.resolver_wholesale,
              help=help_resolver, outcome="wholesale")
        count("repro_sketch_resolver_originators_total", prestage.resolver_replayed,
              help=help_resolver, outcome="replayed")
        for structure, nbytes in prestage.memory_bytes().items():
            set_gauge("repro_sketch_memory_bytes", nbytes,
                      help="Bytes held by each pre-stage structure.",
                      structure=structure)
        if prestage.exact_observations and selected:
            # Batch mode: survivors carry exact footprints, so the HLL's
            # relative estimate error is directly measurable.
            errors = prestage.error_against(
                {o.originator: o.footprint for o in selected}
            )
            for error in errors:
                observe("repro_sketch_estimate_error", float(error),
                        help="Relative HLL unique-querier estimate error "
                        "over exactly-materialized originators.")

    # -- ingest + window/dedup (streaming) ------------------------------

    @property
    def collector(self) -> StreamingCollector:
        """The persistent streaming collector (created on first use)."""
        if self._collector is None:
            self._collector = self._new_collector(self.config.origin)
        return self._collector

    def _new_collector(self, origin: float) -> StreamingCollector:
        factory = None
        if self.config.sketch_enabled:
            params = self.config.sketch_params()
            factory = lambda: SketchPreStage(params)  # noqa: E731
        return StreamingCollector(
            window_seconds=self.config.window_seconds,
            origin=origin,
            dedup_window=self.config.dedup_window,
            reorder_slack=self.config.reorder_slack,
            prestage_factory=factory,
        )

    def ingest_block(self, block: EntryBlock) -> None:
        """Feed one columnar block of live entries (streaming path).

        Feed time — validation, dedup, and windowing work triggered by
        the block's arrival — is ingest-stage time; window-stage time is
        only accrued when windows are closed (:meth:`poll` /
        :meth:`finish`), so no wall second is counted twice.
        """
        with self._scope():
            with span("stage.ingest") as sp:
                self.collector.ingest_block(block)
            self.stats["ingest"].seconds += sp.elapsed
            self._emit_block_metrics(block, path="stream")

    def ingest_many(self, entries: Iterable[QueryLogEntry]) -> None:
        """Feed a chunk of live entry objects (streaming path), as one block."""
        self.ingest_block(EntryBlock.from_entries(entries))

    def _emit_block_metrics(self, block: EntryBlock, path: str) -> None:
        """Publish ``repro_ingest_*`` block telemetry (registry in scope)."""
        if get_registry() is None:
            return
        count("repro_ingest_blocks_total", 1,
              help="Columnar blocks fed to the ingest plane.", path=path)
        count("repro_ingest_block_events_total", len(block),
              help="Events ingested via columnar blocks.", path=path)
        set_gauge("repro_ingest_block_bytes", block.nbytes,
                  help="Bytes in the most recently ingested block.", path=path)

    def poll(self, classify: bool | None = None) -> list[SensedWindow]:
        """Windows the watermark has closed since the last poll.

        Each is run through select/featurize (and classify, when the
        engine :attr:`is_fitted` or *classify* is forced true).
        """
        with self._scope():
            with span("stage.window") as sp:
                completed = self.collector.completed_windows()
            self.stats["window"].seconds += sp.elapsed
            if get_registry() is not None:
                set_gauge(
                    "repro_stream_pending_entries",
                    self.collector.pending_entries,
                    help="Entries buffered awaiting the reorder watermark.",
                )
                set_gauge(
                    "repro_stream_pending_windows",
                    self.collector.pending_windows,
                    help="Observation windows still open at the collector.",
                )
            sensed = [self._sense(window, classify) for window in completed]
            for item in sensed:
                self._notify_window(item)
            return sensed

    def finish(self, classify: bool | None = None) -> list[SensedWindow]:
        """End of stream: flush still-open windows and sense them."""
        with self._scope():
            with span("stage.window") as sp:
                flushed = self.collector.flush()
            self.stats["window"].seconds += sp.elapsed
            sensed = [self._sense(window, classify) for window in flushed]
            for item in sensed:
                self._notify_window(item)
            return sensed

    def _absorb_collector_stats(self) -> None:
        """Fold collector counters into the ingest/window stage stats."""
        current = self.collector.stats if self._collector is not None else None
        if current is None:
            return
        delta = StreamingStats(
            ingested=current.ingested - self._absorbed.ingested,
            deduplicated=current.deduplicated - self._absorbed.deduplicated,
            late_dropped=current.late_dropped - self._absorbed.late_dropped,
            reordered=current.reordered - self._absorbed.reordered,
            windows_emitted=current.windows_emitted - self._absorbed.windows_emitted,
            rejected=current.rejected - self._absorbed.rejected,
        )
        self._absorbed = replace(current)
        dropped = delta.late_dropped + delta.rejected
        accepted = delta.ingested - dropped
        self._record_stage(
            "ingest",
            items_in=delta.ingested,
            items_out=accepted,
            dropped=dropped,
        )
        self._record_stage(
            "window",
            items_in=accepted,
            items_out=delta.windows_emitted,
            dropped=delta.deduplicated,
        )
        if get_registry() is not None:
            count("repro_stream_late_dropped_total", delta.late_dropped,
                  help="Entries dropped as later than the reorder slack.")
            count("repro_stream_rejected_total", delta.rejected,
                  help="Entries rejected for a non-finite timestamp.")
            count("repro_stream_deduplicated_total", delta.deduplicated,
                  help="Entries suppressed by the 30s per-pair dedup.")
            count("repro_stream_reordered_total", delta.reordered,
                  help="Out-of-order entries accepted within the reorder slack.")
            count("repro_stream_windows_total", delta.windows_emitted,
                  help="Observation windows emitted by the collector.")

    # -- batch adapters -------------------------------------------------

    @staticmethod
    def _block_in_range(block: EntryBlock, start: float, end: float) -> EntryBlock:
        """In-range sub-block, order-validated before any state is built.

        Only the entries inside ``[start, end)`` must be time-ordered,
        and a failed validation raises before the collector sees
        anything.
        """
        sub = block.slice_time(start, end)
        if not sub.is_sorted:
            raise ValueError("entries are not time-ordered")
        return sub

    def windows(
        self,
        entries: Iterable[QueryLogEntry] | EntryBlock,
        start: float,
        end: float,
        window_seconds: float | None = None,
    ) -> list[ObservationWindow]:
        """Slice a time-ordered log into consecutive observation windows.

        Covers ``[start, end)`` with windows of ``window_seconds``
        (default: the config's), aligned to *start*; the final window is
        clipped to *end* and intervals without traffic still yield empty
        windows, so indexes are contiguous — what the longitudinal
        analyses expect.  Out-of-order input raises (batch logs are
        append-ordered); use the streaming path for live reordering.

        *entries* may be an :class:`~repro.logstore.EntryBlock` or any
        iterable of :class:`QueryLogEntry`, which is converted to one
        (as ingest-stage time) before the pipeline runs as array math:
        searchsorted range slicing, vectorized dedup, observations
        extended from column slices.

        In sketch mode (``config.sketch_enabled``) an approximate gate
        runs first: every in-range event streams through one
        window-scoped :class:`~repro.sketch.prestage.SketchPreStage`
        (select-stage time — it *is* the approximate select), and only
        gate-survivor events reach the exact collector, so survivor
        observations — and their feature rows — are bit-identical to the
        exact path.  Gated-out events are window-stage drops.
        """
        if end <= start:
            raise ValueError("end must be after start")
        width = self.config.window_seconds if window_seconds is None else window_seconds
        if width <= 0:
            raise ValueError("window_seconds must be positive")
        sketch = self.config.sketch_enabled
        collector = StreamingCollector(
            window_seconds=width,
            origin=start,
            dedup_window=self.config.dedup_window,
            reorder_slack=0.0,
        )
        prestages: dict[int, SketchPreStage] = {}
        gated_events = 0
        with self._scope():
            # Feeding entries (validation + dedup as they arrive) is
            # ingest time; closing and assembling windows is window
            # time — each wall second lands in exactly one stage.
            with span("stage.ingest") as ingest_span:
                block = (
                    entries if isinstance(entries, EntryBlock)
                    else EntryBlock.from_entries(entries)
                )
                ingested = len(block)
                sub = self._block_in_range(block, start, end)
                self._emit_block_metrics(sub, path="batch")
                if not sketch:
                    collector.ingest_block(sub)
            accepted = len(sub)
            if sketch:
                with span("stage.select") as select_span:
                    survivors, prestages = self._sketch_gate(sub, start, width)
                gated_events = accepted - int(np.count_nonzero(survivors))
                # Item accounting for the select stage happens per window
                # at featurize time (where the exact gate also runs);
                # the approximate gate contributes its wall time here.
                self._record_stage("select", seconds=select_span.elapsed)
            with span("stage.window") as window_span:
                if sketch:
                    collector.ingest_arrays(
                        sub.timestamps[survivors],
                        sub.queriers[survivors],
                        sub.originators[survivors],
                    )
                emitted = {
                    self._index_of(window.start, start, width): window
                    for window in collector.flush()
                }
                windows: list[ObservationWindow] = []
                index = 0
                window_start = start
                while window_start < end:
                    window_end = min(window_start + width, end)
                    window = emitted.get(
                        index, ObservationWindow(start=window_start, end=window_end)
                    )
                    window.end = window_end
                    prestage = prestages.get(index)
                    if prestage is not None:
                        window.prestage = prestage
                        window.querier_roster = prestage.roster_array()
                    windows.append(window)
                    index += 1
                    window_start = window_start + width
            self._record_stage(
                "ingest",
                items_in=ingested,
                items_out=accepted,
                dropped=ingested - accepted,
                seconds=ingest_span.elapsed,
            )
            self._record_stage(
                "window",
                items_in=accepted,
                items_out=len(windows),
                dropped=collector.stats.deduplicated + gated_events,
                seconds=window_span.elapsed,
            )
            if sketch and get_registry() is not None:
                count(
                    "repro_sketch_events_total", gated_events,
                    help="Events through the sketch pre-stage, by outcome.",
                    result="gated",
                )
        return windows

    def _sketch_gate(
        self, block: EntryBlock, start: float, width: float
    ) -> tuple[np.ndarray, dict[int, SketchPreStage]]:
        """Sketch mode's approximate gate over a time-ordered block.

        Returns the survivor mask over *block* and the batch-mode
        pre-stage of each non-empty window, keyed by window index.
        """
        params = self.config.sketch_params()
        timestamps = block.timestamps
        queriers = block.queriers
        originators = block.originators
        # Entries are time-ordered, so window indices are non-decreasing
        # and each window is a contiguous slice.
        indices = ((timestamps - start) // width).astype(np.int64)
        uniq, bounds = np.unique(indices, return_index=True)
        bounds = np.append(bounds, len(block))
        prestages: dict[int, SketchPreStage] = {}
        survivors = np.zeros(len(block), dtype=bool)
        for k, window_index in enumerate(uniq.tolist()):
            lo, hi = int(bounds[k]), int(bounds[k + 1])
            prestage = SketchPreStage(params)
            prestage.exact_observations = True
            prestage.observe_batch(
                timestamps[lo:hi], queriers[lo:hi], originators[lo:hi]
            )
            prestages[window_index] = prestage
            survivors[lo:hi] = np.isin(originators[lo:hi], prestage.survivors())
        return survivors, prestages

    @staticmethod
    def _index_of(window_start: float, origin: float, width: float) -> int:
        return int(round((window_start - origin) / width))

    def collect(
        self,
        entries: Iterable[QueryLogEntry] | EntryBlock,
        start: float,
        end: float,
    ) -> ObservationWindow:
        """One observation window spanning ``[start, end)`` (batch)."""
        return self.windows(entries, start, end, window_seconds=end - start)[0]

    # -- select + featurize ---------------------------------------------

    def featurize(
        self, window: ObservationWindow, context: WindowContext | None = None
    ) -> FeatureSet:
        """Select analyzable originators and extract their features.

        Vectorized over all rows with a window-scoped enrichment cache.
        Observations whose queriers all deduplicated away are skipped and
        accounted as featurize-stage drops rather than raising out of
        :meth:`poll`.

        An explicit *context* overrides the window-derived normalizers —
        the federated path passes the merged window's context so shard
        rows match a single engine's bit for bit.
        """
        if self.directory is None:
            raise RuntimeError("engine has no querier directory to featurize with")
        with self._scope():
            with span("stage.select") as select_span:
                selected = analyzable(window, self.config.min_queriers)
            prestage = window.prestage
            # With a pre-stage, the select stage saw every originator the
            # sketch summarized, not just the gate survivors the window
            # materialized — account for the approximately-gated ones too.
            items_in = len(window) if prestage is None else prestage.originators_seen
            self._record_stage(
                "select",
                items_in=items_in,
                items_out=len(selected),
                dropped=items_in - len(selected),
                seconds=select_span.elapsed,
            )
            if get_registry() is not None:
                help_select = "Originators through the select stage, by outcome."
                count("repro_select_originators_total", len(selected),
                      help=help_select, result="kept")
                count("repro_select_originators_total", items_in - len(selected),
                      help=help_select, result="dropped")
                if prestage is not None:
                    self._emit_sketch_metrics(prestage, selected)
            with span("stage.featurize") as featurize_span:
                features = features_from_selected(
                    window, selected, self.directory, context=context
                )
            self._record_stage(
                "featurize",
                items_in=len(selected),
                items_out=len(features),
                dropped=len(selected) - len(features),
                seconds=featurize_span.elapsed,
            )
        return features

    # -- classify -------------------------------------------------------

    def training_data(
        self, features: FeatureSet, labeled: LabeledSet
    ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Feature rows and encoded labels for labeled originators present."""
        rows: list[np.ndarray] = []
        labels: list[str] = []
        used: list[int] = []
        for example in labeled:
            row = features.row_of(example.originator)
            if row is None:
                continue
            rows.append(row)
            labels.append(example.app_class)
            used.append(example.originator)
        if not rows:
            raise ValueError("no labeled originators appear in the features")
        for name in labels:
            self.encoder.add(name)
        return np.stack(rows), self.encoder.encode(labels), used

    def fit(self, features: FeatureSet, labeled: LabeledSet) -> "SensorEngine":
        """Train the classify stage on the labeled originators present."""
        with self._scope(), span("classifier.fit"):
            X, y, _ = self.training_data(features, labeled)
            self._train_X = X
            self._train_y = y
        return self

    @property
    def is_fitted(self) -> bool:
        return self._train_X is not None

    def fit_from(self, other: "SensorEngine") -> "SensorEngine":
        """Adopt another engine's trained classify stage.

        Lets a streaming deployment reuse a classifier trained over a
        batch span (training data and label encoder are shared, not
        copied).
        """
        if not other.is_fitted:
            raise RuntimeError("source engine is not fitted")
        return self.adopt_training(other._train_X, other._train_y, other.encoder)

    def adopt_training(
        self, X: np.ndarray, y: np.ndarray, encoder: LabelEncoder
    ) -> "SensorEngine":
        """Install a prepared training set as the classify stage's model.

        The classify stage reads ``(X, y, encoder)`` as one unit per
        prediction, and this method replaces all three together — the
        hot-swap primitive the online-retraining service uses to refresh
        the model at a window boundary without any window ever seeing a
        half-installed model.  Callers must not mutate *X*/*y* after
        handing them over.
        """
        if len(X) == 0:
            raise ValueError("training set is empty")
        if len(X) != len(y):
            raise ValueError("X and y row counts differ")
        self._train_X = X
        self._train_y = y
        self.encoder = encoder
        return self

    def classify(self, features: FeatureSet) -> list[ClassifiedOriginator]:
        """Majority-vote classification of every originator in *features*."""
        if self._train_X is None or self._train_y is None:
            raise RuntimeError("engine is not fitted")
        if len(features) == 0:
            self._record_stage("classify")
            return []
        with self._scope():
            with span("stage.classify") as sp:
                votes = majority_vote_predict(
                    self.config.classifier_factory,
                    self._train_X,
                    self._train_y,
                    features.matrix,
                    runs=self.config.majority_runs,
                    seed=self.config.seed,
                )
                names = self.encoder.decode(votes)
                verdicts = [
                    ClassifiedOriginator(
                        originator=int(features.originators[i]),
                        app_class=names[i],
                        footprint=int(features.footprints[i]),
                    )
                    for i in range(len(features))
                ]
            self._record_stage(
                "classify",
                items_in=len(features),
                items_out=len(verdicts),
                seconds=sp.elapsed,
            )
        return verdicts

    def classify_map(self, features: FeatureSet) -> dict[int, str]:
        """Classification as an originator → class mapping."""
        return {c.originator: c.app_class for c in self.classify(features)}

    # -- end to end -----------------------------------------------------

    def _sense(
        self, window: ObservationWindow, classify: bool | None = None
    ) -> SensedWindow:
        run_classify = self.is_fitted if classify is None else classify
        sensed = SensedWindow(window=window)
        with self._scope():
            before = {
                name: self.stats[name].seconds
                for name in ("select", "featurize", "classify")
            }
            selected_before = self.stats["select"].items_out
            with span("window.sense") as sp:
                if self.directory is not None:
                    sensed.features = self.featurize(window)
                    if run_classify:
                        sensed.verdicts = self.classify(sensed.features)
            seconds = {
                name: self.stats[name].seconds - before[name] for name in before
            }
            seconds["total"] = sp.elapsed
            sensed.telemetry = {
                "window_start": window.start,
                "window_end": window.end,
                "originators": len(window),
                "selected": self.stats["select"].items_out - selected_before,
                "featurized": (
                    len(sensed.features) if sensed.features is not None else 0
                ),
                "verdicts": len(sensed.verdicts),
                "seconds": seconds,
            }
            if window.prestage is not None:
                prestage = window.prestage
                sensed.telemetry["sketch"] = {
                    "originators_seen": prestage.originators_seen,
                    "gate_kept": prestage.gate_kept,
                    "gate_dropped": prestage.gate_dropped,
                    "events_unique": prestage.events_unique,
                    "events_duplicate": prestage.events_duplicate,
                    "events_deferred": prestage.events_deferred,
                    "resolver_wholesale": prestage.resolver_wholesale,
                    "resolver_replayed": prestage.resolver_replayed,
                    "memory_bytes": prestage.memory_bytes(),
                }
            if get_registry() is not None:
                observe("repro_window_seconds", sp.elapsed,
                        help="Wall time to sense one observation window.")
                count("repro_windows_sensed_total", 1,
                      help="Observation windows run through select/featurize.")
        return sensed

    def process(
        self,
        entries: Iterable[QueryLogEntry] | EntryBlock,
        start: float,
        end: float,
        classify: bool | None = None,
    ) -> list[SensedWindow]:
        """Run a whole time-ordered log through every stage (batch).

        Slices ``[start, end)`` into config-width windows and runs each
        through select/featurize (and classify when fitted, or when
        *classify* is forced true).  Object input is converted to an
        :class:`~repro.logstore.EntryBlock` first (see :meth:`windows`).
        """
        with self._scope(), span("engine.run"):
            return [
                self._sense(window, classify)
                for window in self.windows(entries, start, end)
            ]

    # -- accounting -----------------------------------------------------

    def accounting(self) -> list[StageStats]:
        """Per-stage stats for everything this engine has processed."""
        with self._scope():
            self._absorb_collector_stats()
        return [self.stats[name] for name in STAGE_NAMES]

    def format_accounting(self) -> str:
        """The per-run accounting report, as an aligned text table."""
        rows = self.accounting()
        headers = ("stage", "in", "out", "dropped", "seconds")
        table = [headers] + [
            (s.name, f"{s.items_in:,}", f"{s.items_out:,}", f"{s.dropped:,}",
             f"{s.seconds:.3f}")
            for s in rows
        ]
        widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
        lines = []
        for index, row in enumerate(table):
            lines.append(
                "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
            )
            if index == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)
