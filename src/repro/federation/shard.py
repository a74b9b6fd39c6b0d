"""Shard-side worker: one originator partition's full sensing pipeline.

A :class:`ShardWorker` owns a :class:`~repro.sensor.engine.SensorEngine`
configured with ``reorder_slack=0`` (the driver's
:class:`~repro.federation.partition.ReorderFront` resolves reordering
globally).  The shard fan-out is the sensor's one home for parallelism.
It exposes exactly the calls the driver's two-phase
window protocol needs:

1. **feed/close** — ingest released arrays, advance to the global
   watermark, and return a :class:`WindowSummary` per newly closed
   window: the shard's querier roster, AS set, and country-name set,
   which the driver unions into the merged
   :class:`~repro.sensor.dynamic.WindowContext`.  (Country *names* are
   exchanged, not the enrichment cache's interned codes — codes are
   cache-local and mean nothing across processes.)
2. **featurize** — select + featurize the stored partial window under
   the merged context the driver broadcasts back, returning the rows as
   :class:`ShardRows`.  Because every feature row depends only on its
   own observation plus the shared context, shard rows are bit-identical
   to the rows a single engine computes for the same originators.

Process fan-out: one single-worker fork-context executor per shard, the worker object inherited through
fork (never pickled), tasks shipping only flat arrays and index/context
tuples.  :class:`ShardPool` falls back to inline (same-process) workers
where fork is unavailable; results are identical either way.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.logstore import EntryBlock
from repro.sensor.collection import ObservationWindow
from repro.sensor.directory import EnrichmentCache, QuerierDirectory
from repro.sensor.dynamic import WindowContext
from repro.sensor.engine import SensorConfig, SensorEngine
from repro.sensor.features import features_from_selected
from repro.sensor.selection import analyzable

__all__ = ["WindowSummary", "ShardRows", "ShardWorker", "ShardPool"]


@dataclass(slots=True)
class WindowSummary:
    """One shard's context contribution for one closed window."""

    index: int
    start: float
    end: float
    originators: int
    """Distinct originators materialized by this shard (partition-local)."""
    addrs: np.ndarray
    """Sorted distinct querier addresses this shard saw in the window."""
    asns: np.ndarray
    """Sorted distinct known ASNs over those addresses."""
    countries: list[str] = field(default_factory=list)
    """Sorted distinct country names over those addresses."""
    sketch_seen: int = 0
    """``prestage.originators_seen`` (0 when running exact)."""


@dataclass(slots=True)
class ShardRows:
    """One shard's featurize output for one window."""

    shard: int
    index: int
    originators: np.ndarray
    matrix: np.ndarray
    footprints: np.ndarray
    select_in: int
    select_out: int
    rows: int
    seconds: float
    sketch: dict | None = None


class ShardWorker:
    """The per-shard pipeline: window/dedup/sketch + context partials + rows."""

    def __init__(
        self,
        shard_id: int,
        directory: QuerierDirectory,
        config: SensorConfig,
    ) -> None:
        self.shard_id = shard_id
        self.config = config.replaced(reorder_slack=0.0)
        # One persistent enrichment cache per shard: context partials and
        # featurize share lookups, exactly like a single engine's
        # per-window cache (enrichment is deterministic per address, so
        # cache locality never changes feature values).
        self.directory = EnrichmentCache.ensure(directory)
        self.engine = SensorEngine(self.directory, self.config)
        self._windows: dict[int, ObservationWindow] = {}

    # -- batch ----------------------------------------------------------

    def run_batch(
        self,
        timestamps: np.ndarray,
        queriers: np.ndarray,
        originators: np.ndarray,
        start: float,
        end: float,
        width: float,
    ) -> tuple[list[WindowSummary], int, float]:
        """Window this shard's slice of a batch span.

        Returns the summaries of traffic-bearing windows, the
        window-stage drop delta (dedup + sketch-gated events), and the
        worker-side wall time.
        """
        started = time.perf_counter()
        block = EntryBlock.from_arrays(timestamps, queriers, originators)
        dropped_before = self.engine.stats["window"].dropped
        windows = self.engine.windows(block, start, end, window_seconds=width)
        dropped_delta = self.engine.stats["window"].dropped - dropped_before
        summaries = []
        for index, window in enumerate(windows):
            summary = self._store(index, window)
            if summary is not None:
                summaries.append(summary)
        return summaries, dropped_delta, time.perf_counter() - started

    # -- streaming ------------------------------------------------------

    def feed_and_advance(
        self,
        timestamps: np.ndarray | None,
        queriers: np.ndarray | None,
        originators: np.ndarray | None,
        watermark: float | None,
    ) -> tuple[list[WindowSummary], int, float]:
        """Ingest released arrays, then close windows at the global watermark.

        Returns newly closed window summaries, the shard collector's
        cumulative dedup count, and the worker-side wall time.
        """
        started = time.perf_counter()
        collector = self.engine.collector
        if timestamps is not None and len(timestamps):
            collector.ingest_arrays(timestamps, queriers, originators)
        if watermark is not None:
            collector.advance_watermark(watermark)
        summaries = self._store_completed(collector.completed_windows())
        return summaries, collector.stats.deduplicated, time.perf_counter() - started

    def finish(self) -> tuple[list[WindowSummary], int, float]:
        """End of stream: flush still-open windows."""
        started = time.perf_counter()
        collector = self.engine.collector
        summaries = self._store_completed(collector.flush())
        return summaries, collector.stats.deduplicated, time.perf_counter() - started

    # -- featurize ------------------------------------------------------

    def featurize_window(
        self, index: int, context_fields: tuple[float, float, int, int, int]
    ) -> ShardRows:
        """Select + featurize a stored window under the merged context."""
        started = time.perf_counter()
        window = self._windows.pop(index)
        context = WindowContext(*context_fields)
        selected = analyzable(window, self.config.min_queriers)
        prestage = window.prestage
        items_in = len(window) if prestage is None else prestage.originators_seen
        features = features_from_selected(
            window, selected, self.directory, context=context
        )
        sketch = None
        if prestage is not None:
            sketch = {
                "originators_seen": prestage.originators_seen,
                "gate_kept": prestage.gate_kept,
                "gate_dropped": prestage.gate_dropped,
                "events_unique": prestage.events_unique,
                "events_duplicate": prestage.events_duplicate,
                "events_deferred": prestage.events_deferred,
                "resolver_wholesale": prestage.resolver_wholesale,
                "resolver_replayed": prestage.resolver_replayed,
            }
        return ShardRows(
            shard=self.shard_id,
            index=index,
            originators=features.originators,
            matrix=features.matrix,
            footprints=features.footprints,
            select_in=items_in,
            select_out=len(selected),
            rows=len(features),
            seconds=time.perf_counter() - started,
            sketch=sketch,
        )

    # -- internals ------------------------------------------------------

    def _store_completed(
        self, completed: list[ObservationWindow]
    ) -> list[WindowSummary]:
        origin = self.config.origin
        width = self.config.window_seconds
        summaries = []
        for window in completed:
            index = int(round((window.start - origin) / width))
            summary = self._store(index, window)
            if summary is not None:
                summaries.append(summary)
        return summaries

    def _store(self, index: int, window: ObservationWindow) -> WindowSummary | None:
        """Keep a window for the featurize phase; summarize its context.

        Windows with neither observations nor a pre-stage contribute
        nothing to any stage and are skipped (the driver gap-fills).
        """
        if len(window) == 0 and window.prestage is None:
            return None
        self._windows[index] = window
        addrs, asns, countries = self._context_partial(window)
        return WindowSummary(
            index=index,
            start=window.start,
            end=window.end,
            originators=len(window),
            addrs=addrs,
            asns=asns,
            countries=countries,
            sketch_seen=(
                window.prestage.originators_seen if window.prestage is not None else 0
            ),
        )

    def _context_partial(
        self, window: ObservationWindow
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        if window.querier_roster is not None:
            addrs = np.asarray(window.querier_roster, dtype=np.int64)
        else:
            queriers: set[int] = set()
            for observation in window.observations.values():
                queriers |= observation.unique_queriers
            addrs = np.fromiter(queriers, np.int64, len(queriers))
            addrs.sort()
        if addrs.size == 0:
            return addrs, np.empty(0, dtype=np.int64), []
        _, asns, country_codes = self.directory.codes(addrs)
        known_asns = np.unique(asns[asns >= 0])
        names = sorted(
            set(self.directory.country_names(country_codes[country_codes >= 0]))
        )
        return addrs, known_asns, names


# -- process fan-out ------------------------------------------------------

#: The worker a forked shard process operates on, installed by the pool
#: initializer.  With the fork start method the worker object is
#: inherited copy-on-write — nothing heavy crosses the IPC pipe; task
#: payloads are flat arrays and small tuples.
_SHARD: ShardWorker | None = None


def _init_shard(worker: ShardWorker) -> None:
    global _SHARD
    _SHARD = worker


def _task_run_batch(args: tuple) -> tuple:
    assert _SHARD is not None
    return _SHARD.run_batch(*args)


def _task_feed_and_advance(args: tuple) -> tuple:
    assert _SHARD is not None
    return _SHARD.feed_and_advance(*args)


def _task_finish(args: tuple) -> tuple:
    assert _SHARD is not None
    del args
    return _SHARD.finish()


def _task_featurize(args: tuple) -> ShardRows:
    assert _SHARD is not None
    return _SHARD.featurize_window(*args)


_TASKS = {
    "run_batch": _task_run_batch,
    "feed_and_advance": _task_feed_and_advance,
    "finish": _task_finish,
    "featurize_window": _task_featurize,
}


class _Immediate:
    """Future-alike wrapping an already-computed inline result."""

    __slots__ = ("_value",)

    def __init__(self, value: object) -> None:
        self._value = value

    def result(self) -> object:
        return self._value


class ShardPool:
    """One single-worker process per shard, or inline workers without fork.

    Each shard gets its *own* executor so its worker state (collector,
    stored windows, enrichment cache) persists across tasks, and tasks
    for different shards run concurrently.  Submission order per shard
    is execution order (one worker per executor), which the driver's
    feed → close → featurize sequencing relies on.
    """

    def __init__(self, workers: Sequence[ShardWorker], processes: bool = True) -> None:
        self.workers = list(workers)
        self._executors: list[ProcessPoolExecutor] | None = None
        if processes:
            try:
                mp_context = multiprocessing.get_context("fork")
            except ValueError:
                mp_context = None
            if mp_context is not None:
                self._executors = [
                    ProcessPoolExecutor(
                        max_workers=1,
                        mp_context=mp_context,
                        initializer=_init_shard,
                        initargs=(worker,),
                    )
                    for worker in self.workers
                ]

    @property
    def inline(self) -> bool:
        """True when running shards in-process (no fork available/wanted)."""
        return self._executors is None

    def submit(self, shard: int, method: str, args: tuple) -> "Future | _Immediate":
        if self._executors is None:
            return _Immediate(getattr(self.workers[shard], method)(*args))
        return self._executors[shard].submit(_TASKS[method], args)

    def close(self) -> None:
        if self._executors is not None:
            for executor in self._executors:
                executor.shutdown()
            self._executors = None
