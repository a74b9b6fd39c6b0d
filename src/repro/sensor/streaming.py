"""Streaming backscatter collection: the canonical windowing + dedup.

This module is the **single** windowing/dedup implementation of the
sensor.  Both sides of :class:`repro.sensor.engine.SensorEngine` — the
batch :meth:`~repro.sensor.engine.SensorEngine.windows` and the
streaming :meth:`~repro.sensor.engine.SensorEngine.ingest_block` — feed
one columnar core, :meth:`StreamingCollector.ingest_arrays`, so sensing
semantics are defined exactly once, here:

* **30 s dedup, scoped to the observation window** — repeats of the same
  (querier, originator) pair within ``dedup_window`` seconds of the last
  kept query are dropped (§ III-A's "eliminate duplicate queries from the
  same querier in a 30 s window").  Dedup state resets at window
  boundaries, so every :class:`~repro.sensor.collection.ObservationWindow`
  is a pure function of its own slice of the log.  A burst that straddles
  a boundary therefore starts a fresh dedup scope in the new window; the
  edge effect is at most one extra kept query per pair per boundary,
  negligible against day-to-week windows, and in exchange windows are
  reproducible and shardable in isolation.
* **bounded reordering** — entries may arrive up to ``reorder_slack``
  seconds behind the newest-seen timestamp (network capture reorders
  packets).  Accepted entries are buffered in a small timestamp-ordered
  heap and only processed once the watermark (newest timestamp minus
  slack) passes them, so the dedup/windowing core always sees a
  time-ordered stream.  Input whose disorder is bounded by the slack
  yields **identical** windows to a sorted batch pass; strictly-late
  entries are counted and dropped rather than corrupting closed windows.
* **bounded state** — dedup state lives per open window and is pruned as
  the watermark advances, so memory is O(active pairs + buffered slack),
  not O(log).
* **finite time only** — NaN/±inf timestamps are rejected on arrival
  (``stats.rejected``) before they can reach the high water, where a
  single ``inf`` would otherwise late-drop every later event.

These guarantees are enforced by the property tests in
``tests/test_engine.py`` and ``tests/test_ingest_block.py``, which pin
the columnar core against the per-entry reference in ``tests/oracles.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.logstore.ops import dedup_mask
from repro.sensor.collection import (
    DEDUP_WINDOW_SECONDS,
    ObservationWindow,
    extend_window_arrays,
)

if TYPE_CHECKING:
    from repro.logstore import EntryBlock
    from repro.sketch.prestage import SketchPreStage

__all__ = ["StreamingStats", "StreamingCollector"]


@dataclass(slots=True)
class StreamingStats:
    """Ingest accounting.

    ``reordered`` counts entries that arrived behind the newest-seen
    timestamp but within ``reorder_slack`` — accepted disorder, the
    reorder buffer's workload.  ``late_dropped`` counts entries beyond
    the slack, which are dropped.  ``rejected`` counts entries with a
    non-finite (NaN/±inf) timestamp, dropped before they touch the high
    water.  ``ingested`` counts every entry fed, so ``ingested -
    late_dropped - rejected`` were accepted.  The engine publishes these
    (plus dedup and window counts) as telemetry counters when a metrics
    registry is installed (``repro_stream_*_total``).
    """

    ingested: int = 0
    deduplicated: int = 0
    late_dropped: int = 0
    reordered: int = 0
    windows_emitted: int = 0
    rejected: int = 0


class StreamingCollector:
    """Online windowing + dedup over a (nearly) time-ordered entry feed.

    Parameters
    ----------
    window_seconds:
        Observation interval length; windows are aligned to multiples of
        this from ``origin``.
    origin:
        Timestamp where window 0 begins.
    dedup_window:
        Per-(querier, originator) duplicate suppression horizon.  Dedup
        state is scoped to the observation window (see module docstring).
    reorder_slack:
        How far behind the newest-seen timestamp an entry may arrive and
        still be accepted.  Accepted entries are re-ordered internally,
        so any input whose disorder is bounded by the slack produces the
        same windows as sorted input.  Entries later than the slack are
        dropped (counted in ``stats.late_dropped``); windows are only
        emitted once the watermark passes their end, so accepted
        reordering can never mutate an emitted window.
    on_window:
        Optional callback invoked with each completed window.
    prestage_factory:
        Optional factory building one
        :class:`~repro.sketch.prestage.SketchPreStage` per observation
        window (sketch mode, single-pass).  When set, the pre-stage
        replaces the exact dedup dict: every processed entry is first
        summarized, ``DUPLICATE`` verdicts are counted as deduplicated,
        ``DEFER`` verdicts are summarized but not materialized, and only
        ``KEEP`` verdicts (promoted originators) build exact
        observations.  Emitted windows carry the pre-stage and its exact
        querier roster (``window.prestage`` / ``window.querier_roster``).
    """

    def __init__(
        self,
        window_seconds: float,
        origin: float = 0.0,
        dedup_window: float = DEDUP_WINDOW_SECONDS,
        reorder_slack: float = 2.0,
        on_window: Callable[[ObservationWindow], None] | None = None,
        prestage_factory: "Callable[[], SketchPreStage] | None" = None,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if dedup_window < 0 or reorder_slack < 0:
            raise ValueError("dedup_window and reorder_slack must be non-negative")
        self.window_seconds = window_seconds
        self.origin = origin
        self.dedup_window = dedup_window
        self.reorder_slack = reorder_slack
        self.on_window = on_window
        self.stats = StreamingStats()
        self._high_water = float("-inf")
        self._emitted_through = origin
        # Reorder buffer: (timestamp, arrival seq, querier, originator),
        # popped in time order once the watermark passes the timestamp.
        # Arrival seq breaks timestamp ties, so equal-timestamp entries
        # always release in arrival order, whatever the chunking.
        self._pending: list[tuple[float, int, int, int]] = []
        self._seq = 0
        # Ingest count at the last dedup prune.  The prune cadence is a
        # high-water threshold on this delta (not a modulo on the total):
        # block ingest advances ``stats.ingested`` by chunk-sized jumps,
        # which can skip any particular modulo value indefinitely.
        self._pruned_at_ingested = 0
        # Dedup state for the window currently being filled (processing
        # is time-ordered, so only one window accumulates at a time).
        self._dedup_index: int | None = None
        self._last_kept: dict[tuple[int, int], float] = {}
        self._open: dict[int, ObservationWindow] = {}
        self._ready: list[ObservationWindow] = []
        self._prestage_factory = prestage_factory
        self._prestage: "SketchPreStage | None" = None

    # ------------------------------------------------------------------

    def _window_for(self, index: int) -> ObservationWindow:
        window = self._open.get(index)
        if window is None:
            window = ObservationWindow(
                start=self.origin + index * self.window_seconds,
                end=self.origin + (index + 1) * self.window_seconds,
            )
            self._open[index] = window
        return window

    def ingest_block(self, block: "EntryBlock") -> None:
        """Feed one columnar block through the vectorized ingest core."""
        self.ingest_arrays(block.timestamps, block.queriers, block.originators)

    def ingest_arrays(
        self,
        timestamps: np.ndarray,
        queriers: np.ndarray,
        originators: np.ndarray,
    ) -> None:
        """Feed one chunk of parallel columns; may close windows.

        Non-finite timestamps are rejected first.  Lateness/reorder
        accounting and watermark advancement are then array math over
        the chunk: an entry is late when it falls below the origin or
        more than ``reorder_slack`` behind the high water *before* it (a
        running max seeded with the pre-chunk high water), so any chunk
        split of the same stream accepts, drops, and counts the same
        entries.  Entries the watermark has not passed are parked in the
        reorder heap; :meth:`_release` processes the rest.
        """
        ts = np.ascontiguousarray(timestamps, dtype=np.float64)
        qs = np.ascontiguousarray(queriers, dtype=np.int64)
        os_ = np.ascontiguousarray(originators, dtype=np.int64)
        n = int(ts.size)
        self.stats.ingested += n
        if n == 0:
            return
        finite = np.isfinite(ts)
        n_rejected = n - int(np.count_nonzero(finite))
        if n_rejected:
            # Before the high-water math: a NaN poisons the running max
            # and an inf would pin the watermark at infinity.
            self.stats.rejected += n_rejected
            if n_rejected == n:
                return
            ts = ts[finite]
            qs = qs[finite]
            os_ = os_[finite]
            n = int(ts.size)
        # High water *before* each entry: running max shifted one, seeded
        # with the pre-chunk high water.  Late entries never update the
        # high water, and the running max is unaffected by including
        # them (anything below the watermark is below the max).
        prev_high = self._high_water
        running = np.maximum.accumulate(ts)
        high_before = np.empty(n, dtype=np.float64)
        high_before[0] = prev_high
        if n > 1:
            np.maximum(running[:-1], prev_high, out=high_before[1:])
        late = ts < self.origin
        late |= ts < high_before - self.reorder_slack
        n_late = int(np.count_nonzero(late))
        if n_late:
            self.stats.late_dropped += n_late
            if n_late == n:
                return
            accepted = ~late
            ts = ts[accepted]
            qs = qs[accepted]
            os_ = os_[accepted]
            high_before = high_before[accepted]
        self.stats.reordered += int(np.count_nonzero(ts < high_before))
        # running[-1] may include late entries, but a late entry can never
        # exceed the legitimate high water (slack-late is strictly below
        # it; below-origin values stay below origin, where no window end,
        # buffered entry, or dedup horizon can be affected).
        self._high_water = max(prev_high, float(running[-1]))
        watermark = self._high_water - self.reorder_slack
        fresh = None
        if self.reorder_slack == 0 and not self._pending:
            # In-order fast path: with zero slack every accepted entry is
            # released on arrival, and acceptance implies non-decreasing
            # timestamps, so arrival order *is* (timestamp, seq) order.
            self._process_arrays(ts, qs, os_)
        else:
            seqs = np.arange(self._seq, self._seq + ts.size, dtype=np.int64)
            self._seq += int(ts.size)
            releasable = ts <= watermark
            for i in np.flatnonzero(~releasable).tolist():
                heapq.heappush(
                    self._pending,
                    (float(ts[i]), int(seqs[i]), int(qs[i]), int(os_[i])),
                )
            fresh = (ts[releasable], seqs[releasable], qs[releasable], os_[releasable])
        self._release(watermark, fresh)

    def advance_watermark(self, timestamp: float) -> None:
        """Advance the watermark to *timestamp* without ingesting anything.

        Lets an external coordinator (e.g. the federation driver, which
        owns the global reorder front) close windows a global watermark
        has passed even when this collector's own feed went quiet.  The
        high water only moves forward; subsequent entries below the new
        watermark are late, exactly as if an event at *timestamp* had
        been ingested.
        """
        if timestamp > self._high_water:
            self._high_water = timestamp
        self._release(self._high_water - self.reorder_slack)

    # ------------------------------------------------------------------

    def _release(
        self,
        watermark: float,
        fresh: "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None" = None,
    ) -> None:
        """Process everything the watermark has passed, then emit windows.

        Drains buffered entries up to *watermark* from the reorder heap,
        merges them with *fresh* — the ``(timestamps, seqs, queriers,
        originators)`` columns of just-accepted entries that are already
        releasable — and processes the pool in (timestamp, arrival seq)
        order.
        """
        parts = [] if fresh is None else [fresh]
        drained = []
        while self._pending and self._pending[0][0] <= watermark:
            drained.append(heapq.heappop(self._pending))
        if drained:
            ts, seqs, qs, os_ = zip(*drained)
            parts.append((
                np.array(ts, dtype=np.float64),
                np.array(seqs, dtype=np.int64),
                np.array(qs, dtype=np.int64),
                np.array(os_, dtype=np.int64),
            ))
        if parts:
            ts, seqs, qs, os_ = (np.concatenate(column) for column in zip(*parts))
            if ts.size:
                order = np.lexsort((seqs, ts))
                self._process_arrays(ts[order], qs[order], os_[order])
        self._emit_ready(watermark)
        # Periodically prune dedup state too old to suppress anything:
        # every future processed entry has timestamp >= watermark, so a
        # pair whose last kept query is a full dedup window behind the
        # watermark is inert.  The cadence is a high-water threshold —
        # "at least 1024 ingested since the last prune" — which fires
        # regardless of step size, unlike a modulo that chunk-sized
        # ``ingested`` jumps can hop over forever.
        if self.stats.ingested - self._pruned_at_ingested >= 1024:
            self._prune_dedup(watermark)

    def _emit_ready(self, watermark: float) -> None:
        for index in sorted(self._open):
            window = self._open[index]
            if window.end <= watermark:
                del self._open[index]
                self._emit(window)
            else:
                break

    def _prune_dedup(self, watermark: float) -> None:
        self._pruned_at_ingested = self.stats.ingested
        if self._last_kept:
            # Keep a pair only while it can still suppress: the smallest
            # timestamp any future processed entry can have is the
            # watermark, so the pair is live iff ``watermark - ts <
            # window`` — the dedup keep predicate's exact float
            # expression (subtraction, not a precomputed horizon, which
            # rounds differently near the boundary).
            window = self.dedup_window
            self._last_kept = {
                key: ts
                for key, ts in self._last_kept.items()
                if watermark - ts < window
            }

    def _enter_window(self, index: int) -> None:
        """Reset dedup scope on entering a new observation window."""
        # Time-ordered processing ⇒ indices never go back.
        self._dedup_index = index
        self._last_kept = {}
        if self._prestage_factory is not None:
            self._prestage = self._prestage_factory()

    def _process_arrays(
        self, ts: np.ndarray, qs: np.ndarray, os_: np.ndarray
    ) -> None:
        """Columnar core: dedup + group a time-ordered released pool.

        Splits the pool at observation-window boundaries (timestamps are
        sorted, so the window index column is non-decreasing), resets
        dedup scope per window, and runs the vectorized dedup with ``_last_kept`` as carry state so a
        window fed across many chunks dedups identically to one pass.
        Sketch mode routes each window segment through the pre-stage's
        array-native :meth:`~repro.sketch.prestage.SketchPreStage.observe_arrays`
        (vectorized dedup + two-tier promotion resolver), whose verdict
        sequence is pinned identical to the per-event reference.
        """
        if ts.size == 0:
            return
        indices = np.floor_divide(ts - self.origin, self.window_seconds).astype(
            np.int64
        )
        uniq, bounds = np.unique(indices, return_index=True)
        bounds = np.append(bounds, ts.size)
        for k in range(int(uniq.size)):
            lo, hi = int(bounds[k]), int(bounds[k + 1])
            index = int(uniq[k])
            if index != self._dedup_index:
                self._enter_window(index)
            if self._prestage is not None:
                self._process_sketched_arrays(
                    ts[lo:hi], qs[lo:hi], os_[lo:hi], index
                )
                continue
            w_ts = ts[lo:hi]
            w_qs = qs[lo:hi]
            w_os = os_[lo:hi]
            mask, updates = dedup_mask(
                w_ts, w_qs, w_os, self.dedup_window, carry=self._last_kept
            )
            kept = int(np.count_nonzero(mask))
            self.stats.deduplicated += (hi - lo) - kept
            if kept == 0:
                continue
            self._last_kept.update(updates)
            window = self._window_for(index)
            extend_window_arrays(window, w_ts[mask], w_qs[mask], w_os[mask])

    def _process_sketched_arrays(
        self, ts: np.ndarray, qs: np.ndarray, os_: np.ndarray, index: int
    ) -> None:
        """Sketch mode, columnar: one window segment through the
        pre-stage's array-native verdict path.

        Produces the exact per-event verdict sequence (pinned by the
        property suite against the per-event reference): DUPLICATEs accrue to
        ``stats.deduplicated`` per chunk, any non-duplicate opens the
        window and attaches the pre-stage (the first processed event of
        a fresh window can never be a duplicate — its Bloom filter is
        empty — so window-creation timing matches per-event processing), and
        KEEP events materialize in first-promotion order via
        :func:`~repro.sensor.collection.extend_window_arrays`.
        """
        from repro.sketch.prestage import DUPLICATE_CODE

        codes, kept = self._prestage.observe_arrays(ts, qs, os_)
        duplicates = int(np.count_nonzero(codes == DUPLICATE_CODE))
        self.stats.deduplicated += duplicates
        if duplicates == ts.size:
            return
        window = self._window_for(index)
        if window.prestage is None:
            window.prestage = self._prestage
        if kept.size:
            extend_window_arrays(window, ts[kept], qs[kept], os_[kept])

    def _emit(self, window: ObservationWindow) -> None:
        if window.prestage is not None and window.querier_roster is None:
            window.querier_roster = window.prestage.roster_array()
        self.stats.windows_emitted += 1
        self._emitted_through = max(self._emitted_through, window.end)
        self._ready.append(window)
        if self.on_window is not None:
            self.on_window(window)

    # ------------------------------------------------------------------

    def completed_windows(self) -> list[ObservationWindow]:
        """Windows finished so far (drains the internal queue)."""
        out = self._ready
        self._ready = []
        return out

    def flush(self) -> list[ObservationWindow]:
        """Close and return every still-open window (end of stream)."""
        self._release(float("inf"))
        remaining = [self._open[i] for i in sorted(self._open)]
        self._open.clear()
        for window in remaining:
            self._emit(window)
        return self.completed_windows()

    @property
    def pending_windows(self) -> int:
        return len(self._open)

    @property
    def pending_entries(self) -> int:
        """Entries buffered awaiting the watermark (reorder slack)."""
        return len(self._pending)

    @property
    def dedup_state_size(self) -> int:
        return len(self._last_kept)
