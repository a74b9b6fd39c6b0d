"""Scalar reference implementations the columnar core is pinned against.

The sensor runs one ingest path: object input becomes an
:class:`~repro.logstore.EntryBlock` at the API boundary and everything
else is array math (:meth:`StreamingCollector.ingest_arrays`,
:func:`repro.logstore.dedup_mask`, :meth:`SketchPreStage.observe_arrays`).
The per-entry definitions of the same rules live here, one entry at a
time and as plainly as possible, so the property suites can keep
asserting bit-identity between the two:

* :func:`dedup_entries` — § III-A's 30 s per-(querier, originator) rule;
* :func:`collect_window` — one observation window: range filter, order
  check, dedup, group by originator in first-appearance order;
* :func:`observe` — one event through a :class:`SketchPreStage`;
* :class:`ScalarCollector` — the streaming collector's semantics
  (window-scoped dedup, reorder heap, late drops, sketch verdicts) fed
  one entry at a time.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

import numpy as np

from repro.dnssim.message import QueryLogEntry
from repro.sensor.collection import (
    DEDUP_WINDOW_SECONDS,
    ObservationWindow,
    OriginatorObservation,
)
from repro.sensor.streaming import StreamingStats
from repro.sketch.hashing import MASK64, mix64
from repro.sketch.prestage import DEFER, DUPLICATE, KEEP, SketchPreStage

__all__ = [
    "dedup_entries",
    "collect_window",
    "event_key",
    "observe",
    "ScalarCollector",
]

#: PTR RR type folded into the pre-stage dedup key (see prestage.py).
_QTYPE_PTR = 12


def dedup_entries(
    entries: list[QueryLogEntry], window: float = DEDUP_WINDOW_SECONDS
) -> list[QueryLogEntry]:
    """Drop repeats of the same (querier, originator) within *window* seconds.

    Entries must be in non-decreasing timestamp order.  The first query
    of each burst is kept; a repeat is dropped when it falls strictly
    within *window* of the last *kept* query for that pair.
    """
    if window < 0:
        raise ValueError("window must be non-negative")
    kept: list[QueryLogEntry] = []
    last_kept: dict[tuple[int, int], float] = {}
    previous_ts = float("-inf")
    for entry in entries:
        if entry.timestamp < previous_ts:
            raise ValueError("entries are not time-ordered")
        previous_ts = entry.timestamp
        key = (entry.querier, entry.originator)
        last = last_kept.get(key)
        if last is not None and entry.timestamp - last < window:
            continue
        last_kept[key] = entry.timestamp
        kept.append(entry)
    return kept


def collect_window(
    entries: Iterable[QueryLogEntry],
    start: float,
    end: float,
    dedup_window: float = DEDUP_WINDOW_SECONDS,
) -> ObservationWindow:
    """One observation window over ``[start, end)``, entry by entry."""
    if end <= start:
        raise ValueError("end must be after start")
    in_range = [e for e in entries if start <= e.timestamp < end]
    window = ObservationWindow(start=start, end=end)
    for entry in dedup_entries(in_range, dedup_window):
        observation = window.observations.get(entry.originator)
        if observation is None:
            observation = OriginatorObservation(originator=entry.originator)
            window.observations[entry.originator] = observation
        observation.add(entry.timestamp, entry.querier)
    return window


def event_key(originator: int, querier: int, bucket: int, seed: int) -> int:
    """64-bit dedup key of one (originator, querier, qtype, bucket) event."""
    k = mix64(originator, seed)
    k = mix64(k ^ (querier & MASK64), seed ^ _QTYPE_PTR)
    return mix64(k ^ (bucket & MASK64), seed)


def observe(
    prestage: SketchPreStage, timestamp: float, querier: int, originator: int
) -> str:
    """Summarize one event into *prestage*; returns its verdict
    (:data:`KEEP`, :data:`DEFER`, or :data:`DUPLICATE`)."""
    prestage._roster.add_array(np.array([querier], dtype=np.int64))
    dedup = prestage.params.dedup_seconds
    if dedup > 0:
        key = event_key(
            originator, querier, int(timestamp // dedup), prestage._key_seed
        )
        if not prestage.bloom.add(key):
            # A duplicate leaves the HLL estimates (and the gate cache)
            # untouched.
            prestage.events_duplicate += 1
            return DUPLICATE
    prestage._gate_cache = None
    prestage.events_unique += 1
    prestage.counts.add(originator)
    changed = prestage.uniques.add(originator, querier)
    if originator in prestage._promoted:
        return KEEP
    bar = prestage.params.promote_queriers
    if changed and prestage.uniques.estimate(originator) >= bar:
        prestage._promoted.add(originator)
        prestage._promoted_arr = None
        return KEEP
    prestage.events_deferred += 1
    return DEFER


class ScalarCollector:
    """The streaming collector's semantics, one entry at a time.

    Same constructor and read-side surface as
    :class:`~repro.sensor.streaming.StreamingCollector` (``stats``,
    ``completed_windows``, ``flush``) — minus the dedup-state pruning,
    which never changes a verdict.
    """

    def __init__(
        self,
        window_seconds: float,
        origin: float = 0.0,
        dedup_window: float = DEDUP_WINDOW_SECONDS,
        reorder_slack: float = 2.0,
        prestage_factory: Callable[[], SketchPreStage] | None = None,
    ) -> None:
        self.window_seconds = window_seconds
        self.origin = origin
        self.dedup_window = dedup_window
        self.reorder_slack = reorder_slack
        self.stats = StreamingStats()
        self._high_water = float("-inf")
        self._pending: list[tuple[float, int, int, int]] = []
        self._seq = 0
        self._dedup_index: int | None = None
        self._last_kept: dict[tuple[int, int], float] = {}
        self._open: dict[int, ObservationWindow] = {}
        self._ready: list[ObservationWindow] = []
        self._prestage_factory = prestage_factory
        self._prestage: SketchPreStage | None = None

    def ingest(self, entry: QueryLogEntry) -> None:
        self.stats.ingested += 1
        timestamp = entry.timestamp
        if timestamp < self.origin or timestamp < self._high_water - self.reorder_slack:
            self.stats.late_dropped += 1
            return
        if timestamp > self._high_water:
            self._high_water = timestamp
        elif timestamp < self._high_water:
            self.stats.reordered += 1
        heapq.heappush(
            self._pending, (timestamp, self._seq, entry.querier, entry.originator)
        )
        self._seq += 1
        self._release(self._high_water - self.reorder_slack)

    def ingest_many(self, entries: Iterable[QueryLogEntry]) -> None:
        for entry in entries:
            self.ingest(entry)

    def _release(self, watermark: float) -> None:
        while self._pending and self._pending[0][0] <= watermark:
            timestamp, _seq, querier, originator = heapq.heappop(self._pending)
            self._process(timestamp, querier, originator)
        for index in sorted(self._open):
            window = self._open[index]
            if window.end > watermark:
                break
            del self._open[index]
            self._emit(window)

    def _window_for(self, index: int) -> ObservationWindow:
        window = self._open.get(index)
        if window is None:
            window = ObservationWindow(
                start=self.origin + index * self.window_seconds,
                end=self.origin + (index + 1) * self.window_seconds,
            )
            self._open[index] = window
        return window

    def _process(self, timestamp: float, querier: int, originator: int) -> None:
        index = int((timestamp - self.origin) // self.window_seconds)
        if index != self._dedup_index:
            self._dedup_index = index
            self._last_kept = {}
            if self._prestage_factory is not None:
                self._prestage = self._prestage_factory()
        if self._prestage is not None:
            verdict = observe(self._prestage, timestamp, querier, originator)
            if verdict == DUPLICATE:
                self.stats.deduplicated += 1
                return
            window = self._window_for(index)
            if window.prestage is None:
                window.prestage = self._prestage
            if verdict == DEFER:
                return
        else:
            key = (querier, originator)
            last = self._last_kept.get(key)
            if last is not None and timestamp - last < self.dedup_window:
                self.stats.deduplicated += 1
                return
            self._last_kept[key] = timestamp
            window = self._window_for(index)
        observation = window.observations.get(originator)
        if observation is None:
            observation = OriginatorObservation(originator=originator)
            window.observations[originator] = observation
        observation.add(timestamp, querier)

    def _emit(self, window: ObservationWindow) -> None:
        if window.prestage is not None and window.querier_roster is None:
            window.querier_roster = window.prestage.roster_array()
        self.stats.windows_emitted += 1
        self._ready.append(window)

    def completed_windows(self) -> list[ObservationWindow]:
        out = self._ready
        self._ready = []
        return out

    def flush(self) -> list[ObservationWindow]:
        self._release(float("inf"))
        for index in sorted(self._open):
            self._emit(self._open[index])
        self._open.clear()
        return self.completed_windows()
