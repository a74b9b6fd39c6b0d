"""Query-log collection value types: per-originator grouping (§ III-A/B/C).

Raw authority logs contain bursts of duplicate queries from queriers that
ignore DNS timeout rules; the paper "eliminate[s] duplicate queries from
the same querier in a 30 s window" to avoid skewing query-rate estimates.
After dedup, entries are grouped into one :class:`OriginatorObservation`
per originator over the observation interval — the unit the feature
extractor consumes.

The dedup and windowing themselves run in one place, the columnar core
of :class:`repro.sensor.streaming.StreamingCollector` (batch callers use
:meth:`repro.sensor.engine.SensorEngine.collect`; raw columns can be
deduplicated directly with :func:`repro.logstore.dedup_mask`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.sketch.prestage import SketchPreStage

__all__ = [
    "DEDUP_WINDOW_SECONDS",
    "OriginatorObservation",
    "ObservationWindow",
]

DEDUP_WINDOW_SECONDS = 30.0


@dataclass(slots=True)
class OriginatorObservation:
    """All (deduped) reverse queries for one originator in one interval.

    The unique-querier view is computed lazily and cached — ``queriers``
    already holds every address, so materializing a set per ``add``
    would keep a third copy of the column alive for observations whose
    footprint is never read (pre-gate drops, sketch DEFERs).
    """

    originator: int
    timestamps: list[float] = field(default_factory=list)
    queriers: list[int] = field(default_factory=list)
    _unique: frozenset[int] | None = field(default=None, repr=False, compare=False)

    def add(self, timestamp: float, querier: int) -> None:
        self.timestamps.append(timestamp)
        self.queriers.append(querier)
        self._unique = None

    def extend_arrays(self, timestamps: "np.ndarray", queriers: "np.ndarray") -> None:
        """Bulk append from parallel column arrays (block ingest path)."""
        self.timestamps.extend(timestamps.tolist())
        self.queriers.extend(queriers.tolist())
        self._unique = None

    def extend_lists(self, timestamps: list[float], queriers: list[int]) -> None:
        """Bulk append from parallel plain lists (block ingest path)."""
        self.timestamps.extend(timestamps)
        self.queriers.extend(queriers)
        self._unique = None

    @property
    def query_count(self) -> int:
        return len(self.timestamps)

    @property
    def unique_queriers(self) -> frozenset[int]:
        if self._unique is None:
            self._unique = frozenset(self.queriers)
        return self._unique

    @property
    def footprint(self) -> int:
        """Unique querier count — the paper's footprint estimate (§ VI-A)."""
        return len(self.unique_queriers)


@dataclass(slots=True)
class ObservationWindow:
    """One observation interval's worth of grouped originator activity."""

    start: float
    end: float
    observations: dict[int, OriginatorObservation] = field(default_factory=dict)
    prestage: "SketchPreStage | None" = field(default=None, compare=False, repr=False)
    """The probabilistic pre-select summary of this window, when the
    engine ran with ``sketch_enabled`` (see :mod:`repro.sketch.prestage`).
    In sketch mode ``observations`` holds only gate survivors; the
    pre-stage retains approximate counts for everything else."""
    querier_roster: "np.ndarray | None" = field(default=None, compare=False, repr=False)
    """Sorted exact array of *every* querier address seen in the window
    (pre-gate), attached alongside ``prestage``.  Dynamic features
    normalize by the window-wide querier universe, so sketch-mode
    windows carry it explicitly instead of unioning the (survivors-only)
    observations."""

    @property
    def duration_days(self) -> float:
        return (self.end - self.start) / 86400.0

    def originators(self) -> list[int]:
        return list(self.observations)

    def __len__(self) -> int:
        return len(self.observations)

    def __contains__(self, originator: int) -> bool:
        return originator in self.observations

    def get(self, originator: int) -> OriginatorObservation | None:
        return self.observations.get(originator)


def extend_window_arrays(
    window: ObservationWindow,
    timestamps: np.ndarray,
    queriers: np.ndarray,
    originators: np.ndarray,
) -> None:
    """Append deduped columns into *window*, grouped by originator.

    Observations are created in **first-kept-appearance order** — the
    same ``dict`` insertion order the per-entry path produces — because
    downstream feature-matrix row order follows it.  A stable argsort by
    originator makes each group's first sorted element its earliest
    appearance, so ordering groups by that original index reproduces the
    sequential insertion sequence.
    """
    if timestamps.size == 0:
        return
    order = np.argsort(originators, kind="stable")
    sorted_orig = originators[order]
    uniq, first = np.unique(sorted_orig, return_index=True)
    bounds = np.append(first, sorted_orig.size).tolist()
    appearance = np.argsort(order[first], kind="stable")
    # Gather each column once in group order; per-group work is then
    # plain list slicing (groups are typically a handful of events, where
    # per-group fancy indexing would dominate the whole pass).
    ts_sorted = timestamps[order].tolist()
    qs_sorted = queriers[order].tolist()
    uniq_list = uniq.tolist()
    observations = window.observations
    for g in appearance.tolist():
        originator = uniq_list[g]
        lo, hi = bounds[g], bounds[g + 1]
        observation = observations.get(originator)
        if observation is None:
            observation = OriginatorObservation(originator=originator)
            observations[originator] = observation
        observation.extend_lists(ts_sorted[lo:hi], qs_sorted[lo:hi])
