"""The window-scoped probabilistic pre-select stage.

One :class:`SketchPreStage` summarizes one observation window in
constant memory so the §III-B analyzability gate (≥ ``min_queriers``
unique queriers) can run *before* any exact per-originator state
exists:

* a :class:`~repro.sketch.bloom.BloomFilter` dedups repeated
  ``(originator, querier, qtype, 30 s bucket)`` events — the sensor
  retains only PTR queries, so qtype folds in as a constant;
* a :class:`~repro.sketch.cms.CountMinSketch` tracks deduped query
  volume per originator;
* an :class:`~repro.sketch.hll.HllBank` estimates unique queriers per
  originator — the quantity the gate thresholds;
* an exact *querier roster* (unique querier addresses, O(queriers) not
  O(originators × queriers)) is kept on the side because downstream
  dynamic features normalize by the window's whole querier universe.

Two operating modes share the class:

* **batch** (two-pass): the engine streams every in-window event
  through :meth:`observe_batch`, reads :meth:`survivors`, then
  materializes exact observations for survivors only.  Because the
  second pass is the unchanged exact collector, survivor observations
  and feature rows are bit-identical to the exact path; the only error
  is one-sided — an analyzable originator is dropped only if its HLL
  estimate lands below ``gate_queriers``, which the margin built into
  the gate (see ``SensorConfig.sketch_margin``) makes vanishingly rare.
* **streaming** (single-pass): :meth:`observe_arrays` is called per
  released chunk and returns a verdict per event; an originator is
  *promoted* to exact state once its estimate reaches
  ``promote_queriers``; events before promotion are summarized but not
  materialized, so promoted footprints can trail exact ones by at most
  the handful of pre-promotion queriers.

Dedup note: the Bloom key uses fixed ``⌊t/30 s⌋`` buckets, not the
exact path's sliding 30 s horizon.  Unique-querier counts (the gate
input) are unaffected — duplicates never add to an HLL — only the
CMS query-volume telemetry sees the coarser dedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.sketch.bloom import BloomFilter
from repro.sketch.cms import CountMinSketch
from repro.sketch.hashing import derive_seed, mix64_array
from repro.sketch.hll import HllBank

__all__ = [
    "SketchParams",
    "SketchPreStage",
    "KEEP",
    "DEFER",
    "DUPLICATE",
    "KEEP_CODE",
    "DEFER_CODE",
    "DUPLICATE_CODE",
    "VERDICT_NAMES",
]

#: Per-event pre-stage verdicts.
KEEP = "keep"          #: materialize this event exactly (originator promoted)
DEFER = "defer"        #: summarized only; originator not yet promoted
DUPLICATE = "duplicate"  #: suppressed by the 30 s dedup filter

#: Integer verdicts returned by :meth:`SketchPreStage.observe_arrays`
#: (one ``uint8`` per event); ``VERDICT_NAMES[code]`` maps a code back to
#: its string verdict.
KEEP_CODE = 0
DEFER_CODE = 1
DUPLICATE_CODE = 2
VERDICT_NAMES = (KEEP, DEFER, DUPLICATE)

#: PTR RR type — the only qtype the sensor retains — folded into the
#: dedup key as a constant so the key shape matches the paper's
#: (originator, querier, qtype) triple.
_QTYPE_PTR = 12

#: Events per vectorized chunk in :meth:`observe_batch`; bounds the
#: temporaries (dedup-key sort copies, HLL point arrays, Bloom probe
#: matrices) to well under 1 MiB each so the pre-stage's peak memory
#: stays flat in the log size.
_CHUNK_EVENTS = 32_768


@dataclass(frozen=True, slots=True)
class SketchParams:
    """Geometry and error budget of one pre-stage instance.

    ``gate_queriers`` is the *approximate* analyzability threshold the
    HLL estimate is compared against — the engine derives it from
    ``min_queriers`` scaled down by its one-sided error margin.
    ``promote_queriers`` only matters in streaming mode: the estimate at
    which an originator starts materializing exact state.  It must not
    exceed ``gate_queriers``, otherwise the gate could select
    originators that never materialized.
    """

    width: int = 4096
    depth: int = 4
    hll_precision: int = 6
    fp_rate: float = 0.01
    capacity: int = 1 << 20
    gate_queriers: int = 10
    promote_queriers: int = 4
    dedup_seconds: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if not 4 <= self.hll_precision <= 16:
            raise ValueError(f"hll_precision must be in [4, 16], got {self.hll_precision}")
        if not 0.0 < self.fp_rate < 1.0:
            raise ValueError(f"fp_rate must be in (0, 1), got {self.fp_rate}")
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.gate_queriers < 1:
            raise ValueError(f"gate_queriers must be >= 1, got {self.gate_queriers}")
        if self.promote_queriers < 1:
            raise ValueError(f"promote_queriers must be >= 1, got {self.promote_queriers}")
        if self.promote_queriers > self.gate_queriers:
            raise ValueError(
                "inconsistent error budget: promote_queriers "
                f"({self.promote_queriers}) exceeds gate_queriers ({self.gate_queriers}) — "
                "the gate would select originators that never materialized"
            )
        if self.dedup_seconds < 0:
            raise ValueError(f"dedup_seconds must be >= 0, got {self.dedup_seconds}")


class _UniqueInts:
    """Exact set of int64 values kept as merged-unique numpy chunks.

    A plain ``set`` of Python ints costs ~60 bytes/element; this keeps
    8 bytes/element (plus transient buffers) and hands back a sorted
    array, which is what the window context wants anyway.
    """

    __slots__ = ("_chunks", "_merged")
    _CHUNK_LIMIT = 64

    def __init__(self) -> None:
        self._chunks: list[np.ndarray] = []
        self._merged: np.ndarray | None = None

    def add_array(self, values: np.ndarray) -> None:
        if values.size == 0:
            return
        self._chunks.append(np.unique(np.asarray(values, dtype=np.int64)))
        self._merged = None
        if len(self._chunks) >= self._CHUNK_LIMIT:
            self._compact()

    def _compact(self) -> None:
        if self._chunks:
            self._chunks = [np.unique(np.concatenate(self._chunks))]

    def array(self) -> np.ndarray:
        """Sorted unique values (cached until the next add)."""
        if self._merged is None:
            self._compact()
            self._merged = self._chunks[0] if self._chunks else np.zeros(0, dtype=np.int64)
        return self._merged

    def update(self, other: "_UniqueInts") -> None:
        self.add_array(other.array())

    @property
    def nbytes(self) -> int:
        return 8 * sum(chunk.size for chunk in self._chunks)


def _event_key_array(
    originators: np.ndarray, queriers: np.ndarray, buckets: np.ndarray, seed: int
) -> np.ndarray:
    """64-bit dedup keys of (originator, querier, qtype, bucket) events."""
    k = mix64_array(originators, seed)
    k = mix64_array(k ^ queriers.astype(np.uint64), seed ^ _QTYPE_PTR)
    return mix64_array(k ^ buckets.astype(np.uint64), seed)


class SketchPreStage:
    """Constant-memory summary of one window, driving the approximate gate."""

    __slots__ = (
        "params",
        "bloom",
        "counts",
        "uniques",
        "exact_observations",
        "events_unique",
        "events_duplicate",
        "events_deferred",
        "resolver_wholesale",
        "resolver_replayed",
        "_key_seed",
        "_promoted",
        "_promoted_arr",
        "_roster",
        "_gate_cache",
    )

    def __init__(self, params: SketchParams) -> None:
        self.params = params
        self.bloom = BloomFilter(
            params.capacity, params.fp_rate, seed=derive_seed(params.seed, 0x707265_01)
        )
        self.counts = CountMinSketch(
            params.width, params.depth, seed=derive_seed(params.seed, 0x707265_02)
        )
        self.uniques = HllBank(
            params.hll_precision, seed=derive_seed(params.seed, 0x707265_03)
        )
        self._key_seed = derive_seed(params.seed, 0x707265_04)
        #: True when every surviving originator has *exact* observations
        #: (batch two-pass mode); False in single-pass streaming mode.
        self.exact_observations = False
        self.events_unique = 0
        self.events_duplicate = 0
        self.events_deferred = 0
        #: Promotion-resolver accounting (:meth:`observe_arrays` only):
        #: per chunk, originators settled wholesale with array math vs
        #: originators replayed event-by-event to find a bar crossing.
        self.resolver_wholesale = 0
        self.resolver_replayed = 0
        self._promoted: set[int] = set()
        #: Sorted-array mirror of ``_promoted`` for vectorized membership
        #: tests in :meth:`observe_arrays`; rebuilt lazily on promotion.
        self._promoted_arr: np.ndarray | None = None
        self._roster = _UniqueInts()
        self._gate_cache: tuple[np.ndarray, np.ndarray] | None = None

    # -- ingest ----------------------------------------------------------

    def observe_batch(
        self,
        timestamps: np.ndarray,
        queriers: np.ndarray,
        originators: np.ndarray,
    ) -> None:
        """Vectorized ingest of aligned event arrays (batch mode).

        Processes in chunks: exact within-chunk dedup via ``np.unique``
        on the event key, cross-chunk dedup via the Bloom filter — the
        same final sketch state and counters as feeding the events one at
        a time.
        """
        self._gate_cache = None
        timestamps = np.asarray(timestamps, dtype=np.float64)
        queriers = np.asarray(queriers, dtype=np.int64)
        originators = np.asarray(originators, dtype=np.int64)
        dedup = self.params.dedup_seconds
        for start in range(0, timestamps.size, _CHUNK_EVENTS):
            stop = min(start + _CHUNK_EVENTS, timestamps.size)
            q = queriers[start:stop]
            o = originators[start:stop]
            self._roster.add_array(q)
            if dedup > 0:
                buckets = np.floor_divide(timestamps[start:stop], dedup).astype(np.int64)
                keys = _event_key_array(o, q, buckets, self._key_seed)
                _, first = np.unique(keys, return_index=True)
                # Chronological first occurrences, so bank insertion
                # order (and thus survivor order) is the events' order.
                first.sort()
                novel = self.bloom.add_batch(keys[first])
                kept = first[novel]
                self.events_unique += int(kept.size)
                self.events_duplicate += int((stop - start) - kept.size)
            else:
                kept = slice(None)
                self.events_unique += int(stop - start)
            self.counts.add_batch(o[kept])
            self.uniques.add_batch(o[kept], q[kept])

    def observe_arrays(
        self,
        timestamps: np.ndarray,
        queriers: np.ndarray,
        originators: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ingest of aligned event arrays (streaming mode).

        Returns ``(codes, kept)`` where ``codes[i]`` is the uint8 verdict
        of event *i* (:data:`KEEP_CODE` / :data:`DEFER_CODE` /
        :data:`DUPLICATE_CODE` — the exact verdict sequence one-event-at-
        a-time processing would produce, for any chunk split) and
        ``kept`` holds the
        indices of KEEP events in input order, i.e. the events the
        streaming collector materializes exactly.

        Dedup is vectorized like :meth:`observe_batch` (``np.unique``
        within the chunk, Bloom across chunks).  Promotion uses a
        two-tier resolver per chunk: originators that entered the chunk
        promoted (all KEEP) or whose HLL estimate provably stays below
        ``promote_queriers`` throughout the chunk (all DEFER) are
        settled wholesale with array math; only originators that may
        *cross* the bar inside the chunk are rewound to their pre-chunk
        registers and replayed event-by-event to land on the exact
        crossing event.  See DESIGN.md § 3c for the bound that makes
        the wholesale DEFER tier safe.
        """
        timestamps = np.asarray(timestamps, dtype=np.float64)
        queriers = np.asarray(queriers, dtype=np.int64)
        originators = np.asarray(originators, dtype=np.int64)
        codes = np.empty(timestamps.size, dtype=np.uint8)
        for start in range(0, timestamps.size, _CHUNK_EVENTS):
            stop = min(start + _CHUNK_EVENTS, timestamps.size)
            self._observe_chunk(
                timestamps[start:stop],
                queriers[start:stop],
                originators[start:stop],
                codes[start:stop],
            )
        return codes, np.flatnonzero(codes == KEEP_CODE)

    def _observe_chunk(
        self,
        timestamps: np.ndarray,
        queriers: np.ndarray,
        originators: np.ndarray,
        codes: np.ndarray,
    ) -> None:
        """One bounded chunk of :meth:`observe_arrays`; writes *codes* in place."""
        n = int(timestamps.size)
        codes[:] = DUPLICATE_CODE
        self._roster.add_array(queriers)
        dedup = self.params.dedup_seconds
        if dedup > 0:
            buckets = np.floor_divide(timestamps, dedup).astype(np.int64)
            keys = _event_key_array(originators, queriers, buckets, self._key_seed)
            _, first = np.unique(keys, return_index=True)
            first.sort()
            novel = self.bloom.add_batch(keys[first])
            kept = first[novel]
            self.events_unique += int(kept.size)
            self.events_duplicate += int(n - kept.size)
        else:
            kept = np.arange(n, dtype=np.intp)
            self.events_unique += n
        if kept.size == 0:
            return
        self._gate_cache = None
        o = originators[kept]
        q = queriers[kept]
        self.counts.add_batch(o)
        uniq, ufirst, inverse = np.unique(o, return_index=True, return_inverse=True)
        # One dict sweep resolves every originator's bank row; missing
        # rows are created in chronological first-occurrence order so the
        # per-group register updates below cannot scramble bank insertion
        # order relative to one-event-at-a-time processing.
        slots = self.uniques.resolve_slots(uniq, create_order=np.argsort(ufirst))
        if self._promoted_arr is None:
            self._promoted_arr = np.fromiter(
                self._promoted, dtype=np.int64, count=len(self._promoted)
            )
            self._promoted_arr.sort()
        promoted = np.isin(uniq, self._promoted_arr, assume_unique=True)
        event_slots = slots[inverse]
        keep_events = promoted[inverse]
        if keep_events.any():
            # Tier 1a: already-promoted originators — every event KEEPs.
            codes[kept[keep_events]] = KEEP_CODE
            self.uniques.add_at_slots(event_slots[keep_events], q[keep_events])
        pending_sel = np.flatnonzero(~promoted)
        if pending_sel.size == 0:
            self.resolver_wholesale += int(uniq.size)
            return
        pending = uniq[pending_sel]
        pending_slots = slots[pending_sel]
        pending_events = ~keep_events
        snapshot = self.uniques.rows_at(pending_slots)
        self.uniques.add_at_slots(event_slots[pending_events], q[pending_events])
        estimates, zeros = self.uniques.estimate_slots(pending_slots, with_zeros=True)
        # Tier 1b: an unpromoted originator enters the chunk with an
        # estimate < promote_queriers (the per-event check re-runs at every
        # register change, which is the only time the estimate moves),
        # and no intermediate estimate inside the chunk can exceed
        # ``max(final estimate, m·ln(m / max(final zeros, 1)))``: the
        # raw harmonic estimate is monotone in the registers, the
        # linear-counting branch is monotone in the zero count, and when
        # the final estimate takes the linear branch every prefix does
        # too.  Originators whose bound stays below the bar never
        # promote inside the chunk — settled wholesale as DEFER.
        m = float(1 << self.params.hll_precision)
        bound = np.maximum(
            estimates, m * np.log(m / np.maximum(zeros, 1).astype(np.float64))
        )
        below = bound < float(self.params.promote_queriers)
        crossers = pending[~below]
        self.resolver_wholesale += int(uniq.size - crossers.size)
        if crossers.size == 0:
            codes[kept[pending_events]] = DEFER_CODE
            self.events_deferred += int(np.count_nonzero(pending_events))
            return
        # Tier 2: rewind the (few) possible crossers to their pre-chunk
        # registers and re-run their events through the per-event promote
        # check to land on the exact crossing event.
        self.resolver_replayed += int(crossers.size)
        self.uniques.write_rows_at(pending_slots[~below], snapshot[~below])
        crosser_flag = np.zeros(uniq.size, dtype=bool)
        crosser_flag[pending_sel[~below]] = True
        replay_events = crosser_flag[inverse]
        settled = pending_events & ~replay_events
        codes[kept[settled]] = DEFER_CODE
        self.events_deferred += int(np.count_nonzero(settled))
        bar = self.params.promote_queriers
        bank = self.uniques
        for i in np.flatnonzero(replay_events).tolist():
            origin = int(o[i])
            changed = bank.add(origin, int(q[i]))
            if origin in self._promoted:
                codes[kept[i]] = KEEP_CODE
                continue
            if changed and bank.estimate(origin) >= bar:
                self._promoted.add(origin)
                self._promoted_arr = None
                codes[kept[i]] = KEEP_CODE
                continue
            codes[kept[i]] = DEFER_CODE
            self.events_deferred += 1

    # -- the gate --------------------------------------------------------

    def _gate(self) -> tuple[np.ndarray, np.ndarray]:
        if self._gate_cache is None:
            self._gate_cache = self.uniques.estimate_all()
        return self._gate_cache

    def survivors(self) -> np.ndarray:
        """Originators whose estimated unique queriers pass the gate."""
        keys, estimates = self._gate()
        return keys[estimates >= self.params.gate_queriers]

    @property
    def originators_seen(self) -> int:
        """Distinct originators summarized (exact — one bank slot each)."""
        return len(self.uniques)

    @property
    def gate_kept(self) -> int:
        return int(self.survivors().size)

    @property
    def gate_dropped(self) -> int:
        return self.originators_seen - self.gate_kept

    def estimate_queriers(self, originator: int) -> float:
        """Estimated unique queriers of one originator."""
        return self.uniques.estimate(originator)

    def estimate_count(self, originator: int) -> int:
        """Estimated (deduped) query count of one originator."""
        return self.counts.estimate(originator)

    def is_promoted(self, originator: int) -> bool:
        return originator in self._promoted

    def roster_array(self) -> np.ndarray:
        """Sorted exact array of every querier address in the window."""
        return self._roster.array()

    # -- accounting ------------------------------------------------------

    def memory_bytes(self) -> dict[str, int]:
        """Bytes held per structure — the telemetry gauge payload."""
        return {
            "bloom": self.bloom.memory_bytes,
            "cms": self.counts.memory_bytes,
            "hll": self.uniques.memory_bytes,
            "roster": self._roster.nbytes,
        }

    def error_against(self, exact_footprints: Mapping[int, int]) -> np.ndarray:
        """Relative unique-querier estimate error per known originator.

        *exact_footprints* maps originator → true unique-querier count
        (available for survivors in batch mode); returns
        ``|estimate − true| / true`` aligned with the mapping's order.
        """
        errors = np.zeros(len(exact_footprints), dtype=np.float64)
        for i, (originator, true_count) in enumerate(exact_footprints.items()):
            if true_count > 0:
                estimate = self.uniques.estimate(originator)
                errors[i] = abs(estimate - true_count) / true_count
        return errors

    def false_drops(self, exact_footprints: Mapping[int, int], min_queriers: int) -> int:
        """How many truly-analyzable originators the gate dropped.

        Needs ground truth (*exact_footprints* over **all** originators),
        so only verification harnesses and the benchmark can call it —
        in sketch mode proper the dropped tail's exact footprints are
        never known.
        """
        kept = set(int(origin) for origin in self.survivors())
        return sum(
            1
            for originator, footprint in exact_footprints.items()
            if footprint >= min_queriers and originator not in kept
        )

    # -- algebra ---------------------------------------------------------

    def merge(self, other: "SketchPreStage") -> "SketchPreStage":
        """Fold another shard's pre-stage in (same params/seed required)."""
        if not isinstance(other, SketchPreStage):
            raise TypeError(f"cannot combine SketchPreStage with {type(other).__name__}")
        if self.params != other.params:
            raise ValueError(f"incompatible pre-stages: {self.params} vs {other.params}")
        self.bloom.merge(other.bloom)
        self.counts.merge(other.counts)
        self.uniques.merge(other.uniques)
        self._roster.update(other._roster)
        self._promoted |= other._promoted
        self._promoted_arr = None
        self.events_unique += other.events_unique
        self.events_duplicate += other.events_duplicate
        self.events_deferred += other.events_deferred
        self.resolver_wholesale += other.resolver_wholesale
        self.resolver_replayed += other.resolver_replayed
        self._gate_cache = None
        return self

    def __or__(self, other: "SketchPreStage") -> "SketchPreStage":
        clone = SketchPreStage(self.params)
        clone.exact_observations = self.exact_observations
        return clone.merge(self).merge(other)

    def __repr__(self) -> str:
        return (
            f"SketchPreStage(originators={self.originators_seen}, "
            f"unique={self.events_unique}, duplicate={self.events_duplicate}, "
            f"deferred={self.events_deferred})"
        )
