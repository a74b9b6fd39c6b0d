"""Block ingest == per-entry semantics, end to end.

Property tests pinning the array ingest plane's central contract: feeding
the pipeline columnar :class:`~repro.logstore.EntryBlock` chunks produces
**bit-identical** windows, observation order, and stats to the per-entry
references in ``tests/oracles.py`` — on adversarial logs with timestamp
ties, window-boundary straddles, disorder within the reorder slack, and
strictly-late drops.  Also pins: object input converted at the API
boundary matches block input, upfront order validation in
``SensorEngine.collect``, the lazily-cached unique-querier view, and
deterministic arrival-order release of reorder-buffer ties.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnssim.message import QueryLogEntry
from repro.logstore import EntryBlock
from repro.sensor.collection import OriginatorObservation
from repro.sensor.engine import SensorConfig, SensorEngine
from repro.sensor.streaming import StreamingCollector
from repro.sketch.prestage import SketchPreStage
from tests.oracles import ScalarCollector, collect_window, observe


def engine_collect(entries, start, end, dedup_window=30.0):
    config = SensorConfig(dedup_window=dedup_window)
    return SensorEngine(config=config).collect(entries, start, end)


def make_entries(rows):
    return [QueryLogEntry(timestamp=t, querier=q, originator=o) for t, q, o in rows]


def window_signature(window):
    """Everything downstream stages consume, including dict order."""
    return (
        window.start,
        window.end,
        [
            (originator, tuple(obs.timestamps), tuple(obs.queriers))
            for originator, obs in window.observations.items()
        ],
    )


def stats_signature(stats):
    return (
        stats.ingested,
        stats.deduplicated,
        stats.late_dropped,
        stats.reordered,
        stats.windows_emitted,
    )


# Coarse timestamps force ties and near-horizon gaps; tiny id spaces
# force pair collisions — the adversarial regime for dedup and ordering.
rows_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=90.0).map(lambda t: round(t, 1)),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=50,
)


class TestCollectWindowBlock:
    @given(rows_strategy, st.sampled_from([0.0, 1.0, 30.0]))
    @settings(max_examples=150, deadline=None)
    def test_block_matches_object_path(self, rows, dedup_window):
        rows.sort(key=lambda r: r[0])
        entries = make_entries(rows)
        block = EntryBlock.from_entries(entries)
        reference = collect_window(entries, 0.0, 100.0, dedup_window)
        via_objects = engine_collect(entries, 0.0, 100.0, dedup_window)
        via_block = engine_collect(block, 0.0, 100.0, dedup_window)
        assert window_signature(via_block) == window_signature(reference)
        assert window_signature(via_objects) == window_signature(reference)

    @given(rows_strategy)
    @settings(max_examples=100, deadline=None)
    def test_boundary_straddles_filtered_identically(self, rows):
        rows.sort(key=lambda r: r[0])
        entries = make_entries(rows)
        block = EntryBlock.from_entries(entries)
        # A window interval strictly inside the data span: out-of-range
        # entries on both sides must be filtered before dedup.
        reference = collect_window(entries, 20.0, 60.0)
        via_objects = engine_collect(entries, 20.0, 60.0)
        via_block = engine_collect(block, 20.0, 60.0)
        assert window_signature(via_block) == window_signature(reference)
        assert window_signature(via_objects) == window_signature(reference)
        for obs in via_block.observations.values():
            assert all(20.0 <= t < 60.0 for t in obs.timestamps)

    def test_unsorted_input_raises_before_building_state(self):
        """Regression: unsorted in-range input used to raise
        mid-iteration, after part of the window was already built; order
        is validated upfront for both input forms."""
        entries = make_entries([(5.0, 1, 1), (3.0, 2, 2), (7.0, 3, 3)])
        with pytest.raises(ValueError, match="not time-ordered"):
            engine_collect(entries, 0.0, 10.0)
        with pytest.raises(ValueError, match="not time-ordered"):
            engine_collect(EntryBlock.from_entries(entries), 0.0, 10.0)

    def test_unsorted_outside_range_is_harmless(self):
        # Disorder confined to out-of-range entries doesn't affect the
        # window and is not an error.
        entries = make_entries([(50.0, 1, 1), (2.0, 2, 2), (5.0, 3, 3)])
        window = engine_collect(entries, 4.0, 10.0)
        assert len(window) == 1

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError, match="end must be after start"):
            engine_collect([], 10.0, 10.0)
        with pytest.raises(ValueError, match="non-negative"):
            engine_collect([], 0.0, 10.0, dedup_window=-1.0)


class TestStreamingBlockEquivalence:
    @given(
        rows_strategy,
        st.sampled_from([0.0, 2.0, 5.0]),
        st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=150, deadline=None)
    def test_chunked_block_matches_per_entry(self, rows, slack, chunk):
        """Same stream (disorder, late drops, ties and all) fed both ways."""
        entries = make_entries(rows)
        scalar = ScalarCollector(20.0, reorder_slack=slack)
        scalar.ingest_many(entries)
        scalar_windows = scalar.completed_windows() + scalar.flush()

        block = StreamingCollector(20.0, reorder_slack=slack)
        for lo in range(0, len(entries), chunk):
            block.ingest_block(EntryBlock.from_entries(entries[lo : lo + chunk]))
        block_windows = block.completed_windows() + block.flush()

        assert [window_signature(w) for w in block_windows] == [
            window_signature(w) for w in scalar_windows
        ]
        assert stats_signature(block.stats) == stats_signature(scalar.stats)

    @given(rows_strategy, st.integers(min_value=1, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_interleaving_scalar_and_block_ingest(self, rows, chunk):
        """One-entry and multi-entry blocks share one state machine."""
        entries = make_entries(rows)
        reference = ScalarCollector(20.0, reorder_slack=2.0)
        reference.ingest_many(entries)
        mixed = StreamingCollector(20.0, reorder_slack=2.0)
        single_turn = True
        for lo in range(0, len(entries), chunk):
            part = entries[lo : lo + chunk]
            if single_turn:
                for entry in part:
                    mixed.ingest_block(EntryBlock.from_entries([entry]))
            else:
                mixed.ingest_block(EntryBlock.from_entries(part))
            single_turn = not single_turn
        assert [window_signature(w) for w in mixed.flush()] == [
            window_signature(w) for w in reference.flush()
        ]
        assert stats_signature(mixed.stats) == stats_signature(reference.stats)

    def test_tie_release_is_arrival_order(self):
        """Satellite: equal timestamps held in the reorder buffer release
        in arrival order, even across chunk boundaries."""
        rows = [(10.0, 1, 1), (10.0, 2, 1), (10.0, 3, 1), (10.0, 4, 1)]
        for chunk in (1, 2, 4):
            collector = StreamingCollector(20.0, reorder_slack=5.0)
            for lo in range(0, len(rows), chunk):
                collector.ingest_block(
                    EntryBlock.from_entries(make_entries(rows[lo : lo + chunk]))
                )
            (window,) = collector.flush()
            (obs,) = window.observations.values()
            assert obs.queriers == [1, 2, 3, 4], f"chunk={chunk}"

    def test_late_drops_counted_identically(self):
        rows = [(30.0, 1, 1), (5.0, 2, 2), (31.0, 3, 3)]  # 5.0 is > slack late
        scalar = ScalarCollector(20.0, reorder_slack=2.0)
        scalar.ingest_many(make_entries(rows))
        block = StreamingCollector(20.0, reorder_slack=2.0)
        block.ingest_block(EntryBlock.from_entries(make_entries(rows)))
        assert scalar.stats.late_dropped == block.stats.late_dropped == 1
        assert stats_signature(block.stats) == stats_signature(scalar.stats)


def reference_windows(entries, config, start, end):
    """Batch windows entry by entry: per-window range filter, the sketch
    gate fed one event at a time (sketch mode), then scalar collection."""
    windows = []
    lo = start
    while lo < end:
        hi = min(lo + config.window_seconds, end)
        in_window = [e for e in entries if lo <= e.timestamp < hi]
        if config.sketch_enabled:
            prestage = SketchPreStage(config.sketch_params())
            for e in in_window:
                observe(prestage, e.timestamp, e.querier, e.originator)
            survivors = set(prestage.survivors().tolist())
            in_window = [e for e in in_window if e.originator in survivors]
        windows.append(collect_window(in_window, lo, hi, config.dedup_window))
        lo += config.window_seconds
    return windows


class TestEngineBlockEquivalence:
    @pytest.mark.parametrize("sketch", [False, True])
    def test_windows_batch_block_matches_object(self, sketch):
        rng = np.random.default_rng(7)
        n = 4000
        rows = sorted(
            zip(
                (rng.random(n) * 80.0).round(1).tolist(),
                rng.integers(0, 40, n).tolist(),
                rng.integers(0, 12, n).tolist(),
            )
        )
        entries = make_entries(rows)
        config = SensorConfig(
            window_seconds=20.0,
            min_queriers=2,
            sketch_enabled=sketch,
            sketch_capacity=4 * n,
        )
        reference = reference_windows(entries, config, 0.0, 80.0)
        via_objects = SensorEngine(config=config).windows(entries, 0.0, 80.0)
        via_block = SensorEngine(config=config).windows(
            EntryBlock.from_entries(entries), 0.0, 80.0
        )
        expected = [window_signature(w) for w in reference]
        assert [window_signature(w) for w in via_block] == expected
        assert [window_signature(w) for w in via_objects] == expected

    def test_windows_rejects_unsorted_block(self):
        block = EntryBlock.from_entries(make_entries([(5.0, 1, 1), (3.0, 2, 2)]))
        with pytest.raises(ValueError, match="not time-ordered"):
            SensorEngine(config=SensorConfig(window_seconds=10.0)).windows(
                block, 0.0, 10.0
            )


class TestLazyUniqueQueriers:
    """Satellite: the unique-querier set is computed on demand and cached,
    not materialized alongside every append."""

    def test_not_materialized_by_add(self):
        obs = OriginatorObservation(originator=1)
        obs.add(1.0, 10)
        obs.add(2.0, 10)
        assert obs._unique is None

    def test_cached_after_first_read_and_invalidated_by_writes(self):
        obs = OriginatorObservation(originator=1)
        obs.add(1.0, 10)
        assert obs.footprint == 1
        assert obs._unique is not None
        cached = obs.unique_queriers
        assert obs.unique_queriers is cached  # no recompute
        obs.add(2.0, 11)
        assert obs._unique is None  # add invalidates
        assert obs.footprint == 2
        obs.extend_lists([3.0], [11])
        assert obs._unique is None  # bulk append invalidates
        assert obs.footprint == 2
        obs.extend_arrays(np.array([4.0]), np.array([12]))
        assert obs._unique is None
        assert obs.footprint == 3
