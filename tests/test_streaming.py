"""Tests for the streaming collector, incl. batch-equivalence property."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnssim.message import QueryLogEntry
from repro.logstore import EntryBlock
from repro.sensor.streaming import StreamingCollector
from tests.oracles import collect_window


def entry(ts: float, querier: int = 1, originator: int = 2) -> QueryLogEntry:
    return QueryLogEntry(timestamp=ts, querier=querier, originator=originator)


def feed(collector: StreamingCollector, *entries: QueryLogEntry) -> None:
    """Feed entries one block each — the streaming arrival pattern."""
    for e in entries:
        collector.ingest_block(EntryBlock.from_entries([e]))


class TestWindowing:
    def test_windows_emitted_at_boundaries(self):
        collector = StreamingCollector(window_seconds=100.0, reorder_slack=0.0)
        feed(collector, entry(10.0))
        assert collector.pending_windows == 1
        feed(collector, entry(150.0))  # crosses into window 1
        done = collector.completed_windows()
        assert len(done) == 1
        assert done[0].start == 0.0 and done[0].end == 100.0
        assert 2 in done[0]

    def test_flush_closes_open_windows(self):
        collector = StreamingCollector(window_seconds=100.0)
        feed(collector, entry(10.0))
        feed(collector, entry(110.0))
        done = collector.flush()
        assert len(done) == 2
        assert collector.pending_windows == 0

    def test_callback_invoked(self):
        seen = []
        collector = StreamingCollector(
            window_seconds=50.0, reorder_slack=0.0, on_window=seen.append
        )
        feed(collector, entry(0.0))
        feed(collector, entry(60.0))
        assert len(seen) == 1

    def test_window_alignment_with_origin(self):
        collector = StreamingCollector(window_seconds=100.0, origin=1000.0)
        feed(collector, entry(1010.0))
        window = collector.flush()[0]
        assert window.start == 1000.0 and window.end == 1100.0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            StreamingCollector(window_seconds=0.0)
        with pytest.raises(ValueError):
            StreamingCollector(window_seconds=1.0, dedup_window=-1.0)


class TestDedupAndLateness:
    def test_online_dedup(self):
        collector = StreamingCollector(window_seconds=1000.0)
        feed(collector, entry(0.0))
        feed(collector, entry(10.0))
        feed(collector, entry(40.0))
        assert collector.stats.deduplicated == 1
        window = collector.flush()[0]
        assert window.observations[2].query_count == 2

    def test_strictly_late_entries_dropped(self):
        collector = StreamingCollector(window_seconds=1000.0, reorder_slack=2.0)
        feed(collector, entry(100.0))
        feed(collector, entry(50.0))  # 50s late, slack is 2s
        assert collector.stats.late_dropped == 1

    def test_slightly_reordered_accepted(self):
        collector = StreamingCollector(window_seconds=1000.0, reorder_slack=5.0)
        feed(collector, entry(100.0, querier=1))
        feed(collector, entry(97.0, querier=2))
        assert collector.stats.late_dropped == 0
        window = collector.flush()[0]
        assert window.observations[2].footprint == 2

    def test_pre_origin_entries_dropped(self):
        collector = StreamingCollector(window_seconds=100.0, origin=1000.0)
        feed(collector, entry(500.0))
        assert collector.stats.late_dropped == 1
        assert collector.pending_windows == 0

    def test_emitted_windows_never_mutated(self):
        collector = StreamingCollector(window_seconds=100.0, reorder_slack=2.0)
        feed(collector, entry(10.0))
        feed(collector, entry(200.0))
        first = collector.completed_windows()[0]
        count_before = first.observations[2].query_count
        # This entry belongs to the emitted window but is beyond slack.
        feed(collector, entry(20.0, querier=9))
        assert first.observations[2].query_count == count_before
        assert collector.stats.late_dropped == 1

    def test_dedup_state_pruned(self):
        collector = StreamingCollector(window_seconds=50.0, reorder_slack=0.0)
        for i in range(5000):
            feed(collector, entry(float(i), querier=i, originator=i))
        assert collector.dedup_state_size < 5000

    def test_dedup_state_bounded_on_block_fed_long_stream(self):
        # Regression: on the block-fed (ingest_arrays) path inside one
        # long observation window, ``_last_kept`` must stay bounded by
        # the pairs still inside the 30 s dedup horizon — not grow with
        # every distinct pair the stream ever carried.
        dedup = 30.0
        collector = StreamingCollector(
            window_seconds=3000.0, reorder_slack=0.0, dedup_window=dedup
        )
        chunk = 200
        rate = 10.0  # events per second, all distinct pairs
        high_water_state = 0
        for c in range(100):  # 20,000 events over 2,000 s, one window
            base = c * chunk
            ts = base / rate + np.arange(chunk) / rate
            qs = np.arange(base, base + chunk, dtype=np.int64)
            os_ = np.full(chunk, 7, dtype=np.int64)
            collector.ingest_arrays(ts, qs, os_)
            high_water_state = max(high_water_state, collector.dedup_state_size)
        # Live bound: ``rate * dedup`` pairs can still suppress, plus at
        # most one prune cadence (1024 ingested) of unpruned growth.
        assert high_water_state <= int(rate * dedup) + 1024 + chunk
        assert collector.dedup_state_size <= int(rate * dedup) + 1024 + chunk

    def test_dedup_state_bounded_across_ten_windows(self):
        # Ten observation windows, block-fed; window entry resets dedup
        # scope, and within each window the prune keeps only live pairs.
        dedup = 30.0
        collector = StreamingCollector(
            window_seconds=100.0, reorder_slack=0.0, dedup_window=dedup
        )
        chunk = 250
        rate = 10.0
        for c in range(40):  # 10,000 events over 1,000 s = 10 windows
            base = c * chunk
            ts = base / rate + np.arange(chunk) / rate
            qs = np.arange(base, base + chunk, dtype=np.int64)
            os_ = np.full(chunk, 7, dtype=np.int64)
            collector.ingest_arrays(ts, qs, os_)
            assert collector.dedup_state_size <= int(rate * dedup) + 1024 + chunk
        assert len(collector.flush()) == 10

    def test_advance_watermark_closes_windows_without_input(self):
        collector = StreamingCollector(window_seconds=100.0, reorder_slack=0.0)
        feed(collector, entry(10.0))
        assert collector.completed_windows() == []
        collector.advance_watermark(250.0)
        done = collector.completed_windows()
        assert len(done) == 1
        assert (done[0].start, done[0].end) == (0.0, 100.0)
        # The high water only moves forward; an entry below it is late.
        collector.advance_watermark(50.0)
        feed(collector, entry(60.0))
        assert collector.stats.late_dropped == 1


class TestNonFiniteTimestamps:
    """NaN/inf timestamps are rejected before the high-water math: they
    must not drive counters negative or pin the watermark at infinity."""

    @staticmethod
    def counters(stats):
        return (
            stats.ingested, stats.deduplicated, stats.late_dropped,
            stats.reordered, stats.windows_emitted, stats.rejected,
        )

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), float("-inf")])
    def test_later_events_still_land(self, bad):
        collector = StreamingCollector(window_seconds=100.0, reorder_slack=2.0)
        collector.ingest_arrays(
            np.array([1.0, 2.0]), np.array([1, 2]), np.array([7, 7])
        )
        collector.ingest_arrays(np.array([bad]), np.array([3]), np.array([7]))
        assert collector.stats.rejected == 1
        assert all(value >= 0 for value in self.counters(collector.stats))
        collector.ingest_arrays(
            np.array([3.0, 150.0]), np.array([4, 5]), np.array([7, 7])
        )
        assert collector.stats.late_dropped == 0
        first, second = collector.flush()
        assert first.observations[7].timestamps == [1.0, 2.0, 3.0]
        assert second.observations[7].timestamps == [150.0]
        assert all(value >= 0 for value in self.counters(collector.stats))
        assert collector.stats.ingested == 5
        assert collector.stats.windows_emitted == 2

    @pytest.mark.parametrize("slack", [0.0, 2.0])
    def test_mixed_chunk_keeps_finite_entries(self, slack):
        collector = StreamingCollector(window_seconds=100.0, reorder_slack=slack)
        ts = np.array([1.0, np.nan, np.inf, -np.inf, 5.0])
        collector.ingest_arrays(ts, np.arange(5), np.full(5, 9))
        assert collector.stats.rejected == 3
        assert collector.stats.late_dropped == 0
        (window,) = collector.flush()
        assert window.observations[9].timestamps == [1.0, 5.0]
        assert window.observations[9].queriers == [0, 4]

    def test_engine_counts_rejected_as_ingest_drops(self):
        from repro.sensor.engine import SensorConfig, SensorEngine

        engine = SensorEngine(
            config=SensorConfig(window_seconds=100.0, reorder_slack=2.0)
        )
        engine.ingest_block(
            EntryBlock.from_arrays(
                np.array([1.0, 2.0, np.inf, np.nan, 3.0]),
                np.array([1, 2, 3, 4, 5]),
                np.full(5, 7),
            )
        )
        (sensed,) = engine.finish()
        assert sensed.window.observations[7].timestamps == [1.0, 2.0, 3.0]
        stats = {s.name: s for s in engine.accounting()}
        assert stats["ingest"].items_in == 5
        assert stats["ingest"].dropped == 2
        assert stats["ingest"].items_out == 3
        assert stats["window"].items_in == 3
        assert stats["window"].dropped == 0


class TestBatchEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=950, allow_nan=False),
                st.integers(1, 4),
                st.integers(1, 3),
            ),
            max_size=80,
        )
    )
    def test_matches_batch_collection(self, raw):
        entries = [entry(t, q, o) for t, q, o in sorted(raw, key=lambda r: r[0])]
        collector = StreamingCollector(window_seconds=250.0, reorder_slack=0.0)
        collector.ingest_block(EntryBlock.from_entries(entries))
        streamed = {
            (w.start, w.end): w for w in collector.flush() if len(w)
        }
        # Canonical semantics: each streamed window equals collect_window
        # run on that window's boundaries (dedup state is scoped to the
        # observation window — see sensor/streaming.py).
        for (start, end), window in streamed.items():
            batch = collect_window(entries, start, end)
            assert set(window.observations) == set(batch.observations)
            for originator, observation in window.observations.items():
                expected = batch.observations[originator]
                assert observation.timestamps == expected.timestamps
                assert observation.queriers == expected.queriers
