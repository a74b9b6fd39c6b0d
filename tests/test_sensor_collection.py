"""Tests for dedup and observation-window grouping (§ III-A/B).

``TestDedup`` pins the scalar dedup reference (``tests/oracles.py``) that
the columnar dedup is property-tested against; ``TestCollectWindow``
runs the production batch path, :meth:`SensorEngine.collect`.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dnssim.message import QueryLogEntry
from repro.sensor.collection import DEDUP_WINDOW_SECONDS, ObservationWindow
from repro.sensor.engine import SensorEngine
from tests.oracles import dedup_entries


def entry(ts: float, querier: int = 1, originator: int = 2) -> QueryLogEntry:
    return QueryLogEntry(timestamp=ts, querier=querier, originator=originator)


def collect_window(entries, start: float, end: float) -> ObservationWindow:
    return SensorEngine().collect(entries, start, end)


class TestDedup:
    def test_duplicate_within_window_dropped(self):
        entries = [entry(0.0), entry(10.0), entry(29.999)]
        assert dedup_entries(entries) == [entry(0.0)]

    def test_outside_window_kept(self):
        entries = [entry(0.0), entry(30.0)]
        assert dedup_entries(entries) == entries

    def test_window_measured_from_last_kept_not_last_seen(self):
        # Burst at 0, 20, 40: the 20s one is dropped; 40 is 40s after the
        # kept query at 0, so it survives (rate-limit semantics).
        entries = [entry(0.0), entry(20.0), entry(40.0)]
        assert dedup_entries(entries) == [entry(0.0), entry(40.0)]

    def test_distinct_pairs_not_deduped(self):
        entries = [
            entry(0.0, querier=1),
            entry(1.0, querier=2),
            entry(2.0, querier=1, originator=3),
        ]
        assert dedup_entries(entries) == entries

    def test_unordered_input_rejected(self):
        with pytest.raises(ValueError):
            dedup_entries([entry(10.0), entry(0.0)])

    def test_zero_window_keeps_everything(self):
        entries = [entry(0.0), entry(0.0), entry(0.1)]
        assert dedup_entries(entries, window=0.0) == entries

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            dedup_entries([], window=-1.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1000, allow_nan=False),
                st.integers(1, 3),
                st.integers(1, 3),
            ),
            max_size=50,
        )
    )
    def test_no_surviving_duplicates_within_window(self, raw):
        entries = [entry(t, q, o) for t, q, o in sorted(raw, key=lambda r: r[0])]
        kept = dedup_entries(entries)
        by_pair: dict[tuple[int, int], list[float]] = {}
        for e in kept:
            by_pair.setdefault((e.querier, e.originator), []).append(e.timestamp)
        for times in by_pair.values():
            for a, b in zip(times, times[1:]):
                assert b - a >= DEDUP_WINDOW_SECONDS

    @given(
        st.lists(
            st.floats(min_value=0, max_value=10_000, allow_nan=False), max_size=50
        )
    )
    def test_output_subset_and_first_kept(self, times):
        entries = [entry(t) for t in sorted(times)]
        kept = dedup_entries(entries)
        assert set(e.timestamp for e in kept) <= set(e.timestamp for e in entries)
        if entries:
            assert kept[0] == entries[0]


class TestCollectWindow:
    def test_groups_by_originator(self):
        entries = [
            entry(0.0, querier=1, originator=10),
            entry(1.0, querier=2, originator=10),
            entry(2.0, querier=1, originator=20),
        ]
        window = collect_window(entries, 0.0, 100.0)
        assert len(window) == 2
        assert window.observations[10].footprint == 2
        assert window.observations[20].footprint == 1

    def test_time_range_is_half_open(self):
        entries = [entry(0.0), entry(50.0), entry(100.0)]
        window = collect_window(entries, 0.0, 100.0)
        assert window.observations[2].query_count == 2

    def test_dedup_applied(self):
        entries = [entry(0.0), entry(5.0)]
        window = collect_window(entries, 0.0, 100.0)
        assert window.observations[2].query_count == 1

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            collect_window([], 10.0, 10.0)

    def test_footprint_counts_unique_queriers(self):
        entries = [entry(float(i) * 40, querier=i % 3) for i in range(9)]
        window = collect_window(entries, 0.0, 1e6)
        assert window.observations[2].footprint == 3
        assert window.observations[2].query_count == 9

    def test_duration_days(self):
        window = ObservationWindow(start=0.0, end=86400.0 * 2)
        assert window.duration_days == 2.0

    def test_contains_and_get(self):
        window = collect_window([entry(0.0)], 0.0, 10.0)
        assert 2 in window
        assert window.get(2) is not None
        assert window.get(99) is None
