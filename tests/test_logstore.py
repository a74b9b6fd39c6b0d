"""The columnar log store: EntryBlock, on-disk formats, dedup_mask.

The dedup_mask property tests pin the tentpole contract of the array
ingest plane: the vectorized keep-mask is **bit-identical** to the
scalar ``dedup_entries`` reference (``tests/oracles.py``) on every
log, including tie-heavy, coarse-timestamp, and chunked-with-carry
replays.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnssim.message import QueryLogEntry
from repro.logstore import (
    ENTRY_DTYPE,
    EntryBlock,
    blocks_from_entries,
    concat_blocks,
    dedup_mask,
    iter_blocks,
    load_block,
    save_block,
)
from tests.oracles import dedup_entries


def make_entries(rows):
    return [QueryLogEntry(timestamp=t, querier=q, originator=o) for t, q, o in rows]


def make_block(rows):
    return EntryBlock(np.array(rows, dtype=ENTRY_DTYPE))


class TestEntryBlock:
    def test_dtype_is_three_flat_columns(self):
        assert ENTRY_DTYPE.names == ("timestamp", "querier", "originator")
        assert ENTRY_DTYPE.itemsize == 24

    def test_rejects_wrong_dtype_and_shape(self):
        with pytest.raises(ValueError, match="dtype"):
            EntryBlock(np.zeros(3, dtype=np.float64))
        with pytest.raises(ValueError, match="1-D"):
            EntryBlock(np.zeros((2, 2), dtype=ENTRY_DTYPE))

    def test_roundtrips_entries(self):
        entries = make_entries([(1.5, 7, 9), (2.0, 8, 9), (2.0, 7, 10)])
        block = EntryBlock.from_entries(entries)
        assert len(block) == 3
        assert block.to_entries() == entries
        assert block[1] == entries[1]
        assert block[-1] == entries[-1]

    def test_from_arrays_copies_and_validates(self):
        ts = np.array([1.0, 2.0])
        block = EntryBlock.from_arrays(ts, np.array([1, 2]), np.array([3, 4]))
        ts[0] = 99.0
        assert block.timestamps[0] == 1.0
        with pytest.raises(ValueError, match="identical shapes"):
            EntryBlock.from_arrays(ts, np.array([1]), np.array([3, 4]))

    def test_empty_block_is_falsy_and_sorted(self):
        block = EntryBlock.empty()
        assert not block
        assert len(block) == 0
        assert block.is_sorted

    def test_chunked_construction_matches_whole(self):
        entries = make_entries([(float(i), i % 5, i % 3) for i in range(100)])
        chunks = list(blocks_from_entries(entries, chunk_events=7))
        assert [len(c) for c in chunks] == [7] * 14 + [2]
        assert concat_blocks(chunks) == EntryBlock.from_entries(entries)
        assert EntryBlock.from_entries(iter(entries), chunk_events=7) == (
            EntryBlock.from_entries(entries)
        )

    def test_chunk_events_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            list(blocks_from_entries([], chunk_events=0))
        with pytest.raises(ValueError, match="positive"):
            list(make_block([(1.0, 1, 1)]).iter_chunks(0))

    def test_concat_carries_sortedness_across_abutting_blocks(self):
        a = make_block([(1.0, 1, 1), (2.0, 2, 2)])
        b = make_block([(2.0, 3, 3), (4.0, 4, 4)])
        assert a.is_sorted and b.is_sorted
        merged = concat_blocks([a, b])
        assert merged._sorted is True  # no re-scan needed
        out_of_order = concat_blocks([b, a])
        assert out_of_order._sorted is None
        assert not out_of_order.is_sorted

    def test_sort_is_stable_on_timestamp_ties(self):
        block = make_block([(2.0, 1, 1), (1.0, 2, 2), (2.0, 3, 3), (1.0, 4, 4)])
        out = block.sort()
        assert out.queriers.tolist() == [2, 4, 1, 3]  # arrival order kept in ties
        assert out.is_sorted
        assert block.sort() is not out or True
        sorted_block = make_block([(1.0, 1, 1), (2.0, 2, 2)])
        assert sorted_block.sort() is sorted_block  # no-op on sorted input

    def test_slice_time_half_open_on_sorted_and_unsorted(self):
        rows = [(0.0, 1, 1), (1.0, 2, 2), (2.0, 3, 3), (3.0, 4, 4)]
        for block in (make_block(rows), make_block(rows[::-1])):
            sub = block.slice_time(1.0, 3.0)
            assert sorted(sub.timestamps.tolist()) == [1.0, 2.0]

    def test_slices_and_masks_preserve_sorted_metadata(self):
        block = make_block([(float(i), i, i) for i in range(10)])
        assert block.is_sorted
        assert block[2:5]._sorted is True
        assert block[np.array([True] * 5 + [False] * 5)]._sorted is True
        assert block[::-1]._sorted is None  # backward step: unknown
        assert block[np.array([3, 1])]._sorted is None  # fancy: unknown

    def test_iter_yields_entry_objects(self):
        entries = make_entries([(1.0, 2, 3)])
        assert list(EntryBlock.from_entries(entries)) == entries

    def test_blocks_are_unhashable_value_objects(self):
        block = make_block([(1.0, 1, 1)])
        assert block == make_block([(1.0, 1, 1)])
        assert block != make_block([(1.0, 1, 2)])
        with pytest.raises(TypeError):
            hash(block)


class TestDiskIO:
    @pytest.fixture()
    def block(self):
        return make_block([(1.25, 7, 9), (2.5, 8, 9), (30.0, 7, 10)])

    @pytest.mark.parametrize("suffix", [".npz", ".npy"])
    def test_roundtrip(self, tmp_path, block, suffix):
        path = tmp_path / f"log{suffix}"
        save_block(path, block)
        loaded = load_block(path)
        assert loaded == block
        assert loaded.is_sorted

    def test_npz_preserves_sorted_metadata(self, tmp_path, block):
        # The .npz container carries the cached flag; the raw .npy
        # layout has no metadata sidecar and re-checks lazily.
        assert block.is_sorted
        path = tmp_path / "log.npz"
        save_block(path, block)
        assert load_block(path)._sorted is True

    def test_npy_mmap_loads_readonly_view(self, tmp_path, block):
        path = tmp_path / "log.npy"
        save_block(path, block)
        mapped = load_block(path, mmap=True)
        assert mapped == block
        assert isinstance(mapped.data, np.memmap)
        with pytest.raises((ValueError, OSError)):
            mapped.data["timestamp"][0] = 0.0

    def test_npz_mmap_is_rejected(self, tmp_path, block):
        path = tmp_path / "log.npz"
        save_block(path, block)
        with pytest.raises(ValueError, match="memory-mapped"):
            load_block(path, mmap=True)

    def test_save_via_method_load_via_classmethod(self, tmp_path, block):
        path = tmp_path / "log.npz"
        block.save(path)
        assert EntryBlock.load(path) == block

    def test_iter_blocks_chunks_the_file(self, tmp_path):
        block = make_block([(float(i), i, i) for i in range(10)])
        path = tmp_path / "log.npy"
        save_block(path, block)
        chunks = list(iter_blocks(path, chunk_events=4))
        assert [len(c) for c in chunks] == [4, 4, 2]
        assert concat_blocks(chunks) == block


# -- dedup_mask == dedup_entries, property-tested -------------------------

# Coarse timestamps force ties and near-horizon gaps; tiny id spaces
# force pair collisions.  Both are the adversarial regime for dedup.
entry_rows = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=200.0).map(lambda t: round(t, 1)),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=60,
)
windows = st.sampled_from([0.0, 0.1, 1.0, 30.0])


def mask_to_entries(entries, mask):
    return [e for e, keep in zip(entries, mask) if keep]


class TestDedupMaskProperties:
    @given(entry_rows, windows)
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_reference(self, rows, window):
        rows.sort(key=lambda r: r[0])
        entries = make_entries(rows)
        block = EntryBlock.from_entries(entries)
        mask, updates = dedup_mask(
            block.timestamps, block.queriers, block.originators, window
        )
        assert mask_to_entries(entries, mask) == dedup_entries(entries, window)
        assert updates == {}  # carry=None reports no delta

    @given(entry_rows, windows, st.integers(min_value=1, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_chunked_with_carry_matches_whole(self, rows, window, chunk):
        rows.sort(key=lambda r: r[0])
        entries = make_entries(rows)
        expected = dedup_entries(entries, window)
        block = EntryBlock.from_entries(entries)
        carry: dict[tuple[int, int], float] = {}
        kept: list[QueryLogEntry] = []
        for sub in block.iter_chunks(chunk):
            mask, updates = dedup_mask(
                sub.timestamps, sub.queriers, sub.originators, window, carry=carry
            )
            kept.extend(mask_to_entries(sub.to_entries(), mask))
            carry.update(updates)
        assert kept == expected

    @given(entry_rows, windows, st.integers(min_value=1, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_pruned_carry_matches_whole(self, rows, window, chunk):
        # Regression for the carry-dict leak: ``updates`` only reports
        # pairs still inside the horizon, so a caller may prune stale
        # pairs between chunks without changing a single verdict.  Before
        # the fix, ``updates`` echoed every pair in the chunk and the
        # carry grew with stream length instead of horizon occupancy.
        rows.sort(key=lambda r: r[0])
        entries = make_entries(rows)
        expected = dedup_entries(entries, window)
        block = EntryBlock.from_entries(entries)
        carry: dict[tuple[int, int], float] = {}
        kept: list[QueryLogEntry] = []
        for sub in block.iter_chunks(chunk):
            mask, updates = dedup_mask(
                sub.timestamps, sub.queriers, sub.originators, window, carry=carry
            )
            kept.extend(mask_to_entries(sub.to_entries(), mask))
            carry.update(updates)
            t_end = float(sub.timestamps[-1])
            # Every reported update must already be horizon-live...
            assert all(t_end - t < window for t in updates.values())
            # ...and pruning the carry on the same predicate is safe.
            carry = {
                pair: t for pair, t in carry.items() if t_end - t < window
            }
        assert kept == expected

    def test_float_horizon_uses_subtraction_predicate(self):
        # 2.3 - 1.3 = 0.9999999999999998 < 1.0, so the repeat is dropped;
        # a searchsorted on (1.3 + 1.0 == 2.3) would wrongly keep it.
        entries = make_entries([(1.3, 1, 1), (2.3, 1, 1)])
        block = EntryBlock.from_entries(entries)
        mask, _ = dedup_mask(block.timestamps, block.queriers, block.originators, 1.0)
        assert mask.tolist() == [True, False]
        assert dedup_entries(entries, 1.0) == entries[:1]

    def test_negative_window_rejected(self):
        block = EntryBlock.empty()
        with pytest.raises(ValueError, match="non-negative"):
            dedup_mask(block.timestamps, block.queriers, block.originators, -1.0)
