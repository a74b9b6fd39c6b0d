"""Tests for the sharded federation layer (`repro.federation`).

The load-bearing property: N shard engines merged by the driver are
bit-identical to one `SensorEngine` over the unpartitioned input — rows,
matrices, contexts, verdicts, and stage accounting — across batch vs
streaming and exact vs sketch mode, for any shard count.  Plus the
driver-owned reorder front, the partition helpers, and cross-vantage
verdict fusion.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnssim.message import QueryLogEntry
from repro.federation import (
    FederatedSensor,
    FusedOriginator,
    ReorderFront,
    fuse_verdicts,
    note_first_appearance,
    partition_arrays,
    shard_of,
)
from repro.logstore import EntryBlock
from repro.netmodel.world import NameStatus
from repro.sensor.curation import LabeledSet
from repro.sensor.directory import QuerierInfo, StaticDirectory
from repro.sensor.engine import ClassifiedOriginator, SensorConfig, SensorEngine
from repro.telemetry import MetricsRegistry


def entry(ts: float, querier: int = 1, originator: int = 2) -> QueryLogEntry:
    return QueryLogEntry(timestamp=ts, querier=querier, originator=originator)


COUNTRIES = ("jp", "us", "de")


def directory_for(queriers: range) -> StaticDirectory:
    return StaticDirectory(
        {
            q: QuerierInfo(
                addr=q,
                name=f"host{q}.example.net",
                status=NameStatus.OK,
                asn=q % 5 + 1,
                country=COUNTRIES[q % len(COUNTRIES)],
            )
            for q in queriers
        }
    )


def synthetic_entries(
    n_originators: int = 8,
    queriers_per: int = 12,
    windows: int = 3,
    width: float = 100.0,
) -> list[QueryLogEntry]:
    """A deterministic multi-window log with dedup-able repeats."""
    rng = np.random.default_rng(7)
    out: list[QueryLogEntry] = []
    for w in range(windows):
        for o in range(1, n_originators + 1):
            for k in range(queriers_per):
                q = 100 + (o * 13 + k * 7) % 40
                t = w * width + float(rng.uniform(0.0, width - 1.0))
                out.append(entry(t, querier=q, originator=o))
                if k % 4 == 0:  # a repeat inside the 30 s dedup horizon
                    out.append(entry(min(t + 5.0, w * width + width - 0.5),
                                     querier=q, originator=o))
    out.sort(key=lambda e: e.timestamp)
    return out


def assert_windows_match(merged, sensed) -> None:
    """One FederatedWindow against the single engine's SensedWindow."""
    expected = sensed.features
    got = merged.features
    assert np.array_equal(got.originators, expected.originators)
    assert np.array_equal(got.matrix, expected.matrix)
    assert np.array_equal(got.footprints, expected.footprints)
    assert got.context == expected.context
    assert merged.verdicts == sensed.verdicts


def stats_snapshot(stats) -> list[tuple[str, int, int, int]]:
    return [(s.name, s.items_in, s.items_out, s.dropped) for s in stats]


class TestPartitionHelpers:
    def test_shard_of_is_deterministic_and_in_range(self):
        originators = np.arange(0, 5000, dtype=np.int64)
        a = shard_of(originators, 4, seed=0)
        b = shard_of(originators, 4, seed=0)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 4
        # All shards get a share of a diverse keyspace.
        assert len(np.unique(a)) == 4
        # A different seed permutes the assignment.
        assert not np.array_equal(a, shard_of(originators, 4, seed=1))

    def test_partition_arrays_covers_every_event(self):
        ts = np.arange(20, dtype=np.float64)
        qs = np.arange(20, dtype=np.int64)
        os_ = (np.arange(20, dtype=np.int64) % 6) + 1
        parts = partition_arrays(ts, qs, os_, n_shards=3, seed=0)
        assert sum(len(p[0]) for p in parts) == 20
        seen = np.concatenate([p[2] for p in parts])
        assert sorted(seen.tolist()) == sorted(os_.tolist())

    def test_note_first_appearance_ranks_by_first_kept_event(self):
        ranks: dict[int, dict[int, int]] = {}
        ts = np.array([0.0, 1.0, 2.0, 3.0, 150.0])
        os_ = np.array([5, 3, 5, 9, 3], dtype=np.int64)
        note_first_appearance(ts, os_, 0.0, 100.0, ranks)
        assert ranks[0] == {5: 0, 3: 1, 9: 2}
        assert ranks[1] == {3: 0}
        # A later call extends the existing window's ordering.
        note_first_appearance(
            np.array([4.0]), np.array([7], dtype=np.int64), 0.0, 100.0, ranks
        )
        assert ranks[0][7] == 3


class TestReorderFront:
    def test_in_order_passthrough(self):
        front = ReorderFront(origin=0.0, reorder_slack=0.0)
        ts = np.array([1.0, 2.0, 3.0])
        qs = np.array([1, 2, 3], dtype=np.int64)
        os_ = np.array([1, 1, 1], dtype=np.int64)
        out_ts, out_qs, out_os = front.push(ts, qs, os_)
        assert np.array_equal(out_ts, ts)
        assert np.array_equal(out_qs, qs)
        assert front.ingested == 3 and front.late_dropped == 0

    def test_reorders_within_slack(self):
        front = ReorderFront(origin=0.0, reorder_slack=5.0)
        ts = np.array([10.0, 8.0, 11.0])
        ids = np.array([1, 2, 3], dtype=np.int64)
        out_ts, out_qs, _ = front.push(ts, ids, ids)
        released = np.concatenate([out_ts, front.flush()[0]])
        assert released.tolist() == [8.0, 10.0, 11.0]
        assert front.late_dropped == 0
        assert front.reordered >= 1

    def test_drops_beyond_slack(self):
        front = ReorderFront(origin=0.0, reorder_slack=2.0)
        ids = np.array([1, 2], dtype=np.int64)
        front.push(np.array([100.0, 50.0]), ids, ids)
        assert front.late_dropped == 1
        (ts, _, _) = front.flush()
        assert front.ingested == 2

    def test_pre_origin_dropped(self):
        front = ReorderFront(origin=1000.0, reorder_slack=0.0)
        one = np.array([1], dtype=np.int64)
        front.push(np.array([500.0]), one, one)
        assert front.late_dropped == 1


class TestBatchEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_bit_identical_to_single_engine(self, n_shards):
        directory = directory_for(range(100, 140))
        config = SensorConfig(window_seconds=100.0, min_queriers=3)
        entries = synthetic_entries()
        engine = SensorEngine(directory, config)
        expected = engine.process(entries, 0.0, 300.0, classify=False)
        with FederatedSensor(
            directory, config, n_shards=n_shards, processes=False
        ) as federated:
            merged = federated.process(entries, 0.0, 300.0, classify=False)
            assert len(merged) == len(expected) == 3
            for got, want in zip(merged, expected):
                assert (got.start, got.end) == (want.window.start, want.window.end)
                assert_windows_match(got, want)
            assert stats_snapshot(federated.accounting()) == stats_snapshot(
                engine.accounting()
            )

    def test_gap_windows_are_emitted_empty(self):
        directory = directory_for(range(100, 140))
        config = SensorConfig(window_seconds=100.0, min_queriers=3)
        entries = [entry(5.0, querier=q, originator=1) for q in range(100, 110)]
        engine = SensorEngine(directory, config)
        expected = engine.process(entries, 0.0, 400.0, classify=False)
        with FederatedSensor(
            directory, config, n_shards=2, processes=False
        ) as federated:
            merged = federated.process(entries, 0.0, 400.0, classify=False)
        assert len(merged) == len(expected) == 4
        for got, want in zip(merged[1:], expected[1:]):
            assert len(got.features) == len(want.features) == 0
            assert got.features.context == want.features.context

    def test_shard_count_invariance(self):
        directory = directory_for(range(100, 140))
        config = SensorConfig(window_seconds=100.0, min_queriers=3)
        entries = synthetic_entries()
        results = []
        for n_shards in (1, 2, 4):
            with FederatedSensor(
                directory, config, n_shards=n_shards, processes=False
            ) as federated:
                results.append(federated.process(entries, 0.0, 300.0, classify=False))
        for other in results[1:]:
            for got, want in zip(other, results[0]):
                assert np.array_equal(
                    got.features.originators, want.features.originators
                )
                assert np.array_equal(got.features.matrix, want.features.matrix)

    def test_sketch_mode_matches_single_engine(self):
        directory = directory_for(range(100, 140))
        config = SensorConfig(
            window_seconds=100.0,
            min_queriers=3,
            sketch_enabled=True,
            hll_precision=10,
        )
        entries = synthetic_entries()
        engine = SensorEngine(directory, config)
        expected = engine.process(entries, 0.0, 300.0, classify=False)
        with FederatedSensor(
            directory, config, n_shards=3, processes=False
        ) as federated:
            merged = federated.process(entries, 0.0, 300.0, classify=False)
            for got, want in zip(merged, expected):
                assert_windows_match(got, want)
            assert stats_snapshot(federated.accounting()) == stats_snapshot(
                engine.accounting()
            )

    def test_classify_through_adopted_trainer(self):
        directory = directory_for(range(100, 140))
        config = SensorConfig(window_seconds=100.0, min_queriers=3, majority_runs=3)
        entries = synthetic_entries()
        trainer = SensorEngine(directory, config)
        window = trainer.process(entries, 0.0, 100.0, classify=False)[0]
        labeled = LabeledSet.from_pairs(
            (int(o), "scan" if int(o) % 2 else "dns")
            for o in window.features.originators
        )
        trainer.fit(window.features, labeled)
        expected = trainer.process(entries, 0.0, 300.0)
        with FederatedSensor(
            directory, config, n_shards=2, processes=False
        ) as federated:
            federated.fit_from(trainer)
            assert federated.is_fitted
            merged = federated.process(entries, 0.0, 300.0)
        for got, want in zip(merged, expected):
            assert got.verdicts == want.verdicts
            assert got.classification == {
                v.originator: v.app_class for v in want.verdicts
            }


class TestStreamingEquivalence:
    def _stream(self, sensor, block, chunk=400):
        windows = []
        for lo in range(0, len(block), chunk):
            sensor.ingest_block(block[lo : lo + chunk])
            windows.extend(sensor.poll(classify=False))
        windows.extend(sensor.finish(classify=False))
        return windows

    def _mildly_disordered(self, entries):
        block = EntryBlock.from_entries(entries)
        ts = block.timestamps.copy()
        rng = np.random.default_rng(3)
        ts += rng.uniform(0.0, 1.5, size=ts.shape)  # jitter within slack
        order = np.argsort(ts, kind="stable")
        # Feed in jittered order but with the original timestamps, so
        # the front genuinely has to reorder.
        return EntryBlock.from_arrays(
            block.timestamps[order], block.queriers[order], block.originators[order]
        )

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_chunked_stream_matches_single_engine(self, n_shards):
        directory = directory_for(range(100, 140))
        config = SensorConfig(
            window_seconds=100.0, min_queriers=3, reorder_slack=2.0
        )
        block = self._mildly_disordered(synthetic_entries())
        engine = SensorEngine(directory, config)
        expected = self._stream(engine, block)
        with FederatedSensor(
            directory, config, n_shards=n_shards, processes=False
        ) as federated:
            merged = self._stream(federated, block)
            assert len(merged) == len(expected) > 0
            for got, want in zip(merged, expected):
                assert (got.start, got.end) == (want.window.start, want.window.end)
                assert_windows_match(got, want)
            assert stats_snapshot(federated.accounting()) == stats_snapshot(
                engine.accounting()
            )

    def test_streaming_sketch_rows_match_modulo_order(self):
        # Documented exception: in streaming sketch mode the single
        # engine emits rows in promotion order while the federation's
        # canonical order is first appearance.  Contents still match.
        directory = directory_for(range(100, 140))
        config = SensorConfig(
            window_seconds=100.0,
            min_queriers=3,
            sketch_enabled=True,
            hll_precision=10,
        )
        block = EntryBlock.from_entries(synthetic_entries())
        engine = SensorEngine(directory, config)
        expected = self._stream(engine, block)
        with FederatedSensor(
            directory, config, n_shards=2, processes=False
        ) as federated:
            merged = self._stream(federated, block)
        assert len(merged) == len(expected)
        for got, want in zip(merged, expected):
            want_rows = {
                int(o): want.features.matrix[i]
                for i, o in enumerate(want.features.originators)
            }
            got_rows = {
                int(o): got.features.matrix[i]
                for i, o in enumerate(got.features.originators)
            }
            assert set(got_rows) == set(want_rows)
            for o, row in got_rows.items():
                assert np.array_equal(row, want_rows[o])

    @pytest.mark.parametrize("chunk", [1, 7, 400])
    def test_streaming_sketch_vectorized_chunks_match_scalar_feed(self, chunk):
        # Shards inherit the pre-stage's array-native verdict path via
        # ingest_arrays; any chunk split must promote the same rows as a
        # per-entry scalar feed of a single engine.  (Row *order* differs
        # by the documented promotion-vs-first-appearance exception.)
        directory = directory_for(range(100, 140))
        config = SensorConfig(
            window_seconds=100.0,
            min_queriers=3,
            sketch_enabled=True,
            hll_precision=10,
        )
        entries = synthetic_entries()
        engine = SensorEngine(directory, config)
        for e in entries:
            engine.ingest_block(EntryBlock.from_entries([e]))
        expected = engine.poll(classify=False) + engine.finish(classify=False)
        block = EntryBlock.from_entries(entries)
        with FederatedSensor(
            directory, config, n_shards=2, processes=False
        ) as federated:
            merged = self._stream(federated, block, chunk=chunk)
        assert len(merged) == len(expected) > 0
        for got, want in zip(merged, expected):
            want_rows = {
                int(o): want.features.matrix[i]
                for i, o in enumerate(want.features.originators)
            }
            got_rows = {
                int(o): got.features.matrix[i]
                for i, o in enumerate(got.features.originators)
            }
            assert set(got_rows) == set(want_rows)
            for o, row in got_rows.items():
                assert np.array_equal(row, want_rows[o])
            assert got.features.context == want.features.context


class TestStreamingProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=290.0, allow_nan=False),
                st.integers(100, 139),
                st.integers(1, 6),
            ),
            max_size=60,
        )
    )
    def test_random_streams_match_single_engine(self, raw):
        directory = directory_for(range(100, 140))
        config = SensorConfig(window_seconds=100.0, min_queriers=2)
        entries = [entry(t, q, o) for t, q, o in sorted(raw, key=lambda r: r[0])]
        block = EntryBlock.from_entries(entries)
        engine = SensorEngine(directory, config)
        engine.ingest_block(block)
        expected = engine.poll(classify=False) + engine.finish(classify=False)
        with FederatedSensor(
            directory, config, n_shards=3, processes=False
        ) as federated:
            federated.ingest_block(block)
            merged = federated.poll(classify=False) + federated.finish(
                classify=False
            )
        assert len(merged) == len(expected)
        for got, want in zip(merged, expected):
            assert_windows_match(got, want)


class TestProcessPool:
    def test_fork_pool_matches_inline(self):
        directory = directory_for(range(100, 140))
        config = SensorConfig(window_seconds=100.0, min_queriers=3)
        entries = synthetic_entries(windows=1)
        with FederatedSensor(
            directory, config, n_shards=2, processes=False
        ) as inline:
            expected = inline.process(entries, 0.0, 100.0, classify=False)
        with FederatedSensor(
            directory, config, n_shards=2, processes=True
        ) as forked:
            merged = forked.process(entries, 0.0, 100.0, classify=False)
        for got, want in zip(merged, expected):
            assert np.array_equal(got.features.matrix, want.features.matrix)
            assert np.array_equal(
                got.features.originators, want.features.originators
            )

    def test_telemetry_instruments_emitted(self):
        registry = MetricsRegistry()
        directory = directory_for(range(100, 140))
        config = SensorConfig(window_seconds=100.0, min_queriers=3)
        with FederatedSensor(
            directory, config, n_shards=2, processes=False, registry=registry
        ) as federated:
            federated.process(synthetic_entries(windows=1), 0.0, 100.0)
            federated.accounting()
        names = set(registry.names())
        assert "repro_federation_blocks_total" in names
        assert "repro_federation_events_total" in names
        assert "repro_federation_windows_total" in names
        assert "repro_federation_rows_total" in names
        assert "repro_stage_items_total" in names

    def test_invalid_construction(self):
        directory = directory_for(range(100, 102))
        with pytest.raises(ValueError):
            FederatedSensor(directory, n_shards=0)
        with pytest.raises(ValueError):
            FederatedSensor(None)


class TestVerdictFusion:
    def test_footprint_weighted_majority(self):
        fused = fuse_verdicts(
            {
                "JP-DNS": [ClassifiedOriginator(9, "scan", 40)],
                "B-Root": [ClassifiedOriginator(9, "dns", 4)],
                "M-Root": [ClassifiedOriginator(9, "dns", 5)],
            }
        )
        assert len(fused) == 1
        top = fused[0]
        assert isinstance(top, FusedOriginator)
        assert top.app_class == "scan"  # 40 outweighs 4 + 5
        assert top.footprint == 40
        assert top.vantages == ("B-Root", "JP-DNS", "M-Root")
        assert top.agreement is False
        assert top.verdicts == {"JP-DNS": "scan", "B-Root": "dns", "M-Root": "dns"}

    def test_tie_breaks_lexicographically(self):
        fused = fuse_verdicts(
            {
                "a": [ClassifiedOriginator(1, "spam", 10)],
                "b": [ClassifiedOriginator(1, "scan", 10)],
            }
        )
        assert fused[0].app_class == "scan"

    def test_sorted_by_footprint_then_originator(self):
        fused = fuse_verdicts(
            {
                "a": [
                    ClassifiedOriginator(3, "scan", 5),
                    ClassifiedOriginator(1, "dns", 50),
                    ClassifiedOriginator(2, "mail", 5),
                ]
            }
        )
        assert [f.originator for f in fused] == [1, 2, 3]

    def test_single_vantage_degenerates_to_identity(self):
        verdicts = [ClassifiedOriginator(7, "cdn", 12)]
        fused = fuse_verdicts({"only": verdicts})
        assert fused[0].app_class == "cdn"
        assert fused[0].agreement is True
        assert fused[0].footprints == {"only": 12}


class TestCrossVantageFusion:
    @pytest.fixture(scope="class")
    def bundle(self):
        from repro.datasets import VantageSpec, generate_multi_vantage, spec_for

        spec = spec_for("B-post-ditl", "tiny")
        return generate_multi_vantage(
            spec,
            [
                VantageSpec(name="JP-DNS", kind="national", country="jp", sites=2),
                VantageSpec(name="B-Root", kind="root", root_letter="b"),
            ],
        )

    def test_one_simulation_feeds_every_vantage(self, bundle):
        assert set(bundle.sensors) == {"JP-DNS", "B-Root"}
        lengths = {name: len(a.log.block()) for name, a in bundle.sensors.items()}
        assert all(n > 0 for n in lengths.values())
        # The national sensor sits below most caching; the root behind
        # nearly-complete caching — attenuation must differ.
        assert lengths["JP-DNS"] != lengths["B-Root"]

    def test_fused_verdicts_across_attenuated_views(self, bundle):
        directory = bundle.directory()
        truth = bundle.true_classes()
        config = SensorConfig(
            window_seconds=bundle.duration_seconds,
            min_queriers=3,
            majority_runs=3,
        )
        per_vantage: dict[str, list[ClassifiedOriginator]] = {}
        for name, authority in bundle.sensors.items():
            engine = SensorEngine(directory, config)
            window = engine.process(
                authority.log.block(), 0.0, bundle.duration_seconds, classify=False
            )[0]
            features = window.features
            labeled = LabeledSet.from_pairs(
                (int(o), truth[int(o)])
                for o in features.originators
                if int(o) in truth
            )
            if len(labeled) < 4 or len(labeled.classes_present()) < 2:
                pytest.skip("tiny preset produced too few analyzable rows")
            engine.fit(features, labeled)
            per_vantage[name] = engine.classify(features)
        fused = fuse_verdicts(per_vantage)
        assert fused
        by_origin = {f.originator: f for f in fused}
        multi = [f for f in fused if len(f.vantages) == 2]
        assert multi, "vantages share no originators — fusion untested"
        for f in fused:
            assert f.footprint == max(f.footprints.values())
            assert set(f.footprints) <= {"JP-DNS", "B-Root"}
            assert isinstance(f.agreement, bool)
        # Fusing a vantage with itself changes nothing.
        solo = fuse_verdicts({"JP-DNS": per_vantage["JP-DNS"]})
        for f in solo:
            assert f.app_class == next(
                v.app_class
                for v in per_vantage["JP-DNS"]
                if v.originator == f.originator
            )
        assert len(by_origin) == len(fused)
