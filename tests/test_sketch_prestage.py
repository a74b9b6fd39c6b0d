"""The sketch pre-stage wired into the sensing pipeline.

Covers: SketchParams / SensorConfig sketch-knob validation and the gate
math; batch-mode agreement (sketch-on selection and feature matrices
identical to the exact path); streaming-mode promotion (materialized
originators are a superset of the exactly-analyzable ones, footprints
never overshoot exact); the exact querier roster; and the telemetry
the pre-stage publishes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnssim.message import QueryLogEntry
from repro.netmodel.world import NameStatus
from repro.sensor.directory import QuerierInfo, StaticDirectory
from repro.sensor.engine import SensorConfig, SensorEngine
from repro.sensor.selection import analyzable
from repro.logstore import EntryBlock
from repro.sketch.prestage import (
    DEFER,
    DUPLICATE,
    KEEP,
    VERDICT_NAMES,
    SketchParams,
    SketchPreStage,
)
from repro.telemetry import MetricsRegistry
from tests.oracles import observe

WINDOW = 3600.0


def synthetic_entries(
    n_originators: int = 40, seed: int = 7, windows: int = 1
) -> list[QueryLogEntry]:
    """Originator ranks spread footprints across the analyzability bar."""
    rng = np.random.default_rng(seed)
    events: list[tuple[float, int, int]] = []
    for w in range(windows):
        for rank in range(n_originators):
            footprint = 1 + rank // 2
            for q in range(footprint):
                ts = w * WINDOW + float(rng.uniform(0.0, WINDOW - 1.0))
                querier = 1000 + (rank * 97 + q * 13) % 5000
                events.append((ts, querier, 0x0A00 + rank))
                if q % 3 == 0:  # an in-horizon duplicate
                    events.append((min(ts + 5.0, (w + 1) * WINDOW - 1e-6), querier, 0x0A00 + rank))
    events.sort()
    return [QueryLogEntry(timestamp=t, querier=q, originator=o) for t, q, o in events]


def directory_for(entries: list[QueryLogEntry]) -> StaticDirectory:
    return StaticDirectory(
        {
            e.querier: QuerierInfo(
                addr=e.querier,
                name=f"host{e.querier}.example.net",
                status=NameStatus.OK,
                asn=1 + e.querier % 5,
                country="jp" if e.querier % 2 else "us",
            )
            for e in entries
        }
    )


class TestSketchParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width": 0},
            {"depth": 0},
            {"hll_precision": 3},
            {"hll_precision": 17},
            {"fp_rate": 0.0},
            {"fp_rate": 1.0},
            {"capacity": 0},
            {"gate_queriers": 0},
            {"promote_queriers": 0},
            {"gate_queriers": 4, "promote_queriers": 5},
            {"dedup_seconds": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SketchParams(**kwargs)

    def test_defaults_are_consistent(self):
        params = SketchParams()
        assert params.promote_queriers <= params.gate_queriers


class TestSensorConfigSketchKnobs:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sketch_width": 0},
            {"sketch_depth": 0},
            {"hll_precision": 3},
            {"hll_precision": 17},
            {"sketch_fp_rate": 0.0},
            {"sketch_fp_rate": 1.0},
            {"sketch_capacity": 0},
            {"sketch_margin": -0.1},
            {"sketch_margin": 1.0},
            {"sketch_promote_queriers": -1},
            {"min_queriers": 10, "sketch_margin": 0.5, "sketch_promote_queriers": 6},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SensorConfig(**kwargs)

    @pytest.mark.parametrize(
        ("min_queriers", "margin", "expected"),
        [(20, 0.5, 10), (10, 0.5, 5), (10, 0.0, 10), (3, 0.9, 1), (1, 0.5, 1)],
    )
    def test_gate_math(self, min_queriers, margin, expected):
        config = SensorConfig(min_queriers=min_queriers, sketch_margin=margin)
        assert config.sketch_gate_queriers == expected
        assert config.sketch_gate_queriers == max(
            1, math.ceil((1 - margin) * min_queriers)
        )

    def test_sketch_params_mirror_config(self):
        config = SensorConfig(
            min_queriers=10,
            sketch_enabled=True,
            sketch_width=512,
            sketch_depth=3,
            hll_precision=8,
            sketch_fp_rate=0.005,
            sketch_capacity=9999,
            seed=77,
        )
        params = config.sketch_params()
        assert (params.width, params.depth) == (512, 3)
        assert params.hll_precision == 8
        assert params.fp_rate == 0.005
        assert params.capacity == 9999
        assert params.gate_queriers == config.sketch_gate_queriers
        # promote=0 means auto: small, but never above the gate.
        assert 1 <= params.promote_queriers <= params.gate_queriers
        assert params.dedup_seconds == config.dedup_window
        assert params.seed == 77

    def test_explicit_promote_respected(self):
        config = SensorConfig(min_queriers=10, sketch_promote_queriers=2)
        assert config.sketch_params().promote_queriers == 2


class TestBatchAgreement:
    """Sketch-on batch runs must agree with the exact path."""

    def engines(self, min_queriers: int = 10):
        entries = synthetic_entries(windows=2)
        directory = directory_for(entries)
        exact = SensorEngine(
            directory, SensorConfig(window_seconds=WINDOW, min_queriers=min_queriers)
        )
        sketched = SensorEngine(
            directory,
            SensorConfig(
                window_seconds=WINDOW,
                min_queriers=min_queriers,
                sketch_enabled=True,
                sketch_capacity=len(entries),
            ),
        )
        return entries, exact, sketched

    def test_selected_sets_and_features_identical(self):
        entries, exact, sketched = self.engines()
        exact_sensed = exact.process(entries, 0.0, 2 * WINDOW, classify=False)
        sketch_sensed = sketched.process(entries, 0.0, 2 * WINDOW, classify=False)
        assert len(exact_sensed) == len(sketch_sensed) == 2
        for e_win, s_win in zip(exact_sensed, sketch_sensed):
            e_feat, s_feat = e_win.features, s_win.features
            assert set(e_feat.originators) == set(s_feat.originators)
            e_order = np.argsort(e_feat.originators)
            s_order = np.argsort(s_feat.originators)
            assert np.array_equal(
                e_feat.originators[e_order], s_feat.originators[s_order]
            )
            assert np.array_equal(e_feat.matrix[e_order], s_feat.matrix[s_order])
            assert np.array_equal(
                e_feat.footprints[e_order], s_feat.footprints[s_order]
            )

    def test_survivor_observations_are_exact(self):
        entries, exact, sketched = self.engines()
        exact_win = exact.windows(entries, 0.0, WINDOW)[0]
        sketch_win = sketched.windows(entries, 0.0, WINDOW)[0]
        assert sketch_win.prestage is not None
        assert sketch_win.prestage.exact_observations
        for originator, observation in sketch_win.observations.items():
            assert observation == exact_win.observations[originator]

    def test_roster_matches_exact_querier_universe(self):
        entries, exact, sketched = self.engines()
        exact_win = exact.windows(entries, 0.0, WINDOW)[0]
        sketch_win = sketched.windows(entries, 0.0, WINDOW)[0]
        exact_universe = set()
        for observation in exact_win.observations.values():
            exact_universe.update(observation.queriers)
        roster = sketch_win.querier_roster
        assert roster is not None
        assert set(int(q) for q in roster) == exact_universe
        assert bool((np.diff(roster) > 0).all())  # sorted unique

    def test_no_false_drops_on_this_workload(self):
        entries, exact, sketched = self.engines()
        exact_win = exact.windows(entries, 0.0, WINDOW)[0]
        sketch_win = sketched.windows(entries, 0.0, WINDOW)[0]
        footprints = {
            o: ob.footprint for o, ob in exact_win.observations.items()
        }
        assert sketch_win.prestage.false_drops(footprints, 10) == 0

    def test_out_of_order_entries_raise(self):
        entries, _, sketched = self.engines()
        shuffled = [entries[1], entries[0]] + entries[2:]
        with pytest.raises(ValueError, match="time-ordered"):
            sketched.windows(shuffled, 0.0, WINDOW)


class TestStreamingMode:
    def test_materialized_subset_with_bounded_trail(self):
        entries = synthetic_entries()
        config = SensorConfig(
            window_seconds=WINDOW, min_queriers=10, sketch_enabled=True,
            sketch_capacity=len(entries),
        )
        exact_engine = SensorEngine(config=SensorConfig(window_seconds=WINDOW, min_queriers=10))
        sketch_engine = SensorEngine(config=config)
        exact_win = exact_engine.windows(entries, 0.0, WINDOW)[0]
        for entry in entries:
            sketch_engine.ingest_block(EntryBlock.from_entries([entry]))
        sketch_win = sketch_engine.finish(classify=False)[0].window
        prestage = sketch_win.prestage
        assert prestage is not None
        assert not prestage.exact_observations
        exact_analyzable = {
            o.originator for o in analyzable(exact_win, 10)
        }
        materialized = set(sketch_win.observations)
        # Every exactly-analyzable originator must have been promoted.
        assert exact_analyzable <= materialized
        for originator, observation in sketch_win.observations.items():
            exact_fp = exact_win.observations[originator].footprint
            assert observation.footprint <= exact_fp

    def test_observe_verdicts(self):
        params = SketchParams(promote_queriers=2, gate_queriers=2, capacity=1024)
        prestage = SketchPreStage(params)

        def verdict_of(t: float, querier: int, originator: int) -> str:
            codes, _ = prestage.observe_arrays(
                np.array([t]), np.array([querier]), np.array([originator])
            )
            return VERDICT_NAMES[int(codes[0])]

        assert verdict_of(0.0, 1, 9) == DEFER
        assert verdict_of(1.0, 1, 9) == DUPLICATE
        verdict = verdict_of(2.0, 2, 9)
        assert verdict in (KEEP, DEFER)  # estimate crosses 2 modulo HLL collisions
        for q in range(3, 20):
            verdict = verdict_of(float(q), q, 9)
        assert prestage.is_promoted(9)
        assert verdict_of(30.5, 1, 9) in (KEEP, DUPLICATE)


class TestTelemetry:
    def test_sketch_metric_families_present(self):
        entries = synthetic_entries()
        registry = MetricsRegistry()
        engine = SensorEngine(
            directory_for(entries),
            SensorConfig(
                window_seconds=WINDOW, min_queriers=10,
                sketch_enabled=True, sketch_capacity=len(entries),
            ),
            registry=registry,
        )
        engine.process(entries, 0.0, WINDOW, classify=False)
        text = registry.to_prometheus()
        for family in (
            "repro_select_originators_total",
            "repro_sketch_gate_originators_total",
            "repro_sketch_events_total",
            "repro_sketch_memory_bytes",
            "repro_sketch_estimate_error",
        ):
            assert f"# TYPE {family}" in text, family

    def test_gate_counters_add_up(self):
        entries = synthetic_entries()
        registry = MetricsRegistry()
        engine = SensorEngine(
            directory_for(entries),
            SensorConfig(
                window_seconds=WINDOW, min_queriers=10,
                sketch_enabled=True, sketch_capacity=len(entries),
            ),
            registry=registry,
        )
        sensed = engine.process(entries, 0.0, WINDOW, classify=False)
        prestage = sensed[0].window.prestage
        gate = registry.get("repro_sketch_gate_originators_total")
        assert gate.value(result="kept") == prestage.gate_kept
        assert gate.value(result="dropped") == prestage.gate_dropped
        assert (
            prestage.gate_kept + prestage.gate_dropped == prestage.originators_seen
        )
        events = registry.get("repro_sketch_events_total")
        total_events = (
            events.value(result="unique")
            + events.value(result="duplicate")
        )
        assert total_events == len(entries)

    def test_sensed_telemetry_carries_sketch_block(self):
        entries = synthetic_entries()
        engine = SensorEngine(
            directory_for(entries),
            SensorConfig(
                window_seconds=WINDOW, min_queriers=10,
                sketch_enabled=True, sketch_capacity=len(entries),
            ),
        )
        sensed = engine.process(entries, 0.0, WINDOW, classify=False)[0]
        sketch = sensed.telemetry["sketch"]
        assert sketch["originators_seen"] == sensed.window.prestage.originators_seen
        assert set(sketch["memory_bytes"]) == {"bloom", "cms", "hll", "roster"}

    def test_exact_mode_has_no_sketch_block(self):
        entries = synthetic_entries()
        engine = SensorEngine(
            directory_for(entries),
            SensorConfig(window_seconds=WINDOW, min_queriers=10),
        )
        sensed = engine.process(entries, 0.0, WINDOW, classify=False)[0]
        assert "sketch" not in sensed.telemetry
        assert sensed.window.prestage is None


class TestPreStageProperties:
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_batch_gate_matches_scalar_gate(self, seed, n_originators):
        """One pre-stage fed scalar events == one fed the same batch."""
        rng = np.random.default_rng(seed)
        n = n_originators * 6
        timestamps = np.sort(rng.uniform(0.0, 600.0, n))
        queriers = rng.integers(1, 50, n).astype(np.int64)
        originators = rng.integers(1, n_originators + 1, n).astype(np.int64)
        params = SketchParams(gate_queriers=3, promote_queriers=3, capacity=4096, seed=int(seed))
        scalar = SketchPreStage(params)
        for t, q, o in zip(timestamps, queriers, originators):
            observe(scalar, float(t), int(q), int(o))
        batch = SketchPreStage(params)
        batch.observe_batch(timestamps, queriers, originators)
        assert scalar.events_unique == batch.events_unique
        assert scalar.events_duplicate == batch.events_duplicate
        assert np.array_equal(scalar.survivors(), batch.survivors())
        assert np.array_equal(scalar.roster_array(), batch.roster_array())

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=15, deadline=None)
    def test_merge_matches_single_stage(self, seed):
        rng = np.random.default_rng(seed)
        n = 200
        timestamps = np.sort(rng.uniform(0.0, 600.0, n))
        queriers = rng.integers(1, 40, n).astype(np.int64)
        originators = rng.integers(1, 12, n).astype(np.int64)
        params = SketchParams(gate_queriers=3, promote_queriers=3, capacity=4096)
        whole = SketchPreStage(params)
        whole.observe_batch(timestamps, queriers, originators)
        left, right = SketchPreStage(params), SketchPreStage(params)
        half = n // 2
        left.observe_batch(timestamps[:half], queriers[:half], originators[:half])
        right.observe_batch(timestamps[half:], queriers[half:], originators[half:])
        merged = left | right
        # Sharded dedup can only miss cross-shard duplicates, so unique
        # counts are >= the single-stage ones (documented one-sided
        # semantics); the gate estimate itself is duplicate-insensitive.
        assert merged.events_unique >= whole.events_unique
        assert set(merged.survivors()) >= set(whole.survivors())
        assert np.array_equal(merged.roster_array(), whole.roster_array())
