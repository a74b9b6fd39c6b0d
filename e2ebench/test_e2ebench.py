"""Tests of the benchmark itself: its reference checker, inputs and runs.

Run from the repository root::

    python3 -m pytest -q e2ebench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402


def log(*events):
    """Columns of a time-sorted log from (timestamp, querier, originator)."""
    events = sorted(events, key=lambda e: e[0])
    ts, q, o = zip(*events) if events else ((), (), ())
    return np.array(ts, float), np.array(q, np.int64), np.array(o, np.int64)


def crowd(originator: int, queriers: int, at: float = 0.0):
    """One query from each of *queriers* distinct queriers, 1 s apart."""
    return [(at + k, 1000 + k, originator) for k in range(queriers)]


class TestDedup:
    def test_pair_29_9_seconds_apart_is_one_query(self):
        assert reference.dedup_count(*log((0.0, 1, 9), (29.9, 1, 9))) == 1

    def test_pair_exactly_30_seconds_apart_is_two_queries(self):
        assert reference.dedup_count(*log((0.0, 1, 9), (30.0, 1, 9))) == 0

    def test_repeat_is_measured_from_the_last_kept_query(self):
        # 20 s is suppressed; 40 s is 40 s after the kept query at 0 s.
        assert reference.dedup_count(*log((0.0, 1, 9), (20.0, 1, 9), (40.0, 1, 9))) == 1

    def test_pairs_are_per_querier_and_originator(self):
        assert reference.dedup_count(*log((0.0, 1, 9), (1.0, 2, 9), (2.0, 1, 8))) == 0

    def test_pair_straddling_a_window_boundary_is_kept_twice(self):
        ts, q, o = log((95.0, 1, 9), (105.0, 1, 9))
        whole = reference.window_truth(ts, q, o, 0.0, 200.0)
        split = reference.windows_truth(ts, q, o, 0.0, 100.0, 2)
        assert whole.deduplicated == 1
        assert [w.deduplicated for w in split] == [0, 0]
        assert [w.events for w in split] == [1, 1]


class TestAnalyzable:
    def test_gate_is_twenty_distinct_queriers(self):
        ts, q, o = log(*crowd(7, 19), *crowd(8, 20), *crowd(8, 5, at=100.0))
        truth = reference.window_truth(ts, q, o, 0.0, 1000.0)
        assert truth.footprints == {8: 20}
        assert truth.originators == 2

    def test_repeats_do_not_raise_the_footprint(self):
        ts, q, o = log(*crowd(7, 19), *crowd(7, 19, at=500.0))
        assert reference.window_truth(ts, q, o, 0.0, 1000.0).footprints == {}

    def test_mismatches_name_missing_extra_and_wrong(self):
        truth = reference.WindowTruth(0.0, 1.0, 0, 0, {1: 20, 2: 25}, 3)
        assert reference.verdict_mismatches(truth, [(1, 20), (2, 25)]) == []
        problems = reference.verdict_mismatches(truth, [(1, 21), (3, 30)])
        assert len(problems) == 3


def test_reference_agrees_with_the_engine_on_the_edge_cases():
    from repro.logstore import EntryBlock
    from repro.sensor import SensorConfig, SensorEngine

    ts, q, o = log(
        (0.0, 1, 9), (29.9, 1, 9), (40.0, 2, 9), (70.0, 2, 9), (95.0, 3, 9), (105.0, 3, 9),
        *crowd(8, 20, at=10.0), *crowd(7, 19, at=120.0),
    )
    engine = SensorEngine(None, SensorConfig(window_seconds=100.0, origin=0.0))
    windows = engine.windows(EntryBlock.from_arrays(ts, q, o), 0.0, 200.0)
    truths = reference.windows_truth(ts, q, o, 0.0, 100.0, 2)
    dropped = {s.name: s.dropped for s in engine.accounting()}["window"]
    assert dropped == sum(t.deduplicated for t in truths) == 1
    for window, truth in zip(windows, truths):
        footprints = {a: obs.footprint for a, obs in window.observations.items()}
        assert {a: f for a, f in footprints.items() if f >= 20} == truth.footprints


def test_same_seed_gives_the_same_inputs(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "CACHE", tmp_path)
    first = inputs.ensure(5)
    snapshot = {p.name: p.read_bytes() for p in first.iterdir()}
    again = inputs.ensure(5, force=True)
    assert {p.name: p.read_bytes() for p in again.iterdir()} == snapshot
    other = inputs.ensure(6)
    assert (other / "bulk.npz").read_bytes() != snapshot["bulk.npz"]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_run_is_correct(workload):
    """Each workload end to end at its smallest size: one round."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_quick_traced_run_reports_every_layer():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "stream_windows", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stderr
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["ml.trees_fit"]["value"] == 600 * 2
