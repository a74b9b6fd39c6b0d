"""Side studies quoted in README.md; each measurement runs in a fresh process.

    python3 e2ebench/studies.py sketch --seed 1   # exact vs sketch pre-stage, several overlays
    python3 e2ebench/studies.py shards --seed 1   # FederatedSensor at 1 and 2 shards
    python3 e2ebench/studies.py burst --seed 1    # the whole log at once into repro serve

They are not part of the timed benchmark and print plain text tables.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from workloads import Inputs, own_peak_mb  # noqa: E402

OVERLAYS = (4, 12, 24)
PASSES = 3


def _overlay_log(seed: int, overlay: int) -> Path:
    """The bulk recipe at another overlay count, tail scaled to match."""
    from repro.logstore import EntryBlock, save_block

    path = inputs.CACHE / f"study-seed{seed}-overlay{overlay}.npz"
    if path.exists():
        return path
    with np.load(inputs.base_dir() / "log.npz") as base:
        ts, q, o = base["timestamp"], base["querier"], base["originator"]
    sources = np.unique(o)
    rng = np.random.default_rng(seed)
    taken = np.unique(np.concatenate([q, sources]))
    copies = inputs.fresh_addresses(rng, overlay * len(sources), taken).reshape(overlay, -1)
    taken = np.unique(np.concatenate([taken, copies.ravel()]))
    tail_ts, tail_q, tail_o = inputs.tail(
        rng, np.unique(q), float(ts[0]), float(ts[-1]) + 1.0, taken,
        originators=inputs.TAIL_ORIGINATORS * overlay // inputs.OVERLAY,
    )
    all_ts = np.concatenate([np.tile(ts, overlay), tail_ts])
    order = np.argsort(all_ts, kind="stable")
    save_block(path, EntryBlock.from_arrays(
        all_ts[order],
        np.concatenate([np.tile(q, overlay), tail_q])[order],
        np.concatenate([inputs.readdress(o, sources, c) for c in copies] + [tail_o])[order],
    ))
    return path


def _child(args) -> None:
    """One measurement; prints a JSON line."""
    import repro.datasets
    import repro.logstore
    from repro.federation import FederatedSensor
    from repro.sensor import SensorConfig, SensorEngine

    data = Inputs(inputs.seed_dir(args.seed), inputs.base_dir())
    block = repro.logstore.load_block(args.log)
    directory = repro.datasets.read_directory(inputs.base_dir() / "queriers.jsonl")
    labeled = data.labels()
    start, end = float(block.timestamps[0]), float(block.timestamps[-1]) + 1.0
    config = SensorConfig(window_seconds=end - start, origin=start,
                          sketch_enabled=args.mode == "sketch")
    federation = (FederatedSensor(directory, config, n_shards=args.shards)
                  if args.shards else None)
    walls, fronts, verdicts = [], [], None
    for _ in range(PASSES):
        first = time.perf_counter()
        if federation is None:
            engine = SensorEngine(directory, config)
            features = engine.featurize(engine.collect(block, start, end))
        else:
            engine = federation
            features = federation.process(block, start, end, classify=False)[0].features
        fronts.append(time.perf_counter() - first)
        engine.fit(features, labeled.restrict_to({int(o) for o in features.originators}))
        verdicts = engine.classify(features)
        walls.append(time.perf_counter() - first)
    peak = own_peak_mb()
    if federation is not None:
        import multiprocessing

        from workloads import child_peak_mb

        peak += sum(child_peak_mb(p.pid) for p in multiprocessing.active_children())
        federation.close()
    print(json.dumps({
        "events": len(block),
        "rows": len(features),
        "verdicts": sorted((v.originator, v.app_class) for v in verdicts),
        "events_per_s": len(block) / statistics.median(walls),
        "collect_featurize_s": statistics.median(fronts),
        "pass_s": statistics.median(walls),
        "peak_rss_mb": peak,
    }))


def _measure(seed: int, log: Path, mode: str = "exact", shards: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "_child", "--seed", str(seed), "--log", str(log),
         "--mode", mode, "--shards", str(shards)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def sketch(seed: int) -> None:
    print(f"{'overlay':>7} {'events':>9} {'mode':>6} {'events/s':>10} "
          f"{'collect+featurize s':>20} {'peak MB':>8}")
    for overlay in OVERLAYS:
        log = _overlay_log(seed, overlay)
        exact = _measure(seed, log, "exact")
        approx = _measure(seed, log, "sketch")
        for mode, result in (("exact", exact), ("sketch", approx)):
            print(f"{overlay:>7} {result['events']:>9} {mode:>6} {result['events_per_s']:>10.0f} "
                  f"{result['collect_featurize_s']:>20.3f} {result['peak_rss_mb']:>8.1f}")
        if approx["verdicts"] != exact["verdicts"]:
            print(f"  overlay {overlay}: sketch verdicts differ from exact")


def shards(seed: int) -> None:
    log = inputs.seed_dir(seed) / "bulk.npz"
    results = {n: _measure(seed, log, shards=n) for n in (1, 2)}
    for n, result in results.items():
        print(f"{n} shard(s): pass {result['pass_s']:.3f} s, process (partition, shards, merge) "
              f"{result['collect_featurize_s']:.3f} s, peak {result['peak_rss_mb']:.1f} MB")
    one, two = results[1], results[2]
    print(f"1-shard / 2-shard: pass {one['pass_s'] / two['pass_s']:.3f}, "
          f"process {one['collect_featurize_s'] / two['collect_featurize_s']:.3f}")
    if one["verdicts"] != two["verdicts"]:
        print("verdicts differ between 1 and 2 shards")


def burst(seed: int) -> None:
    """``repro serve --retrain daily --window 21600 --once`` on the stream log."""
    folder = inputs.seed_dir(seed)
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "-l", str(folder / "stream.npz"),
         "-d", str(inputs.base_dir() / "queriers.jsonl"), "-t", str(folder / "labels.json"),
         "--port", "0", "--window", "21600", "--retrain", "daily", "--once"],
        capture_output=True, text=True, check=True, env=env, timeout=600,
    )
    for line in done.stdout.splitlines():
        if re.match(r"(replayed|served)", line):
            print(line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("study", choices=("sketch", "shards", "burst", "_child"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--log", type=Path)
    parser.add_argument("--mode", default="exact")
    parser.add_argument("--shards", type=int, default=0)
    args = parser.parse_args()
    if args.study == "_child":
        _child(args)
        return 0
    inputs.ensure(args.seed)
    {"sketch": sketch, "shards": shards, "burst": burst}[args.study](args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
