"""One end-to-end benchmark of the backscatter sensor: events in, verdicts out.

Usage::

    python3 e2ebench/run.py --workload stream_windows --seed 1 --seconds 20 --trace 0

Workloads: ``stream_windows``, ``bulk_batch``, ``bulk_sharded`` and
``serve_feed`` (see README.md).  Inputs for the seed are built first, in
a process of their own, unless ``e2ebench/.inputs`` already holds them.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run instead.  The run exits non-zero,
without that line, if any output fails its check.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

WORKLOADS = ("stream_windows", "bulk_batch", "bulk_sharded", "serve_feed")
END_TO_END = {
    "events_per_s": "1/s",
    "verdict_latency_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "datasets.load_s": "s",
    "sensor.ingest_s": "s",
    "sensor.window_s": "s",
    "sensor.featurize_s": "s",
    "sensor.events": "count",
    "sensor.events_deduplicated": "count",
    "sensor.windows": "count",
    "sensor.originators": "count",
    "sensor.rows": "count",
    "ml.fit_s": "s",
    "ml.trees_fit": "count",
    "ml.predict_s": "s",
    "ml.tree_rows_predicted": "count",
    "ml.vote_s": "s",
    "federation.process_s": "s",
    "federation.shard_s": "s",
    "federation.shard_event_skew": "ratio",
    "service.decode_s": "s",
    "service.queue_wait_s": "s",
    "service.pump_busy": "share",
    "service.fit_s": "s",
    "service.swaps": "count",
    "generator.lag_s": "s",
    "trace.events_per_s_ratio": "ratio",
    "trace.blocking_share": "share",
}
UNREACHABLE = {
    "stream_windows": "federation.*, service.*, generator.*: not on this workload's path",
    "bulk_batch": (
        "sensor.window_s: batch collect() ingests and windows in one call, so its self time "
        "is all in sensor.ingest_s; federation.*, service.*, generator.*: not on this path"
    ),
    "bulk_sharded": (
        "sensor.ingest_s, sensor.window_s, sensor.featurize_s: run inside the shard "
        "processes, out of reach of the wrappers (federation.shard_s reads the shards' own "
        "repro_federation_shard_seconds instead); service.*, generator.*: not on this path"
    ),
    "serve_feed": "federation.*: not on this workload's path",
}


def ensure_inputs(seed: int) -> tuple[Path, Path]:
    """Build the seed's inputs in a separate process unless cached."""
    import inputs

    if not inputs.seed_dir(seed).exists() or not inputs.base_dir().exists():
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--seed", str(seed)],
            check=True, stdout=subprocess.DEVNULL,
        )
    return inputs.seed_dir(seed), inputs.base_dir()


def run(workload: str, seed: int, seconds: float, trace: bool):
    import serve
    import workloads

    seed_dir, base_dir = ensure_inputs(seed)
    data = workloads.Inputs(seed_dir, base_dir)
    if workload == "serve_feed":
        return serve.serve_feed(data, seconds, trace)
    return getattr(workloads, workload)(data, seconds, trace)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in outcome.notes:
        print(f"# {note}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:>24} {value:14.6f} {unit}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if args.trace:
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(outcome.layers)
        unknown = set(layers) - set(PER_LAYER)
        if unknown:
            raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
        print(f"# not measured on {args.workload}: {UNREACHABLE[args.workload]}")
        spans_path = HERE / ".out" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.parent.mkdir(exist_ok=True)
        spans_path.write_text(json.dumps(outcome.spans))
        print(f"# {len(outcome.spans)} spans written to {spans_path.relative_to(HERE.parent)}")
        for name, value in layers.items():
            print(f"{name:>28} {value:14.6f} {PER_LAYER[name]}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {
            name: {"value": outcome.metrics[name][0], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    if not finite:
        print("CHECK FAILED: a metric is not finite", file=sys.stderr)
    print(json.dumps({
        "correct": finite and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
