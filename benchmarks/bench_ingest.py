"""Full-pipeline ingest benchmark: object input vs. columnar block input.

Builds a synthetic heavy-tailed backscatter log spanning several
observation windows, replays it through the window + select stages of
:class:`repro.sensor.engine.SensorEngine` four ways — {batch, stream} x
{object, block} — with an optional sketch pre-stage variant of each,
and writes ``BENCH_ingest.json``:

* **object** — a ``list[QueryLogEntry]`` handed to the engine
  (``windows`` / ``ingest_many``), which converts it to an
  :class:`repro.logstore.EntryBlock` at the API boundary: the timing is
  that conversion plus the block core;
* **block** — the same events as one ``EntryBlock`` fed straight to the
  columnar core (``windows`` / ``ingest_block``).

Each mode reports events/s (best of ``--rounds`` timed runs after one
untimed warm-up run); the batch modes also report peak incremental
memory from a separate ``tracemalloc`` run.  The emitted windows of every object/block pair
are compared observation by observation and the report records the
verdict.  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_ingest.py --quick

``--quick`` shrinks the workload so CI can smoke-test the harness in
seconds; ``--assert-block-faster`` fails the run unless the block path
meets the object path's throughput (batch and streaming, exact mode);
``--assert-stream-sketch`` gates the vectorized streaming-sketch path
(>= 0.5x the plain stream block throughput and >= 4x the pre-
vectorization scalar baseline); any object/block divergence fails the
run unconditionally.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import tracemalloc
from pathlib import Path

from repro.dnssim.message import QueryLogEntry
from repro.logstore import EntryBlock
from repro.sensor.engine import SensorConfig, SensorEngine

WINDOW_SECONDS = 21_600.0
N_WINDOWS = 4
SPAN = WINDOW_SECONDS * N_WINDOWS

#: Committed stream_sketch throughput (events/s) from the last
#: BENCH_ingest.json produced *before* the pre-stage grew its
#: array-native verdict path — the scalar per-event fallback on the
#: single-CPU CI host.  ``--assert-stream-sketch`` gates against 4x this.
SCALAR_STREAM_SKETCH_BASELINE = 23_327.8


def synthetic_log(
    events_target: int, min_queriers: int, seed: int
) -> list[QueryLogEntry]:
    """A time-ordered, tail-dominated backscatter day spanning 4 windows.

    The same regime as ``bench_sketch``: a small head of loud
    originators over a long sub-gate tail, each querier issuing one or
    two queries (the second inside the 30 s dedup horizon so the dedup
    stage has real work).  Events are spread uniformly over ``SPAN`` so
    every mode exercises window turnover, not just one interval.
    """
    rng = random.Random(seed)
    n_tail = max(1, int(0.7 * events_target / (1.4 * 2.0)))
    n_head = max(10, int(0.3 * events_target / (1.4 * 175)))
    events: list[tuple[float, int, int]] = []
    for rank in range(n_head + n_tail):
        originator = 0x0A000000 + rank
        if rank < n_head:
            footprint = rng.randint(100, 250)
        else:
            footprint = min(1 + int(rng.expovariate(1.0)), max(1, min_queriers - 1))
        for q in range(footprint):
            querier = 0xC0000000 + (rank * 131_071 + q * 8_191) % 2_000_003
            timestamp = rng.random() * SPAN
            events.append((timestamp, querier, originator))
            if rng.random() < 0.4:  # in-horizon duplicate for the dedup stage
                events.append(
                    (
                        min(timestamp + rng.random() * 25.0, SPAN - 1e-6),
                        querier,
                        originator,
                    )
                )
    events.sort()
    return [QueryLogEntry(timestamp=t, querier=q, originator=o) for t, q, o in events]


def config_for(min_queriers: int, sketch: bool, capacity: int) -> SensorConfig:
    return SensorConfig(
        window_seconds=WINDOW_SECONDS,
        min_queriers=min_queriers,
        sketch_enabled=sketch,
        sketch_capacity=max(4096, capacity),
    )


def run_batch(config: SensorConfig, payload) -> list:
    engine = SensorEngine(config=config)
    return engine.windows(payload, 0.0, SPAN)


def run_stream(config: SensorConfig, payload, chunk: int) -> list:
    engine = SensorEngine(config=config)
    windows = []
    if isinstance(payload, EntryBlock):
        for offset in range(0, len(payload), chunk):
            engine.ingest_block(payload[offset : offset + chunk])
            windows.extend(s.window for s in engine.poll(classify=False))
    else:
        for offset in range(0, len(payload), chunk):
            engine.ingest_many(payload[offset : offset + chunk])
            windows.extend(s.window for s in engine.poll(classify=False))
    windows.extend(s.window for s in engine.finish(classify=False))
    return windows


def window_signature(windows: list) -> list:
    """Everything downstream stages see, in emission order."""
    return [
        (
            window.start,
            window.end,
            [
                (originator, tuple(obs.timestamps), tuple(obs.queriers))
                for originator, obs in window.observations.items()
            ],
        )
        for window in windows
    ]


def timed(rounds: int, runner, *args):
    """Best-of-*rounds* seconds and the last result, after one untimed
    warm-up call: a cold first call pays one-time allocator and page-fault
    costs that land on whichever mode happens to run first."""
    best = float("inf")
    result = runner(*args)
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = runner(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def peak_memory(runner, *args) -> int:
    """Peak incremental bytes of one pass (inputs pre-allocated)."""
    tracemalloc.start()
    try:
        runner(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=300_000, help="target event count")
    parser.add_argument("--min-queriers", type=int, default=10, help="analyzability bar")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--rounds", type=int, default=3, help="best-of rounds per mode")
    parser.add_argument(
        "--chunk", type=int, default=5000, help="streaming chunk size (entries)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale (small log, 2 rounds)"
    )
    parser.add_argument(
        "--assert-block-faster",
        action="store_true",
        help="fail unless the block path meets the object path's "
        "throughput (batch and streaming, exact mode)",
    )
    parser.add_argument(
        "--assert-stream-sketch",
        action="store_true",
        help="fail unless the vectorized stream_sketch block path reaches "
        ">=0.5x the plain stream block throughput and >=4x the "
        "pre-vectorization scalar baseline",
    )
    parser.add_argument(
        "-o", "--output", default="BENCH_ingest.json", help="output JSON path"
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.events = min(args.events, 60_000)
        args.rounds = min(args.rounds, 2)

    print(f"generating ~{args.events:,} events …", flush=True)
    entries = synthetic_log(args.events, args.min_queriers, args.seed)
    t0 = time.perf_counter()
    block = EntryBlock.from_entries(entries)
    build_seconds = time.perf_counter() - t0
    print(
        f"log: {len(entries):,} events, block {block.nbytes / 1e6:.1f} MB "
        f"(built in {build_seconds:.3f}s)",
        flush=True,
    )

    exact = config_for(args.min_queriers, False, len(entries))
    sketch = config_for(args.min_queriers, True, len(entries))

    def mode_report(seconds: float, peak: int | None = None) -> dict:
        report = {
            "seconds": round(seconds, 6),
            "events_per_s": round(len(entries) / seconds, 1),
        }
        if peak is not None:
            report["peak_memory_mb"] = round(peak / 1e6, 3)
        return report

    report: dict = {
        "benchmark": "ingest",
        "events": len(entries),
        "windows": N_WINDOWS,
        "min_queriers": args.min_queriers,
        "rounds": args.rounds,
        "chunk": args.chunk,
        "cpu_count": os.cpu_count(),
        "block_build_seconds": round(build_seconds, 6),
        "block_nbytes": block.nbytes,
    }
    failures: list[str] = []
    speedups: dict[str, float] = {}

    for mode, sketched, config in (
        ("batch", False, exact),
        ("batch_sketch", True, sketch),
        ("stream", False, exact),
        ("stream_sketch", True, sketch),
    ):
        streaming = mode.startswith("stream")
        if streaming:
            object_seconds, object_windows = timed(
                args.rounds, run_stream, config, entries, args.chunk
            )
            block_seconds, block_windows = timed(
                args.rounds, run_stream, config, block, args.chunk
            )
            object_peak = block_peak = None
        else:
            object_seconds, object_windows = timed(
                args.rounds, run_batch, config, entries
            )
            block_seconds, block_windows = timed(args.rounds, run_batch, config, block)
            object_peak = peak_memory(run_batch, config, entries)
            block_peak = peak_memory(run_batch, config, block)
        identical = window_signature(object_windows) == window_signature(block_windows)
        speedup = round(object_seconds / block_seconds, 3)
        report[mode] = {
            "object": mode_report(object_seconds, object_peak),
            "block": mode_report(block_seconds, block_peak),
            "speedup": speedup,
            "windows_emitted": len(block_windows),
            "identical": identical,
        }
        speedups[mode] = speedup
        print(
            f"  {mode:>13}: object {len(entries) / object_seconds:>11,.0f} ev/s   "
            f"block {len(entries) / block_seconds:>11,.0f} ev/s   "
            f"{speedup:>6.2f}x  {'identical' if identical else 'DIVERGED'}",
            flush=True,
        )
        if not identical:
            failures.append(f"{mode}: object and block windows diverge")

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.assert_block_faster:
        for mode in ("batch", "stream"):
            if report[mode]["speedup"] < 1.0:
                failures.append(
                    f"{mode}: block path is slower than the object path "
                    f"(speedup {report[mode]['speedup']:.3f}x)"
                )
    if args.assert_stream_sketch:
        sketched = report["stream_sketch"]["block"]["events_per_s"]
        plain = report["stream"]["block"]["events_per_s"]
        if sketched < 0.5 * plain:
            failures.append(
                "stream_sketch: block path below half the plain stream "
                f"throughput ({sketched:,.0f} vs {plain:,.0f} events/s)"
            )
        if sketched < 4.0 * SCALAR_STREAM_SKETCH_BASELINE:
            failures.append(
                "stream_sketch: block path below 4x the pre-vectorization "
                f"scalar baseline ({sketched:,.0f} vs "
                f"{SCALAR_STREAM_SKETCH_BASELINE:,.0f} events/s)"
            )
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
