"""``serve_feed``: an open-loop ``.rbsc`` feed into a ``BackscatterService``.

The service runs in its own process (this file, run as a script): it
reads the stream log, directory and labels, trains the initial model as
``repro serve`` does, and serves with ``feed_port``, ``retrain="daily"``
and 3 h windows in exact mode.  It prints ``READY <http> <feed>`` once
set up, stamps each window's verdicts with ``time.monotonic()`` from the
service's ``on_window`` hook, and on SIGTERM stops gracefully and writes
a JSON result file.

The client (:func:`serve_feed`) sends the log's frames from
``FEED_SKIP`` log seconds on over one loopback connection.  The first
window's frames, up to the one that closes it, are due at once; every
later frame is due ``WARMUP_GAP`` seconds after that plus its log time
past the closing frame compressed ``SERVE_COMPRESSION`` times.  Frames
are sent when due, however far the service lags.  A run feeds the first
``K`` windows, ``K`` fixed by ``--seconds`` (at least ``MIN_WINDOWS``),
ending with the frame whose timestamp closes window ``K``.  Latency runs from the closing frame's
due time to the window's verdicts.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
from tracing import Tracer, install  # noqa: E402
from workloads import (  # noqa: E402
    Inputs,
    Outcome,
    cross_check,
    own_peak_mb,
    span_layers,
)

SERVE_WINDOW = 3 * 3600.0
SERVE_COMPRESSION = 3000.0
"""Log seconds per wall second: one 3 h window of JP-ditl every 3.6 s.
A window classified by a retrained model takes 1.2-2.4 s and the
retrain fit after it 0.2-0.5 s, so the service is busy a little over
half the time and each retrained model is installed before the next
window closes."""
FEED_SKIP = 9 * 3600.0
"""Log seconds left out of the feed; the service's windows start there.
The log's first 9 h are its ramp-up: their 3 h windows hold 21-36
labeled originators, the seven after them 36-42.  A retrained model fits on
one window's labeled rows, so past the ramp-up every retrained window
costs about the same to classify, and the median over windows is a
median of like samples."""
WARMUP_GAP = 2.0
"""Wall seconds between the first window's closing frame and the frames
after it, on top of their compressed log time.  The first window is
classified by the initial model, fit on the whole log's labels, which
takes 2.7-4 s; the gap lets that classify and the first retrain finish
before the second window closes."""
SEND_TICK = 0.02
"""The sender wakes every 20 ms and sends every frame due by then."""
POLL_TICK = 0.5
"""After the feed, ``/healthz`` is polled this often until the last
window is in, so that the requests barely compete with that window's
classify for the service's interpreter."""
REORDER_SLACK = 2.0
"""``SensorConfig.reorder_slack``: a window closes when an event this
far past its end arrives."""
SERVE_SETUP_REPS = 9
MIN_WINDOWS = 3
"""The first window is classified by the initial model, later ones by
retrained models that fit faster; three windows keep the median off
the first.  A run at 24 s feeds seven."""
HEADER = 6
FRAME = np.dtype([("length", ">u2"), ("timestamp", ">f8"), ("querier", ">u4"),
                  ("originator", ">u4")])
HOST_TIMEOUT = 90.0


# -- the service process -------------------------------------------------------


def _setup(inputs: Inputs, tracer: Tracer, window_times: list):
    from repro.sensor import SensorConfig, SensorEngine
    from repro.service import BackscatterService, ServiceConfig

    block = inputs.log("stream")
    directory = inputs.directory()
    labeled = inputs.labels(tracer)
    start = float(block.timestamps[0])
    end = float(block.timestamps[-1]) + 1.0
    trainer = SensorEngine(directory, SensorConfig(window_seconds=end - start, origin=start))
    features = trainer.featurize(trainer.collect(block, start, end))
    present = labeled.restrict_to({int(o) for o in features.originators})
    trainer.fit(features, present)
    config = ServiceConfig(
        sensor=SensorConfig(window_seconds=SERVE_WINDOW,
                            origin=start + FEED_SKIP),
        port=0,
        feed_port=0,
        feed_format="rbsc",
        retrain="daily",
        on_window=lambda sensed: window_times.append(
            (float(sensed.window.start), time.monotonic())),
    )
    service = BackscatterService(directory, config)
    service.fit_from(trainer, labeled=present)
    return service


def service_layers(tracer: Tracer, window_times: list) -> dict:
    """Queue, pump, decode and background-fit metrics from the host's spans."""
    pump = [s for s in tracer.spans if s.thread.startswith("asyncio") and s.parent is None]
    submits = {s.attrs["block"]: s for s in tracer.named("service.submit_block")}
    ingests = [s for s in pump if s.name == "engine.ingest_block"]
    waits = [s.start - submits[s.attrs["block"]].end for s in ingests
             if s.attrs["block"] in submits]
    feed = tracer.named("feed.decode")
    busy_from = min(s.start for s in feed)
    busy_to = max(s.end for s in pump)
    background = [s for s in tracer.named("forest.fit")
                  if not tracer.under(s, "engine.classify")]
    # Host-side part of each event-closed window's latency: queue wait of
    # the closing block, then the pump step up to the window's verdicts.
    covered = []
    for poll in (s for s in pump if s.name == "engine.poll" and s.attrs["windows"]):
        # The pump awaits each step, so the step's ingest is the latest
        # one to start before this poll, on whichever executor thread.
        before = [s for s in ingests if s.start < poll.start]
        if not before:
            continue
        closing = max(before, key=lambda s: s.start)
        submit = submits.get(closing.attrs["block"])
        done = [t for _, t in window_times if poll.start <= t <= poll.end + 1.0]
        if submit is None or not done:
            continue
        covered.append({"submitted": submit.end, "verdict": min(done)})
    return {
        "service.decode_s": sum(s.seconds for s in feed),
        "service.queue_wait_s": statistics.mean(waits) if waits else 0.0,
        "service.pump_busy": sum(s.seconds for s in pump) / (busy_to - busy_from),
        "service.fit_s": sum(s.seconds for s in background),
        "service.swaps": sum(1 for s in tracer.named("manager.apply_pending")
                             if s.attrs["outcome"] == "swapped"),
        "covered": covered,
    }


async def _host(inputs: Inputs, traced: bool, result_path: Path) -> None:
    window_times: list = []
    setup_tracer = Tracer()
    undo = install(setup_tracer) if traced else None
    setups, service = [], None
    for rep in range(SERVE_SETUP_REPS):
        begin = time.perf_counter()
        service = _setup(inputs, setup_tracer, window_times)
        await service.start()
        setups.append(time.perf_counter() - begin)
        if rep < SERVE_SETUP_REPS - 1:
            await service.stop()
    if undo:
        undo()
    tracer = Tracer()
    undo = install(tracer) if traced else None
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, service.request_shutdown)
    print("READY", service.http_address[1], service.feed_address[1], flush=True)
    await service.wait_shutdown()
    await service.stop()
    if undo:
        undo()
    result = {
        "setup_s": setups,
        "window_times": window_times,
        "health": service.health(),
        "windows": service.windows(),
        "fits_started": service.manager.fits_started,
        "accounting": {s.name: (s.items_in, s.items_out, s.dropped, s.seconds)
                       for s in service.engine.accounting()},
        "peak_rss_mb": own_peak_mb(),
    }
    if traced:
        layers = span_layers(tracer)
        problems: list[str] = []
        cross_check(layers, result["accounting"], problems)
        reads = setup_tracer.named("read.log", "read.directory", "read.labels")
        layers["datasets.load_s"] = sum(s.seconds for s in reads) / SERVE_SETUP_REPS
        layers["sensor.events_deduplicated"] = result["accounting"]["window"][2]
        layers.update(service_layers(tracer, window_times))
        result["layers"] = layers
        result["problems"] = problems
        result["spans"] = tracer.dump()
    tmp = result_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(result))
    tmp.rename(result_path)


def host_main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed-dir", type=Path, required=True)
    parser.add_argument("--base-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    asyncio.run(_host(Inputs(args.seed_dir, args.base_dir), bool(args.trace), args.result))
    return 0


# -- the client ----------------------------------------------------------------------


def _get(port: int, path: str) -> dict:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as reply:
        return json.loads(reply.read())


def _run_service(inputs: Inputs, frames: bytes, due: np.ndarray, windows: int,
                 traced: bool) -> dict:
    """Start the host, feed it, collect its answers, stop it."""
    result_path = inputs.seed_dir / f"serve-{os.getpid()}-{int(traced)}.json"
    result_path.unlink(missing_ok=True)
    host = subprocess.Popen(
        [sys.executable, str(Path(__file__)), "--seed-dir", str(inputs.seed_dir),
         "--base-dir", str(inputs.base_dir), "--result", str(result_path),
         "--trace", str(int(traced))],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = host.stdout.readline().split()
        if not ready or ready[0] != "READY":
            raise RuntimeError("service process did not start")
        http_port, feed_port = int(ready[1]), int(ready[2])
        n = len(due)
        lag = 0.0
        with socket.create_connection(("127.0.0.1", feed_port)) as feed:
            feed.sendall(frames[:HEADER])
            first = time.monotonic()
            sent = 0
            while sent < n:
                now = time.monotonic() - first
                upto = int(np.searchsorted(due, now, side="right"))
                if upto > sent:
                    lag = max(lag, now - due[sent])
                    feed.sendall(frames[HEADER + sent * FRAME.itemsize:
                                        HEADER + upto * FRAME.itemsize])
                    sent = upto
                time.sleep(SEND_TICK)
        deadline = time.monotonic() + HOST_TIMEOUT
        while _get(http_port, "/healthz")["windows"] < windows:
            if time.monotonic() > deadline:
                raise RuntimeError("service did not close the fed windows in time")
            time.sleep(POLL_TICK)
        health = _get(http_port, "/healthz")
        verdicts = _get(http_port, "/verdicts")["windows"]
        host.send_signal(signal.SIGTERM)
        host.wait(timeout=HOST_TIMEOUT)
        if host.returncode != 0:
            raise RuntimeError(f"service process exited with {host.returncode}")
        result = json.loads(result_path.read_text())
    finally:
        if host.poll() is None:
            host.kill()
            host.wait()
        host.stdout.close()
        result_path.unlink(missing_ok=True)
    result.update(first=first, lag=lag, live_health=health, live_verdicts=verdicts)
    return result


def serve_feed(inputs: Inputs, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    frames = (inputs.seed_dir / "stream.rbsc").read_bytes()
    records = np.frombuffer(frames, dtype=FRAME, offset=HEADER)
    origin = float(records["timestamp"][0]) + FEED_SKIP
    skip = int(np.searchsorted(records["timestamp"], origin, side="left"))
    frames = frames[:HEADER] + frames[HEADER + skip * FRAME.itemsize:]
    records = records[skip:]
    ts = records["timestamp"].astype(np.float64)
    per_window = SERVE_WINDOW / SERVE_COMPRESSION
    windows = max(MIN_WINDOWS, 1 + int((seconds - WARMUP_GAP) // per_window))
    ends = origin + SERVE_WINDOW * np.arange(1, windows + 1)
    closing = np.searchsorted(ts, ends + REORDER_SLACK, side="left")
    count = int(closing[-1]) + 1
    # The first window goes out at once; the rest follow at the fixed rate.
    due = np.zeros(count)
    first = int(closing[0])
    due[first + 1:] = WARMUP_GAP + (ts[first + 1:count] - ts[first]) / SERVE_COMPRESSION

    run = _run_service(inputs, frames, due, windows, False)
    starts = [origin + k * SERVE_WINDOW for k in range(windows)]
    verdict_at = {start: t for start, t in run["window_times"]}
    latencies = [verdict_at[s] - (run["first"] + due[c]) for s, c in zip(starts, closing)]
    wall = verdict_at[starts[-1]] - run["first"]
    out.metrics["events_per_s"] = (count / wall, "1/s")
    out.metrics["verdict_latency_p50_s"] = (statistics.median(latencies), "s")
    out.metrics["setup_s"] = (statistics.median(run["setup_s"]), "s")
    out.metrics["peak_rss_mb"] = (run["peak_rss_mb"], "MB")
    out.attempted = run["health"]["windows"] + run["fits_started"]
    out.failed = run["health"]["swaps"].get("failed", 0)
    out.notes.append(
        f"{windows} windows fed, {count} frames offered at "
        f"{count / due[-1]:.0f} ev/s, sender lag max {run['lag'] * 1000:.1f} ms, "
        f"model v{run['health']['model_version']}, swaps {run['health']['swaps']}, "
        f"window latencies {[round(float(x), 3) for x in latencies]} s"
    )
    check_serve(out, run, ts[:count], records[:count], origin, windows)
    if trace:
        traced = _run_service(inputs, frames, due, windows, True)
        check_serve(out, traced, ts[:count], records[:count], origin, windows)
        layers = traced["layers"]
        out.problems.extend(traced["problems"])
        covered = layers.pop("covered")
        verdict_at = {start: t for start, t in traced["window_times"]}
        spans_share = [
            (c["verdict"] - c["submitted"]) / (verdict_at[s] - (traced["first"] + due[k]))
            for c, s, k in zip(covered, starts, closing)
        ]
        layers["trace.blocking_share"] = statistics.median(spans_share)
        if not 0.9 <= layers["trace.blocking_share"] <= 1.0 + 1e-9:
            out.problems.append(
                f"trace: host spans cover {layers['trace.blocking_share']:.3f} of latency")
        traced_wall = verdict_at[starts[-1]] - traced["first"]
        layers["trace.events_per_s_ratio"] = wall / traced_wall
        layers["generator.lag_s"] = traced["lag"]
        out.layers = layers
        out.spans = traced["spans"]
    return out


def check_serve(out: Outcome, run: dict, ts, records, origin: float, windows: int) -> None:
    from repro.netmodel.addressing import str_to_ip

    q = records["querier"].astype(np.int64)
    o = records["originator"].astype(np.int64)
    # The flush at shutdown closes one more, partial window.
    truths = reference.windows_truth(ts, q, o, origin, SERVE_WINDOW, windows + 1)
    health, live = run["live_health"], run["live_verdicts"]
    problems = out.problems
    if health["events"] != len(ts):
        problems.append(f"/healthz counts {health['events']} events, {len(ts)} were sent")
    if len(live) != windows or health["windows"] != windows:
        problems.append(f"/verdicts has {len(live)} windows, {windows} were closed")
    for record, truth in zip(live, truths):
        got = [(str_to_ip(v["originator"]), v["footprint"]) for v in record["verdicts"]]
        for mismatch in reference.verdict_mismatches(truth, got):
            problems.append(f"serve window {truth.start:.0f}: {mismatch}")
        bad = {v["app_class"] for v in record["verdicts"]} - reference.PAPER_CLASSES
        if bad:
            problems.append(f"classes outside the paper's 12: {sorted(bad)}")
    versions = [r["model_version"] for r in run["windows"]]
    if versions != sorted(versions):
        problems.append(f"model versions decrease: {versions}")
    if run["health"]["swaps"].get("failed", 0):
        problems.append(f"model swaps failed: {run['health']['swaps']}")
    accounting = run["accounting"]
    if accounting["ingest"][0] != len(ts):
        problems.append(f"ingest saw {accounting['ingest'][0]} of {len(ts)} events")
    expected = sum(t.deduplicated for t in truths)
    if accounting["window"][2] != expected:
        problems.append(f"{accounting['window'][2]} events deduplicated, reference {expected}")


if __name__ == "__main__":
    sys.exit(host_main())
