"""The benchmark's four workloads, each driven through the public API.

Every workload runs set-up ``SETUP_REPS`` times (median reported), then
repeats one fixed *round* of work while the next round still fits in
the run's ``--seconds`` (at least one round), then checks every round's
output against :mod:`reference`.  A round is the same work for every
seed and every run, so medians over rounds compare across runs.

* ``stream_windows`` — a fresh engine replays the first
  ``STREAM_ROUND_WINDOWS`` 4 h windows of the stream log closed-loop in
  ``STREAM_BLOCK``-event blocks (``ingest_block``/``poll``, then
  ``finish`` for the last window).
* ``bulk_batch`` — one window over the bulk log, the way ``repro
  classify`` runs: ``collect`` → ``featurize`` → ``fit`` → ``classify``.
* ``bulk_sharded`` — the same steps through ``FederatedSensor`` with
  ``SHARDS`` shard processes.
* ``serve_feed`` — see :mod:`serve`; the service runs in its own process.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from tracing import Tracer, install

STREAM_WINDOW = 4 * 3600.0
STREAM_BLOCK = 500
STREAM_ROUND_WINDOWS = 2
SHARDS = 2
SETUP_REPS = 9
SECONDS_TOLERANCE = 0.05
"""Relative tolerance between span seconds and ``accounting()`` seconds."""


@dataclass
class Outcome:
    """What one workload run reports."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None
    """Per-layer metrics, from a traced run only."""
    spans: list[dict] = field(default_factory=list)
    """The traced run's spans, written out when the run ends."""


class Inputs:
    """One seed's input files, read through the program's own readers."""

    def __init__(self, seed_dir: Path, base_dir: Path) -> None:
        self.seed_dir = seed_dir
        self.base_dir = base_dir

    def log(self, name: str):
        import repro.logstore

        return repro.logstore.load_block(self.seed_dir / f"{name}.npz")

    def directory(self):
        import repro.datasets

        return repro.datasets.read_directory(self.base_dir / "queriers.jsonl")

    def labels(self, tracer: Tracer | None = None):
        from repro.netmodel.addressing import str_to_ip
        from repro.sensor import LabeledSet

        span = tracer.begin("read.labels") if tracer else None
        raw = json.loads((self.seed_dir / "labels.json").read_text())
        labeled = LabeledSet.from_pairs((str_to_ip(a), c) for a, c in raw.items())
        if span:
            tracer.end(span)
        return labeled

    def raw(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The log's columns read with numpy alone, for the reference."""
        with np.load(self.seed_dir / f"{name}.npz") as data:
            return data["timestamp"], data["querier"], data["originator"]

    def copies(self) -> np.ndarray:
        """Addresses of every overlay copy, one row per copy; row 0 is the stream's."""
        with np.load(self.seed_dir / "copies.npz") as data:
            return data["copies"]


def own_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live child process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def timed_setups(setup, reps: int = SETUP_REPS):
    """Run *setup* *reps* times; returns (last result, median seconds)."""
    seconds, result = [], None
    for _ in range(reps):
        start = time.perf_counter()
        result = setup()
        seconds.append(time.perf_counter() - start)
    return result, statistics.median(seconds)


def repeat_rounds(seconds: float, run_round) -> list:
    """Whole rounds while the next one (as long as the last) still fits."""
    results = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        results.append(run_round())
        last = time.perf_counter() - start
        if time.perf_counter() - begin + last > seconds:
            return results


@dataclass
class Round:
    events: int
    wall: float
    latencies: list[float]
    windows: list
    """(start, [(originator, class, footprint)]) per window."""
    accounting: dict
    rows: dict = field(default_factory=dict)
    """originator -> feature row, when the workload keeps them."""


def accounting_of(engine) -> dict:
    return {s.name: (s.items_in, s.items_out, s.dropped, s.seconds) for s in engine.accounting()}


def verdict_list(verdicts) -> list[tuple[int, str, int]]:
    return [(int(v.originator), v.app_class, int(v.footprint)) for v in verdicts]


# -- checks ----------------------------------------------------------------


def check_windows(rounds: list[Round], truths, problems: list[str]) -> None:
    """Verdict set, footprints, dedup and event counts against the reference."""
    for number, result in enumerate(rounds):
        if len(result.windows) != len(truths):
            problems.append(
                f"round {number}: {len(result.windows)} windows, reference has {len(truths)}"
            )
            continue
        for (start, verdicts), truth in zip(result.windows, truths):
            if abs(start - truth.start) > 1e-6:
                problems.append(f"round {number}: window starts at {start}, expected {truth.start}")
            for mismatch in reference.verdict_mismatches(truth, [(o, f) for o, _, f in verdicts]):
                problems.append(f"round {number}, window {truth.start:.0f}: {mismatch}")
            bad = {c for _, c, _ in verdicts} - reference.PAPER_CLASSES
            if bad:
                problems.append(f"classes outside the paper's 12: {sorted(bad)}")
        ingest, window = result.accounting["ingest"], result.accounting["window"]
        expected_dedup = sum(t.deduplicated for t in truths)
        if window[2] != expected_dedup:
            problems.append(
                f"round {number}: {window[2]} events deduplicated, reference {expected_dedup}"
            )
        if ingest[0] != result.events:
            problems.append(f"round {number}: ingest saw {ingest[0]} of {result.events} events")


def check_copies(result: Round, source_rows: dict, inputs: Inputs, problems: list[str]) -> None:
    """Every re-addressed copy carries its source's feature row and verdict."""
    copies = inputs.copies()
    classes = {o: c for o, c, _ in result.windows[0][1]}
    mismatched_rows = mismatched_verdicts = 0
    for k in range(copies.shape[1]):
        row = source_rows.get(int(copies[0][k]))
        if row is None:
            continue
        for c in range(copies.shape[0]):
            addr = int(copies[c][k])
            got = result.rows.get(addr)
            if got is None or not np.array_equal(got, row):
                mismatched_rows += 1
            if classes.get(addr) != classes.get(int(copies[0][k])):
                mismatched_verdicts += 1
    if mismatched_rows:
        problems.append(f"{mismatched_rows} copies lack their source's feature row")
    if mismatched_verdicts:
        problems.append(f"{mismatched_verdicts} copies lack their source's verdict")
    known = set(copies.ravel().tolist())
    tail = [o for o in classes if o not in known]
    if tail:
        problems.append(f"{len(tail)} sub-gate tail originators got a verdict")


def check_labels(result: Round, labeled, problems: list[str], floor: float = 0.9) -> float:
    truth = {e.originator: e.app_class for e in labeled}
    got = {o: c for o, c, _ in result.windows[0][1]}
    present = [o for o in truth if o in got]
    share = sum(got[o] == truth[o] for o in present) / max(1, len(present))
    if share < floor:
        problems.append(f"verdicts reproduce {share:.3f} of training labels (< {floor})")
    return share


# -- per-layer metrics from spans --------------------------------------------


def span_layers(tracer: Tracer) -> dict[str, float]:
    """Per-layer seconds and counts from one traced round's spans."""

    def total(*names, attr=None, selfish=False):
        picked = tracer.named(*names)
        if attr is not None:
            return sum(s.attrs.get(attr) or 0 for s in picked)
        return sum(s.self_seconds if selfish else s.seconds for s in picked)

    classify_fits = [s for s in tracer.named("forest.fit") if tracer.under(s, "engine.classify")]
    classify_predicts = [
        s for s in tracer.named("forest.predict") if tracer.under(s, "engine.classify")
    ]
    return {
        "sensor.ingest_s": total("engine.ingest_block", "engine.collect", selfish=True),
        "sensor.window_s": total("engine.poll", "engine.finish", selfish=True),
        "sensor.featurize_s": total("engine.featurize"),
        "sensor.events": total("engine.ingest_block", "engine.collect", "federation.process",
                               attr="items"),
        "sensor.windows": total("engine.poll", "engine.finish", "engine.collect",
                                "federation.process", attr="windows"),
        "sensor.originators": total("engine.poll", "engine.finish", "engine.collect",
                                    "federation.process", attr="originators"),
        "sensor.rows": total("engine.featurize", attr="items")
        + total("federation.process", attr="rows"),
        "ml.fit_s": sum(s.seconds for s in classify_fits),
        "ml.trees_fit": sum(s.attrs["trees"] for s in classify_fits),
        "ml.predict_s": sum(s.seconds for s in classify_predicts),
        "ml.tree_rows_predicted": sum(s.attrs["tree_rows"] for s in classify_predicts),
        "ml.vote_s": total("engine.classify", selfish=True),
        "federation.process_s": total("federation.process"),
    }


def cross_check(layers: dict, accounting: dict, problems: list[str]) -> None:
    """Span counts must equal ``accounting()`` exactly; seconds within a tolerance."""
    pairs = [
        ("events", layers["sensor.events"], accounting["ingest"][0]),
        ("windows", layers["sensor.windows"], accounting["window"][1]),
        ("rows", layers["sensor.rows"], accounting["featurize"][1]),
    ]
    for name, spans, counted in pairs:
        if spans != counted:
            problems.append(f"trace: spans count {spans} {name}, accounting() {counted}")
    classify_spans = layers["ml.fit_s"] + layers["ml.predict_s"] + layers["ml.vote_s"]
    counted = accounting["classify"][3]
    if abs(classify_spans - counted) > SECONDS_TOLERANCE * counted + 0.01:
        problems.append(
            f"trace: classify spans {classify_spans:.3f} s, accounting() {counted:.3f} s"
        )


def blocking_share(tracer: Tracer, wall: float) -> float:
    """Share of a round's wall time covered by the main thread's root spans."""
    roots = [s for s in tracer.spans if s.parent is None and s.thread == "MainThread"]
    return sum(s.seconds for s in roots) / wall


# -- stream_windows ----------------------------------------------------------


class StreamSetup:
    def __init__(self, inputs: Inputs, tracer: Tracer | None = None) -> None:
        from repro.sensor import SensorConfig, SensorEngine

        self.block = inputs.log("stream")
        self.directory = inputs.directory()
        labeled = inputs.labels(tracer)
        self.start = float(self.block.timestamps[0])
        end = float(self.block.timestamps[-1]) + 1.0
        self.trainer = SensorEngine(
            self.directory, SensorConfig(window_seconds=end - self.start, origin=self.start)
        )
        features = self.trainer.featurize(self.trainer.collect(self.block, self.start, end))
        self.trainer.fit(features, labeled.restrict_to({int(o) for o in features.originators}))
        self.config = SensorConfig(window_seconds=STREAM_WINDOW, origin=self.start)


def stream_round(setup: StreamSetup, blocks: list) -> Round:
    from repro.sensor import SensorEngine

    engine = SensorEngine(setup.directory, setup.config).fit_from(setup.trainer)
    latencies, windows = [], []
    first = time.perf_counter()
    for block in blocks:
        handed = time.perf_counter()
        engine.ingest_block(block)
        for sensed in engine.poll():
            latencies.append(time.perf_counter() - handed)
            windows.append((sensed.window.start, verdict_list(sensed.verdicts)))
    handed = time.perf_counter()
    for sensed in engine.finish():
        latencies.append(time.perf_counter() - handed)
        windows.append((sensed.window.start, verdict_list(sensed.verdicts)))
    wall = time.perf_counter() - first
    events = sum(len(b) for b in blocks)
    return Round(events, wall, latencies, windows, accounting_of(engine))


def stream_windows(inputs: Inputs, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    setup_tracer = Tracer()
    undo = install(setup_tracer) if trace else None
    setup, setup_s = timed_setups(lambda: StreamSetup(inputs, setup_tracer))
    if undo:
        undo()
    end = setup.start + STREAM_ROUND_WINDOWS * STREAM_WINDOW
    sub = setup.block.slice_time(setup.start, end)
    blocks = [sub[i : i + STREAM_BLOCK] for i in range(0, len(sub), STREAM_BLOCK)]
    rounds = repeat_rounds(seconds, lambda: stream_round(setup, blocks))
    peak = own_peak_mb()
    report_e2e(out, rounds, setup_s, peak)

    ts, q, o = inputs.raw("stream")
    truths = reference.windows_truth(ts, q, o, setup.start, STREAM_WINDOW, STREAM_ROUND_WINDOWS)
    check_windows(rounds, truths, out.problems)
    out.attempted = sum(len(r.windows) for r in rounds)
    if trace:
        traced_round(out, setup_tracer, lambda: stream_round(setup, blocks))
    return out


def report_e2e(out: Outcome, rounds: list[Round], setup_s: float, peak_mb: float) -> None:
    out.metrics["events_per_s"] = (statistics.median(r.events / r.wall for r in rounds), "1/s")
    out.metrics["verdict_latency_p50_s"] = (
        statistics.median(x for r in rounds for x in r.latencies), "s")
    out.metrics["setup_s"] = (setup_s, "s")
    out.metrics["peak_rss_mb"] = (peak_mb, "MB")
    out.notes.append(
        f"{len(rounds)} rounds of {rounds[0].events} events, "
        f"{sum(len(r.latencies) for r in rounds)} latency samples"
    )


def traced_round(out: Outcome, setup_tracer: Tracer, run_round, extra_layers=None) -> Round:
    """One more round under tracing; per-layer metrics, overhead, self-check.

    The overhead compares with the untraced ``events_per_s`` already in
    *out*, the median over the untraced rounds.
    """
    tracer = Tracer()
    undo = install(tracer)
    try:
        result = run_round()
    finally:
        undo()
    layers = span_layers(tracer)
    reads = setup_tracer.named("read.log", "read.directory", "read.labels")
    layers["datasets.load_s"] = sum(s.seconds for s in reads) / SETUP_REPS
    layers["sensor.events_deduplicated"] = result.accounting["window"][2]
    if extra_layers is not None:
        layers.update(extra_layers(tracer, result))
    cross_check(layers, result.accounting, out.problems)
    share = blocking_share(tracer, result.wall)
    if not 0.9 <= share <= 1.0 + 1e-9:
        out.problems.append(f"trace: blocking-path spans cover {share:.3f} of wall time")
    layers["trace.blocking_share"] = share
    layers["trace.events_per_s_ratio"] = (
        result.events / result.wall / out.metrics["events_per_s"][0])
    out.layers = layers
    out.spans = tracer.dump()
    out.notes.append(f"traced round: {len(tracer.spans)} spans, wall {result.wall:.3f} s")
    return result


# -- bulk_batch / bulk_sharded --------------------------------------------------


class BulkSetup:
    def __init__(self, inputs: Inputs, tracer: Tracer | None = None, shards: int = 0,
                 registry=None) -> None:
        from repro.sensor import SensorConfig

        self.block = inputs.log("bulk")
        self.directory = inputs.directory()
        self.labeled = inputs.labels(tracer)
        self.start = float(self.block.timestamps[0])
        self.end = float(self.block.timestamps[-1]) + 1.0
        self.config = SensorConfig(window_seconds=self.end - self.start, origin=self.start)
        self.federation = None
        if shards:
            from repro.federation import FederatedSensor

            self.federation = FederatedSensor(
                self.directory, self.config, n_shards=shards, registry=registry
            )

    def close(self) -> None:
        if self.federation is not None:
            self.federation.close()


def bulk_round(setup: BulkSetup) -> Round:
    from repro.sensor import SensorEngine

    engine = SensorEngine(setup.directory, setup.config)
    first = time.perf_counter()
    window = engine.collect(setup.block, setup.start, setup.end)
    features = engine.featurize(window)
    engine.fit(features, setup.labeled.restrict_to({int(o) for o in features.originators}))
    verdicts = engine.classify(features)
    wall = time.perf_counter() - first
    return Round(len(setup.block), wall, [wall], [(setup.start, verdict_list(verdicts))],
                 accounting_of(engine), dict(zip(features.originators.tolist(), features.matrix)))


def sharded_round(setup: BulkSetup) -> Round:
    federation = setup.federation
    before = accounting_of(federation)
    first = time.perf_counter()
    window = federation.process(setup.block, setup.start, setup.end, classify=False)[0]
    features = window.features
    federation.fit(features, setup.labeled.restrict_to({int(o) for o in features.originators}))
    verdicts = federation.classify(features)
    wall = time.perf_counter() - first
    after = accounting_of(federation)
    # One federation serves every round; its accounting accumulates.
    delta = {k: tuple(a - b for a, b in zip(after[k], before[k])) for k in after}
    return Round(len(setup.block), wall, [wall], [(setup.start, verdict_list(verdicts))], delta,
                 dict(zip(features.originators.tolist(), features.matrix)))


def base_rows(setup: BulkSetup, inputs: Inputs) -> dict:
    """Feature rows of the un-overlaid log over the same span."""
    from repro.sensor import SensorEngine

    engine = SensorEngine(setup.directory, setup.config)
    features = engine.featurize(engine.collect(inputs.log("stream"), setup.start, setup.end))
    return dict(zip(features.originators.tolist(), features.matrix))


def check_bulk(out: Outcome, rounds: list[Round], setup: BulkSetup, inputs: Inputs,
               single: Round) -> None:
    ts, q, o = inputs.raw("bulk")
    truth = reference.window_truth(ts, q, o, setup.start, setup.end)
    check_windows(rounds, [truth], out.problems)
    check_copies(single, base_rows(setup, inputs), inputs, out.problems)
    share = check_labels(single, setup.labeled, out.problems)
    out.notes.append(
        f"{len(truth.footprints)} analyzable of {truth.originators} originators, "
        f"{truth.deduplicated} events deduplicated, labels reproduced {share:.3f}"
    )


def bulk_batch(inputs: Inputs, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    setup_tracer = Tracer()
    undo = install(setup_tracer) if trace else None
    setup, setup_s = timed_setups(lambda: BulkSetup(inputs, setup_tracer))
    if undo:
        undo()
    rounds = repeat_rounds(seconds, lambda: bulk_round(setup))
    peak = own_peak_mb()
    report_e2e(out, rounds, setup_s, peak)
    check_bulk(out, rounds, setup, inputs, rounds[-1])
    out.attempted = len(rounds)
    if trace:
        traced_round(out, setup_tracer, lambda: bulk_round(setup))
    return out


def _federation_totals(registry) -> tuple[dict[str, float], list[float]]:
    """Worker-side seconds per shard and events per shard, as counted so far."""
    timings = registry.get("repro_federation_shard_seconds")
    seconds: dict[str, float] = {}
    for key, series in timings.series():
        shard = dict(zip(timings.label_names, key))["shard"]
        seconds[shard] = seconds.get(shard, 0.0) + series.sum
    events = registry.get("repro_federation_events_total")
    return seconds, [events.value(shard=str(k)) for k in range(SHARDS)]


def _federation_layers(registry):
    """Shard metrics of the rounds after this call, from the program's registry."""
    seconds_before, events_before = _federation_totals(registry)

    def layers(tracer: Tracer, result: Round) -> dict:
        seconds, events = _federation_totals(registry)
        per_shard = [now - then for now, then in zip(events, events_before)]
        return {
            "federation.shard_s": max(v - seconds_before[k] for k, v in seconds.items()),
            "federation.shard_event_skew": max(per_shard) / (sum(per_shard) / SHARDS),
        }

    return layers


def bulk_sharded(inputs: Inputs, seconds: float, trace: bool) -> Outcome:
    import multiprocessing

    out = Outcome()
    setup_tracer = Tracer()
    undo = install(setup_tracer) if trace else None
    setups = []

    def make():
        if setups:
            setups.pop().close()
        setups.append(BulkSetup(inputs, setup_tracer, shards=SHARDS))
        return setups[-1]

    setup, setup_s = timed_setups(make)
    if undo:
        undo()
    try:
        rounds = repeat_rounds(seconds, lambda: sharded_round(setup))
        peak = own_peak_mb() + sum(
            child_peak_mb(p.pid) for p in multiprocessing.active_children()
        )
        shard_processes = len(multiprocessing.active_children())
    finally:
        setup.close()
    report_e2e(out, rounds, setup_s, peak)
    out.notes.append(f"{shard_processes} shard processes")
    if shard_processes != SHARDS:
        out.problems.append(f"{shard_processes} shard processes, expected {SHARDS}")
    single = bulk_round(setup)
    check_bulk(out, rounds, setup, inputs, single)
    if rounds[0].windows != single.windows:
        out.problems.append("sharded verdicts differ from the single engine's")
    if rounds[0].rows.keys() != single.rows.keys() or not all(
        np.array_equal(row, single.rows[o]) for o, row in rounds[0].rows.items()
    ):
        out.problems.append("sharded feature rows differ from the single engine's")
    out.attempted = len(rounds)
    if trace:
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        traced = BulkSetup(inputs, None, shards=SHARDS, registry=registry)
        try:
            # A first round starts the shard processes, whose start-up the
            # untraced rounds' median leaves out too.
            sharded_round(traced)
            result = traced_round(out, setup_tracer, lambda: sharded_round(traced),
                                  _federation_layers(registry))
        finally:
            traced.close()
        if result.windows != single.windows:
            out.problems.append("traced sharded verdicts differ from the single engine's")
    return out
