"""Outside-in span tracing: wrappers around the program's public calls.

:func:`install` replaces a fixed list of public methods and readers with
wrappers that record one span per call (name, start, end, thread,
parent, and a few sizes read off the arguments and results).  Spans
stay in memory until :meth:`Tracer.dump`; :func:`install` returns an
undo callable that puts the originals back.

A span's *self* time is its duration minus the time covered by its
children.  Parents are tracked per thread, so a background fit on the
model-fit thread of ``repro serve`` is a root span of its own thread.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    thread: str = ""
    parent: int | None = None
    index: int = 0
    child_seconds: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pinned: list = []
        """Objects whose ``id()`` a span recorded, kept alive so ids stay unique."""
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span = Span(
                name=name,
                start=time.perf_counter(),
                thread=threading.current_thread().name,
                parent=stack[-1].index if stack else None,
                index=len(self.spans),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_seconds += span.seconds

    def named(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def under(self, span: Span, ancestor: str) -> bool:
        """Whether *span* has an ancestor called *ancestor*."""
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == ancestor:
                return True
            parent = self.spans[parent].parent
        return False

    def dump(self) -> list[dict]:
        return [
            {
                "name": s.name, "start": s.start, "end": s.end, "thread": s.thread,
                "parent": s.parent, "child_seconds": s.child_seconds, **s.attrs,
            }
            for s in self.spans
        ]


def _size(value) -> int | None:
    try:
        return len(value)
    except TypeError:
        return None


def _wrap(tracer: Tracer, name: str, func, describe):
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.end(span)
        if describe is not None:
            describe(tracer, span, args, result)
        return result

    wrapper.__wrapped__ = func
    wrapper.__name__ = getattr(func, "__name__", name)
    return wrapper


def _rows_out(tracer, span, args, result) -> None:
    span.attrs["items"] = _size(result)


def _windows_out(tracer, span, args, result) -> None:
    span.attrs["windows"] = len(result)
    span.attrs["originators"] = sum(len(w.window) for w in result)


def _collect(tracer, span, args, result) -> None:
    span.attrs["items"] = _size(args[1])
    span.attrs["windows"] = 1
    span.attrs["originators"] = len(result)


def _forest_fit(tracer, span, args, result) -> None:
    span.attrs["trees"] = args[0].config.n_trees


def _forest_predict(tracer, span, args, result) -> None:
    span.attrs["tree_rows"] = args[0].config.n_trees * len(args[1])


def _ingest(tracer, span, args, result) -> None:
    span.attrs["items"] = len(args[1])
    _block(tracer, span, args, result)


def _process(tracer, span, args, result) -> None:
    span.attrs["items"] = _size(args[1])
    span.attrs["windows"] = len(result)
    span.attrs["originators"] = sum(w.originators for w in result)
    span.attrs["rows"] = sum(len(w.features) for w in result if w.features is not None)


def _block(tracer, span, args, result) -> None:
    span.attrs["block"] = id(args[1])
    tracer.pinned.append(args[1])


def _outcome(tracer, span, args, result) -> None:
    span.attrs["outcome"] = result


def targets():
    """(owner, attribute, span name, describe) for every traced call."""
    import repro.datasets
    import repro.logstore
    from repro.federation import FederatedSensor
    from repro.ml import RandomForestClassifier
    from repro.sensor import SensorEngine
    from repro.service import BackscatterService, FeedReader, ModelManager

    return [
        (SensorEngine, "ingest_block", "engine.ingest_block", _ingest),
        (SensorEngine, "poll", "engine.poll", _windows_out),
        (SensorEngine, "finish", "engine.finish", _windows_out),
        (SensorEngine, "collect", "engine.collect", _collect),
        (SensorEngine, "featurize", "engine.featurize", _rows_out),
        (SensorEngine, "fit", "engine.fit", None),
        (SensorEngine, "classify", "engine.classify", _rows_out),
        (RandomForestClassifier, "fit", "forest.fit", _forest_fit),
        (RandomForestClassifier, "predict", "forest.predict", _forest_predict),
        (FederatedSensor, "process", "federation.process", _process),
        (FeedReader, "feed", "feed.decode", _rows_out),
        (BackscatterService, "submit_block", "service.submit_block", _block),
        (ModelManager, "observe_window", "manager.observe_window", _outcome),
        (ModelManager, "apply_pending", "manager.apply_pending", _outcome),
        (repro.logstore, "load_block", "read.log", _rows_out),
        (repro.datasets, "read_directory", "read.directory", None),
    ]


def install(tracer: Tracer):
    """Wrap every target; returns a callable that restores the originals."""
    saved = []
    for owner, attr, name, describe in targets():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, name, original, describe))

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo
