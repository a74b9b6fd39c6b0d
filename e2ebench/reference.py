"""Reference computation of what the sensor must report, made apart from it.

Works on raw ``(timestamp, querier, originator)`` arrays with plain
numpy and the paper's rules, not with ``repro.logstore`` or
``repro.sensor``:

* § III-A: per (querier, originator) pair a query is kept when it is the
  pair's first in the window or at least 30 s after the pair's last
  *kept* query (``t - last >= 30``); dedup state starts fresh in every
  window (DESIGN.md, "window-scoped").
* § III-B: an originator is analyzable when at least 20 distinct
  queriers asked about it within the window; its footprint is that
  count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEDUP_SECONDS = 30.0
MIN_QUERIERS = 20
PAPER_CLASSES = frozenset({
    "ad-tracker", "cdn", "cloud", "crawler", "dns", "mail",
    "ntp", "p2p", "push", "scan", "spam", "update",
})
"""The paper's 12 application classes."""


@dataclass(frozen=True)
class WindowTruth:
    start: float
    end: float
    events: int
    deduplicated: int
    footprints: dict[int, int]
    """Analyzable originator -> distinct queriers (>= MIN_QUERIERS)."""
    originators: int
    """Every originator seen in the window, analyzable or not."""


def dedup_count(ts: np.ndarray, q: np.ndarray, o: np.ndarray) -> int:
    """Queries the 30 s per-pair rule suppresses in one time-ordered window."""
    if len(ts) == 0:
        return 0
    order = np.lexsort((np.arange(len(ts)), ts, o, q))
    ts, q, o = ts[order], q[order], o[order]
    same_pair = np.zeros(len(ts), dtype=bool)
    same_pair[1:] = (q[1:] == q[:-1]) & (o[1:] == o[:-1])
    gap = np.full(len(ts), np.inf)
    gap[1:] = ts[1:] - ts[:-1]
    # A query at least 30 s after the previous query of its pair is kept
    # for certain; closer ones depend on which earlier query was kept.
    close = same_pair & (gap < DEDUP_SECONDS)
    dropped = 0
    for i in np.flatnonzero(close & ~np.roll(close, 1)):
        last = ts[i - 1]
        j = i
        while j < len(ts) and close[j]:
            if ts[j] - last >= DEDUP_SECONDS:
                last = ts[j]
            else:
                dropped += 1
            j += 1
    return dropped


def window_truth(ts, q, o, start: float, end: float) -> WindowTruth:
    inside = (ts >= start) & (ts < end)
    ts, q, o = ts[inside], q[inside], o[inside]
    pairs = np.unique(np.stack([o, q]), axis=1) if len(o) else np.empty((2, 0), np.int64)
    origin, counts = np.unique(pairs[0], return_counts=True)
    keep = counts >= MIN_QUERIERS
    return WindowTruth(
        start=start,
        end=end,
        events=len(ts),
        deduplicated=dedup_count(ts, q, o),
        footprints=dict(zip(origin[keep].tolist(), counts[keep].tolist())),
        originators=len(origin),
    )


def windows_truth(ts, q, o, origin: float, width: float, count: int) -> list[WindowTruth]:
    """The first *count* windows of *width* seconds starting at *origin*."""
    return [
        window_truth(ts, q, o, origin + k * width, origin + (k + 1) * width)
        for k in range(count)
    ]


def verdict_mismatches(truth: WindowTruth, verdicts) -> list[str]:
    """Differences between one window's verdicts and its reference.

    *verdicts* are ``(originator, footprint)`` pairs.
    """
    verdicts = list(verdicts)
    got = dict(verdicts)
    problems = []
    if len(got) != len(verdicts):
        problems.append("an originator has two verdicts")
    missing = set(truth.footprints) - set(got)
    extra = set(got) - set(truth.footprints)
    if missing:
        problems.append(f"{len(missing)} analyzable originators without a verdict")
    if extra:
        problems.append(f"{len(extra)} verdicts for originators that are not analyzable")
    wrong = [a for a in set(got) & set(truth.footprints) if got[a] != truth.footprints[a]]
    if wrong:
        problems.append(f"{len(wrong)} footprints differ from the distinct-querier count")
    return problems
