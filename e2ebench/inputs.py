"""Seeded benchmark inputs, built once per seed and cached on disk.

The base collection is tiny-preset JP-ditl from ``repro.datasets``
(Table I's national vantage, ~50 h).  It is simulated once per checkout
with the preset's own seed.  The workload seed then derives everything
else with numpy:

* ``stream``: the base log with every originator re-addressed by a
  seeded bijection (the work is the same for every seed, the addresses
  are not);
* ``bulk``: ``OVERLAY`` re-addressed copies of the base log laid over
  its own span (copy 0 carries the labels), plus a tail of
  ``TAIL_ORIGINATORS`` originators below the § III-B 20-querier gate
  whose queriers are drawn from the log's own queriers, so the window's
  querier roster — and with it every normalizer — is unchanged;
* ``stream.rbsc``: the stream log as ``.rbsc`` frames for the served
  feed.

Files land in ``e2ebench/.inputs/`` (git-ignored).  Rebuild with::

    python3 e2ebench/inputs.py --seed 1 [--force]

Timed processes never build: ``run.py`` runs this module as its own
process first when a seed's files are missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

CACHE = HERE / ".inputs"
DATASET = "JP-ditl"
PRESET = "tiny"
OVERLAY = 12
TAIL_ORIGINATORS = 12000
TAIL_MAX_QUERIERS = 19
"""Tail footprints are drawn from 1..19: all below the 20-querier gate."""
TAIL_REPEAT_SHARE = 0.3
"""Share of tail queries followed by a repeat 0-60 s later, half of
which the 30 s dedup suppresses."""
ADDRESS_LOW = 0x0B000000
ADDRESS_HIGH = 0xDF000000


def base_dir() -> Path:
    return CACHE / f"base-{DATASET}-{PRESET}"


def seed_dir(seed: int) -> Path:
    return CACHE / f"seed-{seed}"


def _write_base(target: Path) -> None:
    from repro.datasets import generate_dataset, spec_for, write_directory
    from repro.netmodel.addressing import ip_to_str

    dataset = generate_dataset(spec_for(DATASET, PRESET))
    block = dataset.sensor.log.block()
    tmp = target.with_suffix(".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    np.savez(
        tmp / "log.npz",
        timestamp=block.timestamps,
        querier=block.queriers,
        originator=block.originators,
    )
    directory = dataset.directory()
    write_directory(
        tmp / "queriers.jsonl",
        (directory.lookup(q.addr) for q in dataset.world.queriers),
    )
    (tmp / "labels.json").write_text(
        json.dumps({ip_to_str(o): c for o, c in sorted(dataset.true_classes().items())})
    )
    tmp.rename(target)


def fresh_addresses(rng: np.random.Generator, count: int, taken: np.ndarray) -> np.ndarray:
    """*count* distinct addresses, none of them in *taken*."""
    pool = np.unique(rng.integers(ADDRESS_LOW, ADDRESS_HIGH, size=count * 2 + 64))
    pool = pool[~np.isin(pool, taken)]
    if len(pool) < count:
        raise RuntimeError("address draw collided too often")
    return rng.permutation(pool)[:count]


def readdress(originators: np.ndarray, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    index = np.searchsorted(sources, originators)
    return targets[index]


def tail(rng, queriers, start, end, taken, originators: int = TAIL_ORIGINATORS):
    """Sub-gate originators: 1..19 distinct queriers each, some repeats."""
    addresses = fresh_addresses(rng, originators, taken)
    footprints = rng.integers(1, TAIL_MAX_QUERIERS + 1, size=originators)
    originators = np.repeat(addresses, footprints)
    picked = np.concatenate(
        [rng.choice(queriers, size=k, replace=False) for k in footprints]
    )
    times = rng.uniform(start, end, size=len(originators))
    repeat = rng.random(len(originators)) < TAIL_REPEAT_SHARE
    again = np.minimum(times[repeat] + rng.uniform(0.0, 60.0, repeat.sum()), end - 1e-3)
    return (
        np.concatenate([times, again]),
        np.concatenate([picked, picked[repeat]]),
        np.concatenate([originators, originators[repeat]]),
    )


def _save(path: Path, ts, q, o) -> None:
    from repro.logstore import EntryBlock, save_block

    order = np.argsort(ts, kind="stable")
    save_block(path, EntryBlock.from_arrays(ts[order], q[order], o[order]))


def _write_seed(seed: int, target: Path) -> None:
    from repro.datasets.dnstap import write_frames
    from repro.logstore import EntryBlock
    from repro.netmodel.addressing import ip_to_str, str_to_ip

    base = np.load(base_dir() / "log.npz")
    ts, q, o = base["timestamp"], base["querier"], base["originator"]
    labels = json.loads((base_dir() / "labels.json").read_text())
    sources = np.unique(o)
    rng = np.random.default_rng(seed)
    taken = np.unique(np.concatenate([q, sources]))
    copies = fresh_addresses(rng, OVERLAY * len(sources), taken).reshape(OVERLAY, -1)
    taken = np.unique(np.concatenate([taken, copies.ravel()]))

    tmp = target.with_suffix(".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    stream_o = readdress(o, sources, copies[0])
    _save(tmp / "stream.npz", ts, q, stream_o)
    write_frames(tmp / "stream.rbsc", EntryBlock.from_arrays(ts, q, stream_o))

    tail_ts, tail_q, tail_o = tail(rng, np.unique(q), float(ts[0]), float(ts[-1]) + 1.0, taken)
    _save(
        tmp / "bulk.npz",
        np.concatenate([np.tile(ts, OVERLAY), tail_ts]),
        np.concatenate([np.tile(q, OVERLAY), tail_q]),
        np.concatenate([readdress(o, sources, c) for c in copies] + [tail_o]),
    )
    # Copy 0 carries the labels; the copies' addresses are kept for the checks.
    relabeled = {}
    for addr, app_class in labels.items():
        source = str_to_ip(addr)
        k = np.searchsorted(sources, source)
        if k < len(sources) and sources[k] == source:
            relabeled[ip_to_str(int(copies[0][k]))] = app_class
    (tmp / "labels.json").write_text(json.dumps(relabeled))
    np.savez(tmp / "copies.npz", copies=copies)
    tmp.rename(target)


def ensure(seed: int, force: bool = False) -> Path:
    """Build the base and *seed*'s derived inputs unless cached."""
    CACHE.mkdir(exist_ok=True)
    if force:
        shutil.rmtree(seed_dir(seed), ignore_errors=True)
    if not base_dir().exists():
        _write_base(base_dir())
    if not seed_dir(seed).exists():
        _write_seed(seed, seed_dir(seed))
    return seed_dir(seed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--force", action="store_true", help="rebuild the seed's files")
    args = parser.parse_args()
    print(ensure(args.seed, args.force))
    return 0


if __name__ == "__main__":
    sys.exit(main())
