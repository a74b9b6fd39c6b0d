"""Querier metadata directory: reverse name, ASN, and country lookups.

The sensor classifies originators from *querier* metadata (§ III-C): the
querier's reverse domain name (static features), its AS (via whois in the
paper), and its country (via MaxMind GeoLiteCity).  This module isolates
those lookups behind a small protocol so the pipeline is independent of
where the metadata comes from — in this reproduction a
:class:`WorldDirectory` answers from the synthetic world; in a deployment
it would be a resolver plus whois/GeoIP clients.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.netmodel.world import NameStatus, World
from repro.sensor.keywords import STATIC_CATEGORIES, classify_querier
from repro.telemetry import count as _tcount

__all__ = [
    "QuerierInfo",
    "QuerierDirectory",
    "WorldDirectory",
    "StaticDirectory",
    "ResolvedQuerier",
    "EnrichmentCache",
    "enrich_chunk",
]


@dataclass(frozen=True, slots=True)
class QuerierInfo:
    """Everything the feature extractor needs to know about one querier."""

    addr: int
    name: str | None
    status: NameStatus
    asn: int | None
    country: str | None


class QuerierDirectory(Protocol):
    """Metadata provider; must be cheap to call per unique querier."""

    def lookup(self, addr: int) -> QuerierInfo: ...


class WorldDirectory:
    """Directory backed by the synthetic world (exact whois + GeoIP)."""

    def __init__(self, world: World) -> None:
        self._world = world
        self._by_addr = {q.addr: q for q in world.queriers}

    def lookup(self, addr: int) -> QuerierInfo:
        querier = self._by_addr.get(addr)
        if querier is not None:
            return QuerierInfo(
                addr=addr,
                name=querier.name,
                status=querier.name_status,
                asn=querier.asn,
                country=querier.country,
            )
        # An address we never populated: treat like unassigned space.
        return QuerierInfo(
            addr=addr,
            name=None,
            status=NameStatus.NXDOMAIN,
            asn=self._world.asn_of(addr),
            country=self._world.country_of(addr),
        )


_CATEGORY_INDEX = {category: i for i, category in enumerate(STATIC_CATEGORIES)}


@dataclass(frozen=True, slots=True)
class ResolvedQuerier:
    """One querier fully enriched for featurization.

    The static keyword category (precomputed once, with its feature-vector
    index) plus the AS and country.  This is the scalar view used by the
    per-observation reference paths; batch featurization reads the same
    data as arrays via :meth:`EnrichmentCache.codes`.
    """

    addr: int
    category: str
    category_index: int
    asn: int | None
    country: str | None


def enrich_chunk(
    directory: QuerierDirectory, addrs: Sequence[int] | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Classify a chunk of addresses against *directory*.

    Returns ``(category indices, ASNs, country codes, country table)``
    aligned with *addrs*: ASN is ``-1`` for unknown, country codes index
    into the chunk-local *country table* (``-1`` unknown);
    :meth:`EnrichmentCache.prime_arrays` installs the result.
    """
    if isinstance(addrs, np.ndarray):
        addrs = addrs.tolist()
    n = len(addrs)
    categories = np.empty(n, dtype=np.int64)
    asns = np.empty(n, dtype=np.int64)
    country_codes = np.empty(n, dtype=np.int64)
    table: dict[str, int] = {}
    for i, addr in enumerate(addrs):
        info = directory.lookup(addr)
        categories[i] = _CATEGORY_INDEX[classify_querier(info.name, info.status)]
        asns[i] = -1 if info.asn is None else info.asn
        country = info.country
        country_codes[i] = (
            -1 if country is None else table.setdefault(country, len(table))
        )
    return categories, asns, country_codes, list(table)


class EnrichmentCache:
    """Window-scoped querier → (category, ASN, country) cache.

    Featurization needs every querier resolved — name classified into a
    static category, AS and country read — and the same querier typically
    appears under many originators of one observation window.  The cache
    wraps any :class:`QuerierDirectory` and resolves each address exactly
    once, so the window context, the static features, and the dynamic
    features share one round of directory lookups and keyword matching.

    Internally the cache is a column store: a sorted address array with
    aligned category/ASN/country-code columns, so the batch paths read
    enrichment data with one :func:`np.searchsorted` (:meth:`codes`)
    instead of a Python dict get per querier.  The scalar
    :meth:`resolve` view sits on top and is memoized separately.

    Scope one instance to one observation window: the cache never
    invalidates, so mutations of the underlying directory are only picked
    up by the *next* window's cache, matching the paper's
    snapshot-per-interval semantics.  It implements the
    :class:`QuerierDirectory` protocol, so it can be passed anywhere a
    directory is expected.
    """

    #: Telemetry counter names (emitted when a registry is installed).
    _HITS = "repro_enrichment_cache_hits_total"
    _MISSES = "repro_enrichment_cache_misses_total"
    _BUILT = "repro_enrichment_cache_built_total"

    def __init__(self, directory: QuerierDirectory) -> None:
        self._directory = directory
        # Lookup accounting (always-on plain ints; mirrored to the
        # ambient metrics registry when one is installed).
        self.hits = 0
        self.misses = 0
        self.built = 0
        # Consolidated column store, sorted by address.
        self._addrs = np.empty(0, dtype=np.int64)
        self._categories = np.empty(0, dtype=np.int64)
        self._asns = np.empty(0, dtype=np.int64)
        self._ccs = np.empty(0, dtype=np.int64)
        # Country-code interning (code → name is ``_countries[code]``).
        self._country_codes: dict[str, int] = {}
        self._countries: list[str] = []
        # Scalar-resolved entries awaiting consolidation, and the memo of
        # constructed ResolvedQuerier objects (batch priming skips both).
        self._pending: dict[int, tuple[int, int, int]] = {}
        self._memo: dict[int, ResolvedQuerier] = {}

    @classmethod
    def ensure(cls, directory: QuerierDirectory) -> "EnrichmentCache":
        """*directory* itself if it is already a cache, else a fresh wrap."""
        return directory if isinstance(directory, cls) else cls(directory)

    @property
    def directory(self) -> QuerierDirectory:
        """The wrapped (uncached) directory."""
        return self._directory

    def __len__(self) -> int:
        return len(self._addrs) + len(self._pending)

    def __contains__(self, addr: int) -> bool:
        return addr in self._pending or self._find(addr) >= 0

    def lookup(self, addr: int) -> QuerierInfo:
        return self._directory.lookup(addr)

    def _find(self, addr: int) -> int:
        """Position of *addr* in the consolidated columns, or -1."""
        pos = int(np.searchsorted(self._addrs, addr))
        if pos < len(self._addrs) and int(self._addrs[pos]) == addr:
            return pos
        return -1

    def _intern_country(self, country: str) -> int:
        code = self._country_codes.get(country)
        if code is None:
            code = len(self._countries)
            self._country_codes[country] = code
            self._countries.append(country)
        return code

    def _consolidate(self) -> None:
        """Merge scalar-resolved pending entries into the column store."""
        if not self._pending:
            return
        new_addrs = np.fromiter(self._pending.keys(), np.int64, len(self._pending))
        triples = np.array(list(self._pending.values()), dtype=np.int64)
        self._merge(new_addrs, triples[:, 0], triples[:, 1], triples[:, 2])
        self._pending.clear()

    def _merge(
        self,
        addrs: np.ndarray,
        categories: np.ndarray,
        asns: np.ndarray,
        ccs: np.ndarray,
    ) -> None:
        """Merge new (disjoint) rows into the sorted column store."""
        merged = np.concatenate([self._addrs, addrs])
        order = np.argsort(merged, kind="stable")
        self._addrs = merged[order]
        self._categories = np.concatenate([self._categories, categories])[order]
        self._asns = np.concatenate([self._asns, asns])[order]
        self._ccs = np.concatenate([self._ccs, ccs])[order]

    def resolve(self, addr: int) -> ResolvedQuerier:
        """The enriched view of one querier (memoized)."""
        hit = self._memo.get(addr)
        if hit is not None:
            self.hits += 1
            _tcount(self._HITS, 1, help="Enrichment cache lookups served warm.")
            return hit
        row = self._pending.get(addr)
        if row is None:
            pos = self._find(addr)
            if pos >= 0:
                row = (
                    int(self._categories[pos]),
                    int(self._asns[pos]),
                    int(self._ccs[pos]),
                )
        if row is None:
            self.misses += 1
            _tcount(self._MISSES, 1,
                    help="Enrichment cache lookups that went to the directory.")
            info = self._directory.lookup(addr)
            return self.prime(
                addr, classify_querier(info.name, info.status), info.asn, info.country
            )
        self.hits += 1
        _tcount(self._HITS, 1, help="Enrichment cache lookups served warm.")
        category_index, asn, cc = row
        hit = ResolvedQuerier(
            addr=addr,
            category=STATIC_CATEGORIES[category_index],
            category_index=category_index,
            asn=None if asn < 0 else asn,
            country=None if cc < 0 else self._countries[cc],
        )
        self._memo[addr] = hit
        return hit

    def prime(
        self, addr: int, category: str, asn: int | None, country: str | None
    ) -> ResolvedQuerier:
        """Install one externally resolved querier.

        An already-cached address is left untouched (the cached values
        win — the cache is a per-window snapshot).
        """
        if addr in self:
            return self.resolve(addr)
        self.built += 1
        _tcount(self._BUILT, 1, help="Enrichment cache entries built.")
        category_index = _CATEGORY_INDEX[category]
        cc = -1 if country is None else self._intern_country(country)
        self._pending[addr] = (category_index, -1 if asn is None else asn, cc)
        hit = ResolvedQuerier(
            addr=addr,
            category=category,
            category_index=category_index,
            asn=asn,
            country=country,
        )
        self._memo[addr] = hit
        return hit

    def prime_arrays(
        self,
        addrs: np.ndarray,
        categories: np.ndarray,
        asns: np.ndarray,
        country_codes: np.ndarray,
        countries: list[str],
    ) -> None:
        """Install a chunk of resolved queriers (one :func:`enrich_chunk` result).

        Arguments are exactly one :func:`enrich_chunk` result plus the
        addresses it covered; *country_codes* are remapped from the
        chunk-local table to this cache's interned codes.  The addresses
        must not already be cached (callers chunk
        :meth:`missing` output, which guarantees that) and must not
        repeat within the call.
        """
        self._consolidate()
        self.built += len(addrs)
        _tcount(self._BUILT, len(addrs), help="Enrichment cache entries built.")
        if len(countries):
            mapping = np.fromiter(
                (self._intern_country(c) for c in countries), np.int64, len(countries)
            )
            ccs = np.where(
                country_codes >= 0, mapping[np.maximum(country_codes, 0)], -1
            )
        else:
            ccs = np.full(len(addrs), -1, dtype=np.int64)
        self._merge(
            addrs.astype(np.int64),
            categories.astype(np.int64),
            asns.astype(np.int64),
            ccs,
        )

    def country_names(self, codes: np.ndarray | Sequence[int]) -> list[str]:
        """Country names for interned codes (callers filter ``>= 0``).

        Codes are cache-internal (each cache interns independently), so
        cross-cache aggregation — e.g. the federation driver unioning
        per-shard distinct-country sets — must go through the names.
        """
        return [self._countries[int(code)] for code in codes]

    def missing(self, addrs: np.ndarray) -> np.ndarray:
        """Sorted distinct addresses from *addrs* not yet cached."""
        self._consolidate()
        distinct = np.unique(addrs.astype(np.int64))
        if len(self._addrs) == 0:
            return distinct
        pos = np.searchsorted(self._addrs, distinct)
        found = (pos < len(self._addrs)) & (
            self._addrs[np.minimum(pos, len(self._addrs) - 1)] == distinct
        )
        return distinct[~found]

    def codes(self, addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized enrichment for an address array.

        Returns ``(category indices, ASNs, country codes)`` aligned with
        *addrs* (``-1`` encodes unknown; country codes are interned per
        cache).  Unresolved addresses are resolved through the directory
        first; on a warm cache this is pure array math — one
        searchsorted plus three gathers.
        """
        addrs = addrs.astype(np.int64, copy=False)
        unresolved = self.missing(addrs)
        self.misses += len(unresolved)
        self.hits += len(addrs) - len(unresolved)
        _tcount(self._MISSES, len(unresolved),
                help="Enrichment cache lookups that went to the directory.")
        _tcount(self._HITS, len(addrs) - len(unresolved),
                help="Enrichment cache lookups served warm.")
        if len(unresolved):
            self.prime_arrays(unresolved, *enrich_chunk(self._directory, unresolved))
        if len(addrs) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        pos = np.searchsorted(self._addrs, addrs)
        return self._categories[pos], self._asns[pos], self._ccs[pos]


class StaticDirectory:
    """In-memory directory for tests and serialized datasets."""

    def __init__(self, infos: dict[int, QuerierInfo] | None = None) -> None:
        self._infos = dict(infos or {})

    def add(self, info: QuerierInfo) -> None:
        self._infos[info.addr] = info

    def lookup(self, addr: int) -> QuerierInfo:
        info = self._infos.get(addr)
        if info is None:
            return QuerierInfo(
                addr=addr, name=None, status=NameStatus.NXDOMAIN, asn=None, country=None
            )
        return info
