"""A coverage map: a set-like value of hit branch sites with counters.

The campaign's collector keeps plain site sets
(:class:`~repro.coverage.collector.CoverageCollector`); this map is the
public value type for callers that want counts as well as sites.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional


class CoverageMap:
    """A set of hit branch sites with hit counters.

    Mirrors what a trace-pc-guard bitmap provides: membership ("was this
    edge hit"), per-edge counters, and union/difference for computing
    newly-discovered branches.

    ``sites()`` is memoised; every mutating operation (:meth:`hit`,
    :meth:`merge`, :meth:`clear`) invalidates the cache.
    """

    __slots__ = ("_hits", "_sites_cache")

    def __init__(self, sites: Iterable[str] = ()):
        self._hits: dict = {}
        self._sites_cache: Optional[frozenset] = None
        # Validation hoisted out of the per-site loop: every entry here
        # is one hit, so there is no count to range-check.
        hits = self._hits
        for site in sites:
            hits[site] = hits.get(site, 0) + 1

    def hit(self, site: str, count: int = 1) -> None:
        """Record ``count`` executions of branch ``site``."""
        if count <= 0:
            raise ValueError("hit count must be positive, got %r" % (count,))
        self._hits[site] = self._hits.get(site, 0) + count
        self._sites_cache = None

    def count(self, site: str) -> int:
        """Number of times ``site`` was hit (0 if never)."""
        return self._hits.get(site, 0)

    def sites(self) -> frozenset:
        """The set of hit sites (cached until the next mutation)."""
        cached = self._sites_cache
        if cached is None:
            cached = frozenset(self._hits)
            self._sites_cache = cached
        return cached

    def merge(self, other: "CoverageMap") -> None:
        """In-place union with another map, summing counters."""
        hits = self._hits
        for site, count in other._hits.items():
            hits[site] = hits.get(site, 0) + count
        self._sites_cache = None

    def union(self, other: "CoverageMap") -> "CoverageMap":
        merged = self.copy()
        merged.merge(other)
        return merged

    def new_sites(self, other: "CoverageMap") -> frozenset:
        """Sites present in ``other`` but not in this map."""
        return frozenset(s for s in other._hits if s not in self._hits)

    def same_sites(self, other: "CoverageMap") -> bool:
        """Set equality on hit sites, ignoring per-site counters.

        Use this for "did these runs reach the same branches"; ``==``
        additionally requires identical hit counts.
        """
        return self._hits.keys() == other._hits.keys()

    def copy(self) -> "CoverageMap":
        clone = CoverageMap()
        clone._hits = dict(self._hits)
        clone._sites_cache = self._sites_cache
        return clone

    def clear(self) -> None:
        self._hits.clear()
        self._sites_cache = None

    def __contains__(self, site: str) -> bool:
        return site in self._hits

    def __len__(self) -> int:
        return len(self._hits)

    def __iter__(self) -> Iterator[str]:
        return iter(self._hits)

    def __bool__(self) -> bool:
        return bool(self._hits)

    def __eq__(self, other: object) -> bool:
        """Full-state equality: same sites *and* same per-site counts.

        ``merge``/``hit`` maintain per-site counters, so two maps that
        reached the same branches different numbers of times are
        distinct states; comparing only site keys (the old behaviour)
        made hit-count divergence invisible. Use :meth:`same_sites`
        when counter-insensitive comparison is what you mean.
        """
        if not isinstance(other, CoverageMap):
            return NotImplemented
        return self._hits == other._hits

    def __hash__(self):
        raise TypeError("CoverageMap is mutable and unhashable")

    def __repr__(self) -> str:
        return "CoverageMap(%d sites)" % len(self._hits)

    # -- pickling ------------------------------------------------------------
    # Explicit state keeps checkpoint payloads compact (no cache) and
    # stable across cache-field changes.

    def __getstate__(self):
        return self._hits

    def __setstate__(self, state) -> None:
        self._hits = state
        self._sites_cache = None
