"""Int-backed coverage map over interned branch sites.

:class:`IndexedCoverageMap` is the interned counterpart of
:class:`~repro.coverage.bitmap.CoverageMap`: the same observable API
(hit / count / sites / merge / union / new_sites / same_sites / copy /
clear / membership / equality), but keyed internally by the dense ids of
a shared :class:`~repro.coverage.interner.SiteInterner` — an ``array``
of 64-bit counters plus a plain ``set`` of hit ids.  Per-hit work is an
int set-add and an array bump; the union/diff operations the campaign
loop leans on (``new_sites`` per iteration, ``merge`` at sync points)
become C-speed set arithmetic instead of per-site dict probing.

Strings appear only at reporting boundaries: ``sites()`` and
``new_sites()`` translate ids back through the interner (and
``sites()`` is cached until the next mutation).  The differential
hypothesis suite (``tests/coverage/test_indexed_equivalence.py``)
drives this class and ``CoverageMap`` through arbitrary operation
sequences and asserts the observable states never diverge.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, Optional, Set

from repro.coverage.interner import SiteInterner


class IndexedCoverageMap:
    """A set of hit branch sites with counters, keyed by interned ids.

    Maps sharing one interner (the per-collector layout) merge and diff
    id-to-id; maps with distinct interners — or a plain
    :class:`CoverageMap` — interoperate through site strings, so every
    operation a plain map supports keeps working.
    """

    __slots__ = ("interner", "_ids", "_counts", "_sites_cache")

    def __init__(self, interner: Optional[SiteInterner] = None, sites=()):
        self.interner = interner if interner is not None else SiteInterner()
        self._ids: Set[int] = set()
        self._counts: array = array("q")
        self._sites_cache: Optional[frozenset] = None
        for site in sites:
            self.hit(site)

    # -- hot path ----------------------------------------------------------

    def _bump_id(self, idx: int, count: int = 1) -> None:
        """Unchecked counter bump (the collector's per-hit call)."""
        counts = self._counts
        if idx >= len(counts):
            counts.frombytes(bytes((idx + 1 - len(counts)) * counts.itemsize))
        counts[idx] += count
        self._ids.add(idx)
        self._sites_cache = None

    def hit(self, site: str, count: int = 1) -> None:
        """Record ``count`` executions of branch ``site``."""
        if count <= 0:
            raise ValueError("hit count must be positive, got %r" % (count,))
        self._bump_id(self.interner.intern(site), count)

    # -- observables ---------------------------------------------------------

    def count(self, site: str) -> int:
        """Number of times ``site`` was hit (0 if never)."""
        idx = self.interner._ids.get(site)
        if idx is None or idx not in self._ids:
            return 0
        return self._counts[idx]

    def sites(self) -> frozenset:
        """The set of hit sites (strings); cached until mutation."""
        cached = self._sites_cache
        if cached is None:
            site_of = self.interner._sites
            cached = frozenset(site_of[idx] for idx in self._ids)
            self._sites_cache = cached
        return cached

    def as_dict(self) -> Dict[str, int]:
        """``{site: count}`` snapshot (reporting/testing helper)."""
        site_of = self.interner._sites
        counts = self._counts
        return {site_of[idx]: counts[idx] for idx in self._ids}

    # -- bulk operations -----------------------------------------------------

    def merge(self, other) -> None:
        """In-place union with another map, summing counters."""
        if isinstance(other, IndexedCoverageMap) and other.interner is self.interner:
            other_counts = other._counts
            counts = self._counts
            if len(other_counts) > len(counts):
                counts.frombytes(
                    bytes((len(other_counts) - len(counts)) * counts.itemsize))
            for idx in other._ids:
                counts[idx] += other_counts[idx]
            self._ids |= other._ids
        else:
            for site, count in _items(other):
                self._bump_id(self.interner.intern(site), count)
        self._sites_cache = None

    def union(self, other) -> "IndexedCoverageMap":
        merged = self.copy()
        merged.merge(other)
        return merged

    def new_sites(self, other) -> frozenset:
        """Sites present in ``other`` but not in this map."""
        if isinstance(other, IndexedCoverageMap) and other.interner is self.interner:
            site_of = self.interner._sites
            return frozenset(site_of[idx] for idx in other._ids - self._ids)
        return frozenset(site for site in _site_iter(other) if site not in self)

    def same_sites(self, other) -> bool:
        """Set equality on hit sites, ignoring per-site counters."""
        if isinstance(other, IndexedCoverageMap) and other.interner is self.interner:
            return self._ids == other._ids
        return self.sites() == frozenset(_site_iter(other))

    # -- lifecycle -----------------------------------------------------------

    def copy(self) -> "IndexedCoverageMap":
        clone = IndexedCoverageMap.__new__(IndexedCoverageMap)
        clone.interner = self.interner
        clone._ids = set(self._ids)
        clone._counts = self._counts[:]
        clone._sites_cache = self._sites_cache
        return clone

    def clear(self) -> None:
        self._ids.clear()
        # Fresh zeroed block: ids yet to be re-hit must not inherit counts.
        counts = self._counts
        self._counts = array("q", bytes(len(counts) * counts.itemsize))
        self._sites_cache = None

    # -- dunder parity with CoverageMap --------------------------------------

    def __contains__(self, site: str) -> bool:
        idx = self.interner._ids.get(site)
        return idx is not None and idx in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[str]:
        site_of = self.interner._sites
        return iter([site_of[idx] for idx in sorted(self._ids)])

    def __bool__(self) -> bool:
        return bool(self._ids)

    def __eq__(self, other: object) -> bool:
        """Full-state equality: same sites *and* same per-site counts.

        Also answers reflected comparisons against a plain
        :class:`CoverageMap` (whose ``__eq__`` returns
        ``NotImplemented`` for foreign types), so mixed comparisons
        work in either direction.
        """
        if isinstance(other, IndexedCoverageMap):
            if other.interner is self.interner:
                if self._ids != other._ids:
                    return False
                mine, theirs = self._counts, other._counts
                return all(mine[idx] == theirs[idx] for idx in self._ids)
            return self.as_dict() == other.as_dict()
        from repro.coverage.bitmap import CoverageMap

        if isinstance(other, CoverageMap):
            return self.as_dict() == other._hits
        return NotImplemented

    def __hash__(self):
        raise TypeError("IndexedCoverageMap is mutable and unhashable")

    def __repr__(self) -> str:
        return "IndexedCoverageMap(%d sites)" % len(self._ids)

    # -- pickling ------------------------------------------------------------

    def __getstate__(self):
        return (self.interner, self._ids, self._counts)

    def __setstate__(self, state) -> None:
        self.interner, self._ids, self._counts = state
        self._sites_cache = None


def _items(other):
    """(site, count) pairs of any coverage-map flavour."""
    if isinstance(other, IndexedCoverageMap):
        return other.as_dict().items()
    return other._hits.items()


def _site_iter(other):
    """Hit sites of any coverage-map flavour."""
    if isinstance(other, IndexedCoverageMap):
        return other.sites()
    return other._hits.keys()
