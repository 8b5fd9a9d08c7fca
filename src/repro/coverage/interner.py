"""Dense integer ids for branch-site strings.

Every branch site a campaign observes is a string like
``"dnsmasq:dispatch.opcode/T"``.  The plain :class:`CoverageMap`
keys its dict by these strings, which means every hit re-hashes a long
string in two maps (per-run and total).  A :class:`SiteInterner` assigns
each distinct site a dense integer id **once per campaign**; the
int-backed :class:`~repro.coverage.indexed.IndexedCoverageMap` then does
all per-hit bookkeeping on small ints and set operations, converting
back to strings only at reporting boundaries (``sites()``,
``new_sites()``), which are off the hot path.

Ids are allocated in first-intern order, so a deterministic campaign
interns deterministically.  The interner is plain data (one dict, one
list) and pickles losslessly — checkpoint payloads carry it across
kill-and-resume, which ``tests/coverage/test_indexed_equivalence.py``
pins down with round-trip properties.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple


class SiteInterner:
    """Bidirectional site-string <-> dense-int mapping.

    Append-only: sites are never removed, so an id, once handed out,
    stays valid for the life of the campaign (and across checkpoint
    resume).
    """

    __slots__ = ("_ids", "_sites")

    def __init__(self, sites: Iterable[str] = ()):
        self._ids: Dict[str, int] = {}
        self._sites: List[str] = []
        for site in sites:
            self.intern(site)

    def intern(self, site: str) -> int:
        """The id for ``site``, allocating the next dense id if new."""
        idx = self._ids.get(site)
        if idx is None:
            idx = len(self._sites)
            self._ids[site] = idx
            self._sites.append(site)
        return idx

    def intern_many(self, sites: Iterable[str]) -> List[int]:
        """Bulk :meth:`intern`, preserving input order."""
        return [self.intern(site) for site in sites]

    def id_of(self, site: str) -> int:
        """The id for ``site``; raises ``KeyError`` if never interned."""
        return self._ids[site]

    def site_of(self, idx: int) -> str:
        """The site string behind ``idx``."""
        return self._sites[idx]

    def sites_of(self, ids: Iterable[int]) -> List[str]:
        """Bulk :meth:`site_of`."""
        sites = self._sites
        return [sites[idx] for idx in ids]

    def __contains__(self, site: str) -> bool:
        return site in self._ids

    def __len__(self) -> int:
        return len(self._sites)

    def __iter__(self) -> Iterator[str]:
        """Sites in id (first-intern) order."""
        return iter(self._sites)

    def items(self) -> Iterator[Tuple[str, int]]:
        """(site, id) pairs in id order."""
        return ((site, idx) for idx, site in enumerate(self._sites))

    # Pickle as plain data: the list alone is enough to rebuild the dict,
    # which keeps checkpoint payloads compact.
    def __getstate__(self) -> List[str]:
        return self._sites

    def __setstate__(self, sites: List[str]) -> None:
        self._sites = list(sites)
        self._ids = {site: idx for idx, site in enumerate(self._sites)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SiteInterner):
            return NotImplemented
        return self._sites == other._sites

    def __hash__(self):
        raise TypeError("SiteInterner is mutable and unhashable")

    def __repr__(self) -> str:
        return "SiteInterner(%d sites)" % len(self._sites)
