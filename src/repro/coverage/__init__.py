"""Branch-coverage substrate (SanitizerCoverage trace-pc-guard analogue).

The paper instruments targets with Clang's ``trace-pc-guard`` to collect
branch coverage.  Our pure-Python targets call explicit probes instead:
every decision point executes ``cov.hit(site_id)`` where ``site_id`` is a
stable string naming that branch.  A :class:`CoverageMap` is a set-like
bitmap of hit sites supporting union, difference and counting, which is all
the fuzzers consume.

The :class:`CoverageCollector` the targets report to records into a
:class:`SiteInterner` (site string -> dense int id, once per campaign)
and :class:`IndexedCoverageMap` twins (array counters + int sets with
bulk union/diff), which behave as :class:`CoverageMap` does — the
differential suite in ``tests/coverage/test_indexed_equivalence.py``
enforces it.
"""

from repro.coverage.bitmap import CoverageMap
from repro.coverage.collector import (
    CoverageCollector,
    NullCollector,
)
from repro.coverage.indexed import IndexedCoverageMap
from repro.coverage.interner import SiteInterner

__all__ = [
    "CoverageMap",
    "CoverageCollector",
    "IndexedCoverageMap",
    "NullCollector",
    "SiteInterner",
]
