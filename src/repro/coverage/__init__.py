"""Branch-coverage substrate (SanitizerCoverage trace-pc-guard analogue).

The paper instruments targets with Clang's ``trace-pc-guard`` to collect
branch coverage and counts the distinct branches hit.  Our pure-Python
targets call explicit probes instead: every decision point executes
``cov.hit(site_id)`` or ``cov.branch(site_id, cond)``, where ``site_id``
is a stable string naming that branch.

The :class:`CoverageCollector` the targets report to keeps coverage as a
set of sites: the campaign total and the sites first hit in the current
run.  The startup probes of model build record into the same class.
:class:`CoverageMap` is a standalone set of sites with hit counters
(union, difference, counting) for code that wants a value object.
"""

from repro.coverage.bitmap import CoverageMap
from repro.coverage.collector import CoverageCollector

__all__ = [
    "CoverageMap",
    "CoverageCollector",
]
