"""The coverage collector wired into instrumented target code."""

from __future__ import annotations


class CoverageCollector:
    """Receives branch-site hits from instrumented code.

    Target code holds a reference to the collector and calls :meth:`hit`
    (or :meth:`branch`) at each decision point — the Python analogue of
    a trace-pc-guard callback. Coverage is the set of distinct sites
    hit, which is all the campaign and the model build read:

    - ``total`` is the set of component-prefixed sites hit since
      construction or the last :meth:`reset`;
    - ``run_new`` holds the sites first hit since :meth:`start_run`.

    ``_names`` memoises raw site -> prefixed site, and ``_arms`` the two
    prefixed arms of :meth:`branch`, so the ``component + ":" + site``
    concatenation happens once per distinct site, and each hit is one
    memo lookup plus one ``in total`` test. The memo tables are left out
    of pickles and refill on first use.
    """

    def __init__(self, component: str = ""):
        #: Optional prefix namespacing all sites reported to this collector.
        self.component = component
        self.total = set()
        self.run_new = set()
        #: raw site -> prefixed site
        self._names = {}
        #: raw site -> (prefixed site/T, prefixed site/F)
        self._arms = {}

    def _name(self, site: str) -> str:
        return self.component + ":" + site if self.component else site

    def hit(self, site: str) -> None:
        """Record one execution of branch ``site``."""
        try:
            name = self._names[site]
        except KeyError:
            name = self._names[site] = self._name(site)
        total = self.total
        if name not in total:
            total.add(name)
            self.run_new.add(name)

    def branch(self, site: str, taken: bool) -> bool:
        """Record the taken arm of a two-way branch; returns ``taken``.

        Instrumenting ``if cov.branch("x", cond):`` yields distinct sites
        ``x/T`` and ``x/F`` for the true and false arms, like edge
        coverage distinguishes the two successors of a conditional jump.
        """
        try:
            arms = self._arms[site]
        except KeyError:
            arms = self._arms[site] = (self._name(site + "/T"),
                                       self._name(site + "/F"))
        name = arms[0] if taken else arms[1]
        total = self.total
        if name not in total:
            total.add(name)
            self.run_new.add(name)
        return taken

    def start_run(self) -> None:
        """Start a new test case: ``run_new`` empties, ``total`` stays."""
        self.run_new = set()

    def reset(self) -> None:
        """Drop all recorded sites (``total`` and ``run_new``)."""
        self.total = set()
        self.run_new = set()

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_names"] = {}
        state["_arms"] = {}
        return state

    def __repr__(self) -> str:
        return "CoverageCollector(component=%r, total=%d)" % (
            self.component,
            len(self.total),
        )


#: Former name of the collector, kept for existing importers.
InternedCoverageCollector = CoverageCollector
