"""Coverage collectors wired into instrumented target code."""

from __future__ import annotations

from repro.coverage.indexed import IndexedCoverageMap
from repro.coverage.interner import SiteInterner


class CoverageCollector:
    """Receives branch-site hits from instrumented code.

    A collector owns two maps: ``run`` (the current execution, reset between
    test cases) and ``total`` (the cumulative bitmap for the campaign).
    Target code holds a reference to the collector and calls :meth:`hit`
    at each decision point — the Python analogue of a trace-pc-guard
    callback writing into the shared bitmap. ``run_new`` holds the
    (component-prefixed) sites first discovered during the current run.

    Sites are interned, so each hit costs one dict probe on the
    (hash-cached) literal the target passed, plus int-set/array bumps:

    - ``_entries`` memoises raw site -> ``(id, prefixed site)`` so the
      ``component + ":" + site`` concatenation and the re-hash of the
      long prefixed string happen once per distinct site per campaign,
      not once per hit;
    - ``_branch_entries`` does the same for both arms of
      :meth:`branch`, killing the per-call ``site + "/T"`` concat;
    - ``run``/``total`` are :class:`IndexedCoverageMap` twins sharing
      one :class:`SiteInterner`, so the per-hit bookkeeping is two
      array bumps and set adds on small ints.

    The whole object graph (interner included) pickles, so checkpointed
    campaigns resume with their id assignment intact.
    """

    def __init__(self, component: str = ""):
        #: Optional prefix namespacing all sites reported to this collector.
        self.component = component
        self.interner = SiteInterner()
        self.run = IndexedCoverageMap(self.interner)
        self.total = IndexedCoverageMap(self.interner)
        self.run_new = set()
        #: raw site -> (interned id, prefixed site string)
        self._entries = {}
        #: raw site -> ((id, site/T), (id, site/F))
        self._branch_entries = {}

    def _intern(self, site: str):
        full = self.component + ":" + site if self.component else site
        entry = (self.interner.intern(full), full)
        self._entries[site] = entry
        return entry

    def hit(self, site: str) -> None:
        """Record one execution of branch ``site``.

        The double-map bump is written out inline (not delegated to
        ``IndexedCoverageMap._bump_id``): an extra Python call per hit
        is measurable at instrumentation rates. ``start_run`` presizes
        the run map, so growth is the rare case. Each map's counter is
        bumped on every hit, but its id set and ``sites()`` cache change
        only when the id is new to that map (``sites()`` depends on the
        id set alone); a site is new to the run exactly when the total
        map first sees it.
        """
        entry = self._entries.get(site)
        if entry is None:
            entry = self._intern(site)
        idx, full = entry
        run = self.run
        counts = run._counts
        if idx >= len(counts):
            counts.frombytes(bytes((idx + 1 - len(counts)) * counts.itemsize))
        counts[idx] += 1
        ids = run._ids
        if idx not in ids:
            ids.add(idx)
            run._sites_cache = None
        total = self.total
        counts = total._counts
        if idx >= len(counts):
            counts.frombytes(bytes((idx + 1 - len(counts)) * counts.itemsize))
        counts[idx] += 1
        ids = total._ids
        if idx not in ids:
            ids.add(idx)
            total._sites_cache = None
            self.run_new.add(full)

    def branch(self, site: str, taken: bool) -> bool:
        """Record both arms of a two-way branch; returns ``taken``.

        Instrumenting ``if cov.branch("x", cond):`` yields distinct sites
        ``x/T`` and ``x/F`` for the true and false arms, like edge
        coverage distinguishes the two successors of a conditional jump.
        """
        pair = self._branch_entries.get(site)
        if pair is None:
            pair = (self._intern(site + "/T"), self._intern(site + "/F"))
            self._branch_entries[site] = pair
        idx, full = pair[0] if taken else pair[1]
        run = self.run
        counts = run._counts
        if idx >= len(counts):
            counts.frombytes(bytes((idx + 1 - len(counts)) * counts.itemsize))
        counts[idx] += 1
        ids = run._ids
        if idx not in ids:
            ids.add(idx)
            run._sites_cache = None
        total = self.total
        counts = total._counts
        if idx >= len(counts):
            counts.frombytes(bytes((idx + 1 - len(counts)) * counts.itemsize))
        counts[idx] += 1
        ids = total._ids
        if idx not in ids:
            ids.add(idx)
            total._sites_cache = None
            self.run_new.add(full)
        return taken

    def start_run(self) -> None:
        """Reset the per-run map before executing a new test case.

        The fresh map is presized to the interner: after warm-up a run
        re-hits known sites, so paying one zeroed-block allocation here
        spares an array growth per distinct site inside the run.
        """
        run = IndexedCoverageMap(self.interner)
        known = len(self.interner._sites)
        if known:
            run._counts.frombytes(bytes(known * run._counts.itemsize))
        self.run = run
        self.run_new = set()

    def end_run(self) -> IndexedCoverageMap:
        """Return the per-run map accumulated since :meth:`start_run`."""
        return self.run

    def reset(self) -> None:
        """Drop all state (run and total); interned ids stay valid."""
        self.start_run()
        self.total = IndexedCoverageMap(self.interner)

    def __getstate__(self):
        # The two memo tables only cache what the interner already
        # holds and refill on first use, so checkpoints leave them out.
        state = self.__dict__.copy()
        state["_entries"] = {}
        state["_branch_entries"] = {}
        return state

    def __repr__(self) -> str:
        return "CoverageCollector(component=%r, total=%d)" % (
            self.component,
            len(self.total),
        )


#: Former name of the interned collector, kept for existing importers.
InternedCoverageCollector = CoverageCollector


class ProbeCollector:
    """A set-only collector for a stream of startup probes.

    Relation quantification needs only the *set* of sites each startup
    covers, and in a startup every hit is a first hit, so the
    counters and interned ids of :class:`CoverageCollector` are pure
    cost there. One probe collector serves every probe of a stream:

    - ``_names`` memoises raw site -> prefixed site, and ``_arms`` the
      two prefixed arms of :meth:`branch`, so every probe shares one
      string per site and :meth:`hit`/:meth:`branch` are one
      ``set.add`` each;
    - ``_sets`` maps each site set to one shared ``frozenset``, which
      :meth:`end_run` returns, so equal startups are one object.
    """

    def __init__(self, component: str = ""):
        self.component = component
        self.run = set()
        self._names = {}
        self._arms = {}
        self._sets = {}

    def _name(self, site: str) -> str:
        name = self.component + ":" + site if self.component else site
        self._names[site] = name
        return name

    def hit(self, site: str) -> None:
        try:
            self.run.add(self._names[site])
        except KeyError:
            self.run.add(self._name(site))

    def branch(self, site: str, taken: bool) -> bool:
        try:
            arms = self._arms[site]
        except KeyError:
            arms = self._arms[site] = (self._name(site + "/T"),
                                       self._name(site + "/F"))
        self.run.add(arms[0] if taken else arms[1])
        return taken

    def start_run(self) -> None:
        self.run = set()

    def end_run(self) -> frozenset:
        sites = frozenset(self.run)
        return self._sets.setdefault(sites, sites)


class NullCollector(CoverageCollector):
    """A collector that discards everything (uninstrumented runs)."""

    def hit(self, site: str) -> None:  # noqa: D102 - intentionally no-op
        pass

    def branch(self, site: str, taken: bool) -> bool:  # noqa: D102
        return taken
