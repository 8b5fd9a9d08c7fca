"""Differential suite: the collector must mirror a plain reference.

A hypothesis state machine pairs :class:`CoverageCollector` with a
reference collector written out over :class:`CoverageMap`, drives both
through hits, branches, run resets and re-hits of known sites, and
asserts after every step that ``run_new`` and the ``total`` sites agree,
so a missed first hit or a stale ``run_new`` shows up. A pickle
round-trip property covers the collector and its dropped memo tables.
"""

import pickle
import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.coverage.bitmap import CoverageMap
from repro.coverage.collector import CoverageCollector

SITES = st.sampled_from(["a", "b", "c", "dispatch.opcode/T", "x:y/F", "long." * 8])


class ReferenceCollector:
    """The collector contract written out plainly over :class:`CoverageMap`.

    Each hit records into a string-keyed total map; a site is new to the
    run when the total map has not seen it. :class:`CoverageCollector`
    must be indistinguishable from this on ``run_new`` and the ``total``
    sites.
    """

    def __init__(self, component: str = ""):
        self.component = component
        self.total = CoverageMap()
        self.run_new = set()

    def hit(self, site: str) -> None:
        if self.component:
            site = self.component + ":" + site
        if site not in self.total:
            self.run_new.add(site)
        self.total.hit(site)

    def branch(self, site: str, taken: bool) -> bool:
        self.hit(site + ("/T" if taken else "/F"))
        return taken

    def start_run(self) -> None:
        self.run_new = set()


class CollectorEquivalence(RuleBasedStateMachine):
    """Drive the collector and its reference through the same hits."""

    def __init__(self):
        super().__init__()
        self.reference = ReferenceCollector("c")
        self.collector = CoverageCollector("c")
        #: (kind, site, taken) of every call made so far.
        self.known = []

    def _call(self, kind, site, taken):
        if kind == "hit":
            self.reference.hit(site)
            self.collector.hit(site)
        else:
            assert (self.reference.branch(site, taken)
                    == self.collector.branch(site, taken))

    @rule(site=SITES)
    def hit(self, site):
        self._call("hit", site, None)
        self.known.append(("hit", site, None))

    @rule(site=SITES, taken=st.booleans())
    def branch(self, site, taken):
        self._call("branch", site, taken)
        self.known.append(("branch", site, taken))

    @rule(index=st.integers(min_value=0), times=st.integers(1, 3))
    def rehit_known(self, index, times):
        if self.known:
            for _ in range(times):
                self._call(*self.known[index % len(self.known)])

    @rule()
    def start_run(self):
        self.reference.start_run()
        self.collector.start_run()

    @invariant()
    def observably_identical(self):
        reference, collector = self.reference, self.collector
        assert collector.run_new == reference.run_new
        assert collector.total == reference.total.sites()


TestCollectorEquivalence = CollectorEquivalence.TestCase
TestCollectorEquivalence.settings = settings(max_examples=40, deadline=None,
                                             stateful_step_count=30)


def test_collector_pickle_round_trip():
    collector = CoverageCollector("comp")
    rng = random.Random(3)
    for _ in range(50):
        collector.branch("site%d" % rng.randrange(8), rng.random() < 0.5)
    collector.start_run()
    collector.hit("after-run")
    restored = pickle.loads(pickle.dumps(collector))
    assert restored.component == collector.component
    assert restored.run_new == collector.run_new
    assert restored.total == collector.total
    assert restored._names == {} and restored._arms == {}
    # The memo tables refill on use, and the restored collector keeps
    # collecting as the original does: a known site is not new again.
    for target in (restored, collector):
        target.start_run()
        target.hit("after-run")
        target.branch("site1", True)
        target.hit("after-restore")
    assert restored.run_new == collector.run_new
    assert "comp:after-run" not in restored.run_new
    assert restored.total == collector.total


def test_collectors_observe_identically():
    """The collector reports the same total/run_new as its reference."""
    reference, collector = ReferenceCollector("c"), CoverageCollector("c")
    rng = random.Random(7)
    for step in range(200):
        if step % 17 == 0:
            reference.start_run()
            collector.start_run()
        site = "s%d" % rng.randrange(12)
        if rng.random() < 0.5:
            reference.hit(site)
            collector.hit(site)
        else:
            taken = rng.random() < 0.5
            assert reference.branch(site, taken) == collector.branch(site, taken)
        assert reference.run_new == collector.run_new
    assert reference.total.sites() == collector.total
