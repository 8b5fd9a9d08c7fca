"""Differential suite: IndexedCoverageMap must mirror CoverageMap.

A hypothesis state machine drives a plain :class:`CoverageMap` and an
interned :class:`IndexedCoverageMap` through arbitrary operation
sequences (hit / merge / union / new_sites / same_sites / copy / clear /
equality) and asserts the observable states never diverge. A second one
pairs the interned :class:`CoverageCollector` with a plain reference
collector over :class:`CoverageMap` through hits, branches, run resets
and ``sites()`` reads interleaved with re-hits of known sites, so a
stale ``sites()`` cache or a missed ``run_new`` entry shows up. Pickle
round-trip properties cover the interner, the map and the collector.
"""

import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.coverage.bitmap import CoverageMap
from repro.coverage.collector import CoverageCollector
from repro.coverage.indexed import IndexedCoverageMap
from repro.coverage.interner import SiteInterner

SITES = st.sampled_from(["a", "b", "c", "dispatch.opcode/T", "x:y/F", "long." * 8])
COUNTS = st.integers(min_value=1, max_value=5)


def _site_lists():
    return st.lists(st.tuples(SITES, COUNTS), max_size=8)


def _assert_mirrors(slow: CoverageMap, fast: IndexedCoverageMap):
    assert fast.as_dict() == dict(slow._hits)
    assert fast.sites() == slow.sites()
    assert len(fast) == len(slow)
    assert bool(fast) == bool(slow)
    assert sorted(fast) == sorted(slow)
    assert fast == slow          # IndexedCoverageMap.__eq__
    assert slow == fast          # reflected through NotImplemented
    for site in slow.sites():
        assert site in fast
        assert fast.count(site) == slow.count(site)
    assert "never-hit" not in fast
    assert fast.count("never-hit") == 0


class MapEquivalence(RuleBasedStateMachine):
    """Drive both flavours through the same operations."""

    def __init__(self):
        super().__init__()
        self.slow = CoverageMap()
        self.fast = IndexedCoverageMap()

    @rule(site=SITES, count=COUNTS)
    def hit(self, site, count):
        self.slow.hit(site, count)
        self.fast.hit(site, count)

    @rule(pairs=_site_lists(), indexed=st.booleans(), shared=st.booleans())
    def merge(self, pairs, indexed, shared):
        """Merge an indexed (same or foreign interner) or plain map."""
        slow_other = CoverageMap()
        if indexed:
            interner = self.fast.interner if shared else SiteInterner()
            fast_other = IndexedCoverageMap(interner)
        else:
            fast_other = CoverageMap()
        for site, count in pairs:
            slow_other.hit(site, count)
            fast_other.hit(site, count)
        self.slow.merge(slow_other)
        self.fast.merge(fast_other)

    @rule(pairs=_site_lists())
    def union_and_diff_match(self, pairs):
        slow_other = CoverageMap()
        fast_other = IndexedCoverageMap(self.fast.interner)
        for site, count in pairs:
            slow_other.hit(site, count)
            fast_other.hit(site, count)
        assert (self.fast.union(fast_other).as_dict()
                == dict(self.slow.union(slow_other)._hits))
        assert self.fast.new_sites(fast_other) == self.slow.new_sites(slow_other)
        assert (self.fast.same_sites(fast_other)
                == self.slow.same_sites(slow_other))
        # Cross-flavor: indexed vs plain map arguments agree too.
        assert self.fast.new_sites(slow_other) == self.slow.new_sites(slow_other)
        assert (self.fast.same_sites(slow_other)
                == self.slow.same_sites(slow_other))

    @rule()
    def copy_detaches(self):
        before = self.fast.as_dict()
        fast_clone = self.fast.copy()
        slow_clone = self.slow.copy()
        fast_clone.hit("clone-only")
        slow_clone.hit("clone-only")
        _assert_mirrors(slow_clone, fast_clone)
        # Mutating the clone left the original untouched.
        assert self.fast.as_dict() == before

    @rule()
    def pickle_round_trip(self):
        restored = pickle.loads(pickle.dumps(self.fast))
        assert restored == self.fast
        assert restored.as_dict() == self.fast.as_dict()

    @rule()
    def clear(self):
        self.slow.clear()
        self.fast.clear()

    @invariant()
    def observably_identical(self):
        _assert_mirrors(self.slow, self.fast)


TestMapEquivalence = MapEquivalence.TestCase
TestMapEquivalence.settings = settings(max_examples=30, deadline=None,
                                       stateful_step_count=20)


class ReferenceCollector:
    """The collector contract written out plainly over :class:`CoverageMap`.

    Each hit bumps a string-keyed run map and total map; a site is new
    to the run when the total map has not seen it. The interned
    :class:`CoverageCollector` must be indistinguishable from this.
    """

    def __init__(self, component: str = ""):
        self.component = component
        self.run = CoverageMap()
        self.total = CoverageMap()
        self.run_new = set()

    def hit(self, site: str) -> None:
        if self.component:
            site = self.component + ":" + site
        if site not in self.total:
            self.run_new.add(site)
        self.run._bump(site)
        self.total._bump(site)

    def branch(self, site: str, taken: bool) -> bool:
        self.hit(site + ("/T" if taken else "/F"))
        return taken

    def start_run(self) -> None:
        self.run = CoverageMap()
        self.run_new = set()


class CollectorEquivalence(RuleBasedStateMachine):
    """Drive the collector and its reference through the same hits.

    ``sites()`` results are cached by the interned maps; reading them
    between re-hits of known sites (which must leave the cache valid)
    and first hits of a site in a fresh run (which must not) checks the
    cache's invalidation against the reference after every step.
    """

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

    @rule(index=st.integers(min_value=0))
    def read_then_rehit(self, index):
        """A sites() read, a re-hit, then the read again."""
        reference, collector = self.reference, self.collector
        before = (collector.run.sites(), collector.total.sites())
        assert before == (reference.run.sites(), reference.total.sites())
        if self.known:
            self._call(*self.known[index % len(self.known)])
        assert collector.run.sites() == reference.run.sites()
        assert collector.total.sites() == reference.total.sites()

    @invariant()
    def observably_identical(self):
        reference, collector = self.reference, self.collector
        assert collector.run_new == reference.run_new
        assert collector.run.sites() == reference.run.sites()
        assert collector.total.sites() == reference.total.sites()
        assert collector.run.as_dict() == dict(reference.run._hits)
        assert collector.total.as_dict() == dict(reference.total._hits)


TestCollectorEquivalence = CollectorEquivalence.TestCase
TestCollectorEquivalence.settings = settings(max_examples=40, deadline=None,
                                             stateful_step_count=30)


# -- interner properties ---------------------------------------------------


@given(st.lists(SITES))
def test_interner_ids_are_dense_and_stable(sites):
    interner = SiteInterner()
    ids = [interner.intern(site) for site in sites]
    # Re-interning returns the same id; ids are dense from zero.
    assert [interner.intern(site) for site in sites] == ids
    assert sorted(set(ids)) == list(range(len(set(sites))))
    for site, idx in zip(sites, ids):
        assert interner._sites[idx] == site


@given(st.lists(SITES))
def test_interner_pickle_round_trip(sites):
    interner = SiteInterner()
    for site in sites:
        interner.intern(site)
    restored = pickle.loads(pickle.dumps(interner))
    assert restored == interner
    # The restored mapping hands out identical ids for known sites...
    for site in set(sites):
        assert restored.intern(site) == interner.intern(site)
    # ...and keeps allocating densely above them.
    fresh = restored.intern("fresh-after-restore")
    assert fresh == len(set(sites))


def test_indexed_map_pickle_preserves_shared_interner():
    interner = SiteInterner()
    left = IndexedCoverageMap(interner, sites=["a", "b"])
    right = IndexedCoverageMap(interner, sites=["b", "c"])
    restored_left, restored_right = pickle.loads(pickle.dumps((left, right)))
    # One shared interner object on both sides of the round trip.
    assert restored_left.interner is restored_right.interner
    assert restored_left == left and restored_right == right


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
    assert restored.total.as_dict() == collector.total.as_dict()
    assert restored.run.as_dict() == collector.run.as_dict()
    # The memo tables are left out of the pickle and refill on use
    # without interning a known site twice.
    assert restored._entries == {} and restored._branch_entries == {}
    for target in (restored, collector):
        target.hit("after-run")
        target.branch("site1", True)
    assert len(restored.interner) == len(collector.interner)
    # The restored collector keeps collecting consistently.
    restored.hit("after-restore")
    collector.hit("after-restore")
    assert restored.total.as_dict() == collector.total.as_dict()


def test_collectors_observe_identically():
    """The collector reports the same run/total/run_new as its reference."""
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
    assert dict(reference.total._hits) == collector.total.as_dict()
    assert dict(reference.run._hits) == collector.run.as_dict()
