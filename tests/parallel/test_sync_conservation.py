"""Seed-sync conservation: no seed is ever silently dropped.

Regression tests for the cursor-jump bug: the old synchroniser advanced
a per-instance cursor to ``len(engine.corpus)`` after each round, so any
seed past the per-round cap — and any seed discovered concurrently with
the round — was never broadcast. The outbox design must conserve seeds:
every locally discovered seed reaches every other instance exactly once,
only later if a round's cap defers it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzing.engine import FuzzEngine
from repro.harness.campaign import CampaignConfig, _CampaignContext
from repro.parallel.peach import PeachParallelMode
from repro.parallel.sync import SeedSynchronizer
from repro.targets.mqtt.pit import state_model
from repro.targets.mqtt.server import MosquittoTarget


def _instances(n=2, seed=1):
    config = CampaignConfig(n_instances=n, seed=seed)
    ctx = _CampaignContext(MosquittoTarget, state_model(), config)
    instances = PeachParallelMode().create_instances(ctx)
    for instance in instances:
        instance.start()
    return instances


def _seed_message():
    return state_model().data_model("Connect").build()


class TestOverflowConservation:
    def test_over_cap_seeds_broadcast_on_later_rounds(self):
        """Pre-fix, everything past max_per_sync was silently lost."""
        instances = _instances(2)
        for _ in range(10):
            instances[0].engine.add_seed(_seed_message())
        synchronizer = SeedSynchronizer(max_per_sync=4)
        assert synchronizer.sync(instances) == 4
        assert synchronizer.pending(instances) == 6
        assert synchronizer.sync(instances) == 4
        assert synchronizer.sync(instances) == 2
        assert synchronizer.sync(instances) == 0
        assert synchronizer.pending(instances) == 0
        assert synchronizer.seeds_dropped(instances) == 0
        assert synchronizer.broadcasts == 10

    def test_seeds_discovered_mid_round_survive_to_the_next(self):
        """The cursor jump also discarded concurrent discoveries."""
        instances = _instances(2)
        origin = instances[0].engine
        deliver = instances[1].engine.receive_seed

        def receive_and_discover(message):
            """Receiving a seed triggers a new local discovery."""
            deliver(message)
            origin.add_seed(_seed_message())

        instances[1].engine.receive_seed = receive_and_discover
        origin.add_seed(_seed_message())
        synchronizer = SeedSynchronizer(max_per_sync=16)
        assert synchronizer.sync(instances) == 1
        # The mid-round discovery is queued, not lost.
        assert synchronizer.pending(instances) == 1
        assert synchronizer.sync(instances) == 1
        assert synchronizer.seeds_dropped(instances) == 0

    def test_received_seeds_enter_corpus_but_not_outbox(self):
        instances = _instances(3)
        instances[0].engine.add_seed(_seed_message())
        SeedSynchronizer().sync(instances)
        for instance in instances[1:]:
            assert len(instance.engine.sync_outbox) == 0
            assert instance.engine.corpus  # delivered

    def test_outbox_overflow_is_counted_not_silent(self):
        instances = _instances(2)
        engine = instances[0].engine
        engine.outbox_limit = 5
        for _ in range(8):
            engine.add_seed(_seed_message())
        assert len(engine.sync_outbox) == 5
        assert engine.sync_seeds_dropped == 3
        assert SeedSynchronizer().seeds_dropped(instances) == 3

    def test_engine_rejects_nonpositive_outbox_limit(self):
        import pytest

        instances = _instances(1)
        engine = instances[0].engine
        with pytest.raises(ValueError):
            FuzzEngine(state_model(), engine.transport,
                       instances[0].collector, outbox_limit=0)


class _StubEngine:
    """Just the synchroniser-facing surface of FuzzEngine."""

    def __init__(self):
        self.sync_outbox = []
        self.sync_seeds_dropped = 0
        self.received = []

    def add_seed(self, message):
        self.sync_outbox.append(message)

    def receive_seed(self, message):
        self.received.append(message)


class _StubInstance:
    def __init__(self, index):
        self.index = index
        self.engine = _StubEngine()


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=30),
                    min_size=2, max_size=5),
    max_per_sync=st.integers(min_value=1, max_value=8),
)
def test_every_seed_reaches_every_other_instance_exactly_once(
        counts, max_per_sync):
    """Conservation property over arbitrary discovery patterns."""
    instances = [_StubInstance(i) for i in range(len(counts))]
    expected = {}
    for instance, count in zip(instances, counts):
        for sequence in range(count):
            seed = (instance.index, sequence)
            instance.engine.add_seed(seed)
            expected[seed] = instance.index
    synchronizer = SeedSynchronizer(max_per_sync=max_per_sync)
    rounds = 0
    while synchronizer.pending(instances):
        synchronizer.sync(instances)
        rounds += 1
        assert rounds <= sum(counts) + 1, "synchroniser failed to drain"
    synchronizer.sync(instances)  # settled: an extra round moves nothing

    for instance in instances:
        others = [seed for seed, origin in expected.items()
                  if origin != instance.index]
        # Exactly once each: no drops, no duplicates, no self-delivery.
        assert sorted(instance.engine.received) == sorted(others)
        assert instance.engine.sync_seeds_dropped == 0
    assert synchronizer.seeds_taken == len(expected)
    assert synchronizer.broadcasts == sum(
        (len(counts) - 1) * count for count in counts
    )


class TestOneCopyPerSeed:
    """An engine keeps one copy of each seed it finds, and queues it for
    broadcast only when its mode owns a synchronizer — a decision the
    campaign takes from the mode, so hybrid (built through CMFuzz's
    engine factory) still shares seeds."""

    @pytest.mark.parametrize("mode_name, shares", [
        ("cmfuzz", False), ("peach", False), ("plateau", False),
        ("spfuzz", True), ("statemap", True), ("hybrid", True),
    ])
    def test_only_modes_that_sync_queue_seeds(self, mode_name, shares):
        from repro.harness.campaign import _fresh_state
        from repro.parallel import create_mode

        state = _fresh_state(MosquittoTarget, state_model(),
                             create_mode(mode_name),
                             CampaignConfig(n_instances=2, seed=3))
        for instance in state.ctx.instances:
            engine = instance.engine
            engine.add_seed(_seed_message())
            if shares:
                assert engine.sync_outbox == [engine.corpus[-1]]
                assert engine.sync_outbox[0] is engine.corpus[-1]
            else:
                assert engine.sync_outbox == []
