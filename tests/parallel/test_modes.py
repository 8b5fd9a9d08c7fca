"""Tests for the Peach-parallel and SPFuzz baseline modes."""

import pytest

from repro.harness.campaign import CampaignConfig, _CampaignContext
from repro.parallel.peach import PeachParallelMode
from repro.parallel.spfuzz import SpFuzzMode
from repro.parallel.sync import SeedSynchronizer
from repro.targets.mqtt.pit import state_model
from repro.targets.mqtt.server import MosquittoTarget


def _ctx(n_instances=4, seed=1):
    config = CampaignConfig(n_instances=n_instances, seed=seed)
    return _CampaignContext(MosquittoTarget, state_model(), config)


class TestPeachParallel:
    def test_creates_requested_instances(self):
        ctx = _ctx(4)
        instances = PeachParallelMode().create_instances(ctx)
        assert len(instances) == 4

    def test_all_instances_default_config(self):
        ctx = _ctx(3)
        for instance in PeachParallelMode().create_instances(ctx):
            assert instance.bundle.assignment == {}

    def test_distinct_seeds(self):
        ctx = _ctx(3)
        instances = PeachParallelMode().create_instances(ctx)
        for instance in instances:
            instance.start()
        seeds = {id(instance.engine.rng) for instance in instances}
        assert len(seeds) == 3
        outputs = set()
        for instance in instances:
            outputs.add(tuple(instance.engine.rng.random() for _ in range(3)))
        assert len(outputs) == 3

    def test_isolated_namespaces(self):
        ctx = _ctx(2)
        instances = PeachParallelMode().create_instances(ctx)
        names = {instance.namespace.name for instance in instances}
        assert len(names) == 2


class TestSpFuzz:
    def test_paths_partitioned_across_instances(self):
        ctx = _ctx(4)
        instances = SpFuzzMode().create_instances(ctx)
        all_paths = set(state_model().simple_paths(max_length=8))
        union = set()
        for instance in instances:
            instance.start()
            assigned = set(instance.engine.allowed_paths)
            union |= assigned
        assert union == all_paths

    def test_partitions_disjoint_when_enough_paths(self):
        ctx = _ctx(2)
        instances = SpFuzzMode().create_instances(ctx)
        for instance in instances:
            instance.start()
        first = set(instances[0].engine.allowed_paths)
        second = set(instances[1].engine.allowed_paths)
        assert not first & second

    def test_no_instance_left_idle(self):
        # More instances than paths: leftovers fall back to all paths.
        ctx = _ctx(4)
        mode = SpFuzzMode(max_path_length=2)
        instances = mode.create_instances(ctx)
        for instance in instances:
            instance.start()
            assert instance.engine.allowed_paths

    def test_on_sync_broadcasts_seeds(self):
        ctx = _ctx(2)
        mode = SpFuzzMode()
        ctx.instances = mode.create_instances(ctx)
        for instance in ctx.instances:
            instance.start()
        message = state_model().data_model("Connect").build()
        ctx.instances[0].engine.add_seed(message)
        mode.on_sync(ctx)
        assert len(ctx.instances[1].engine.corpus) == 1


class TestSeedSynchronizer:
    def test_broadcast_counts(self):
        ctx = _ctx(3)
        instances = PeachParallelMode().create_instances(ctx)
        for instance in instances:
            instance.start()
        message = state_model().data_model("Connect").build()
        instances[0].engine.add_seed(message)
        synchronizer = SeedSynchronizer()
        assert synchronizer.sync(instances) == 2  # to the other two

    def test_no_rebroadcast_of_old_seeds(self):
        ctx = _ctx(2)
        instances = PeachParallelMode().create_instances(ctx)
        for instance in instances:
            instance.start()
        message = state_model().data_model("Connect").build()
        instances[0].engine.add_seed(message)
        synchronizer = SeedSynchronizer()
        assert synchronizer.sync(instances) == 1
        # Received copies are not re-broadcast: equilibrium immediately.
        assert synchronizer.sync(instances) == 0
        assert synchronizer.sync(instances) == 0

    def test_bounded_per_sync(self):
        ctx = _ctx(2)
        instances = PeachParallelMode().create_instances(ctx)
        for instance in instances:
            instance.start()
        message = state_model().data_model("Connect").build()
        for _ in range(50):
            instances[0].engine.add_seed(message)
        synchronizer = SeedSynchronizer(max_per_sync=4)
        assert synchronizer.sync(instances) == 4

    def test_invalid_max_per_sync(self):
        with pytest.raises(ValueError):
            SeedSynchronizer(max_per_sync=0)
