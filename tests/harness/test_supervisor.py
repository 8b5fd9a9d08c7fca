"""Unit tests for the instance supervisor's lifecycle machinery."""

import pytest

from repro.core.extraction import ConfigSources
from repro.errors import StartupError
from repro.fuzzing.datamodel import Blob, DataModel
from repro.fuzzing.engine import IterationResult
from repro.fuzzing.statemodel import Action, State, StateModel
from repro.harness.campaign import CampaignConfig, _CampaignContext
from repro.harness.supervisor import (
    InstanceState,
    InstanceSupervisor,
    SupervisorPolicy,
    event_counts,
)
from repro.parallel.base import ParallelMode
from repro.parallel.cmfuzz import CmFuzzMode
from repro.parallel.instance import FuzzingInstance
from repro.parallel.spfuzz import SpFuzzMode
from repro.targets import get_target
from repro.targets.base import ProtocolTarget


class _FlakyTarget(ProtocolTarget):
    """Startup fails while the class-level fuse is lit."""

    NAME = "flaky"
    PROTOCOL = "FLAKY"
    PORT = 4100
    fail_startups = 0  # number of upcoming startups that raise

    @classmethod
    def config_sources(cls):
        return ConfigSources()

    @classmethod
    def default_config(cls):
        return {}

    def _startup_impl(self):
        self.cov.hit("startup")
        if type(self).fail_startups > 0:
            type(self).fail_startups -= 1
            raise StartupError("flaky boot")

    def handle_packet(self, data):
        self.require_started()
        self.cov.hit("packet")
        return b"ok"


class _RecordingMode(ParallelMode):
    """Captures the graceful-degradation hook invocations."""

    name = "recording"

    def __init__(self):
        self.lost = []
        self.revived = []

    def create_instances(self, ctx):
        return []

    def on_instance_lost(self, ctx, instance):
        self.lost.append(instance.index)

    def on_instance_revived(self, ctx, instance):
        self.revived.append(instance.index)


def _pit():
    return StateModel(
        "flaky", "s",
        [State("s", [Action("send", "Msg")])],
        [DataModel("Msg", [Blob("b", default=b"x")])],
    )


def _setup(policy, seed=1):
    """One started flaky instance under supervision."""
    _FlakyTarget.fail_startups = 0
    config = CampaignConfig(n_instances=1, duration_hours=1.0, seed=seed)
    ctx = _CampaignContext(_FlakyTarget, _pit(), config)
    namespace = ctx.namespaces.create("flaky-0")
    instance = FuzzingInstance(0, _FlakyTarget, namespace, lambda t, c: None)
    ctx.instances = [instance]
    instance.restart({})
    mode = _RecordingMode()
    supervisor = InstanceSupervisor(ctx, mode, policy)
    ctx.supervisor = supervisor
    return ctx, instance, mode, supervisor


def _kinds(supervisor):
    return [event.kind for event in supervisor.events]


class TestBackoffSchedule:
    def test_exponential_growth_capped(self):
        policy = SupervisorPolicy(backoff_base=100.0, backoff_factor=2.0,
                                  backoff_max=500.0, backoff_jitter=0.0)
        _, _, _, supervisor = _setup(policy)
        delays = [supervisor.backoff_delay(n, 0) for n in (1, 2, 3, 4, 5)]
        assert delays == [100.0, 200.0, 400.0, 500.0, 500.0]

    def test_jitter_stays_within_fraction_and_is_deterministic(self):
        policy = SupervisorPolicy(backoff_base=100.0, backoff_jitter=0.1)
        _, _, _, first = _setup(policy, seed=7)
        _, _, _, second = _setup(policy, seed=7)
        a = [first.backoff_delay(1, 0) for _ in range(16)]
        b = [second.backoff_delay(1, 0) for _ in range(16)]
        assert a == b
        assert all(90.0 <= delay <= 110.0 for delay in a)
        assert len(set(a)) > 1  # jitter actually varies across retries


class TestCrashAndBackoff:
    def test_successful_restart_charges_downtime(self):
        ctx, instance, _, supervisor = _setup(SupervisorPolicy())
        supervisor.handle_crash(instance, now=1000.0)
        assert supervisor.state_of(instance) is InstanceState.RUNNING
        assert instance.down_until == 1000.0 + ctx.costs.crash_restart
        assert _kinds(supervisor) == ["restart"]

    def test_failed_restart_enters_backoff(self):
        _, instance, _, supervisor = _setup(SupervisorPolicy())
        _FlakyTarget.fail_startups = 1
        supervisor.handle_crash(instance, now=1000.0)
        assert supervisor.state_of(instance) is InstanceState.BACKOFF
        assert instance.down_until > 1000.0
        assert _kinds(supervisor) == ["backoff"]

    def test_backoff_retry_recovers_on_poll(self):
        _, instance, _, supervisor = _setup(SupervisorPolicy())
        _FlakyTarget.fail_startups = 1
        supervisor.handle_crash(instance, now=1000.0)
        supervisor.poll(instance.down_until + 1.0)
        assert supervisor.state_of(instance) is InstanceState.RUNNING
        assert _kinds(supervisor) == ["backoff", "restart"]

    def test_success_resets_the_failure_streak(self):
        policy = SupervisorPolicy(backoff_jitter=0.0)
        _, instance, _, supervisor = _setup(policy)
        _FlakyTarget.fail_startups = 1
        supervisor.handle_crash(instance, now=1000.0)
        first_delay = instance.down_until - 1000.0
        supervisor.poll(instance.down_until + 1.0)  # recovers
        _FlakyTarget.fail_startups = 1
        now = instance.down_until + 10.0
        supervisor.handle_crash(instance, now=now)
        assert instance.down_until - (now) == pytest.approx(first_delay)


class TestQuarantineAndRevival:
    policy = SupervisorPolicy(restart_budget=2, backoff_jitter=0.0,
                              quarantine_backoff=600.0, max_revival_probes=2)

    def _drive_to_quarantine(self, supervisor, instance):
        _FlakyTarget.fail_startups = 10 ** 6
        now = 1000.0
        supervisor.handle_crash(instance, now)
        while not instance.quarantined:
            now = instance.down_until + 1.0
            supervisor.poll(now)
        return now

    def test_budget_exhaustion_quarantines_and_notifies_mode(self):
        _, instance, mode, supervisor = _setup(self.policy)
        self._drive_to_quarantine(supervisor, instance)
        assert supervisor.state_of(instance) is InstanceState.QUARANTINED
        assert instance.quarantined and not instance.dead
        assert mode.lost == [0]
        counts = event_counts(supervisor.events)
        assert counts["quarantine"] == 1
        assert counts["backoff"] == self.policy.restart_budget

    def test_quarantined_instance_is_unavailable(self):
        _, instance, _, supervisor = _setup(self.policy)
        now = self._drive_to_quarantine(supervisor, instance)
        assert not instance.available(now + 10 ** 6)

    def test_revival_probe_restores_the_instance(self):
        _, instance, mode, supervisor = _setup(self.policy)
        now = self._drive_to_quarantine(supervisor, instance)
        _FlakyTarget.fail_startups = 0  # target healthy again
        supervisor.poll(now + self.policy.quarantine_backoff + 1.0)
        assert supervisor.state_of(instance) is InstanceState.RUNNING
        assert not instance.quarantined and not instance.dead
        assert mode.revived == [0]
        counts = event_counts(supervisor.events)
        assert counts["revive-probe"] == 1 and counts["revive"] == 1

    def test_give_up_after_max_failed_probes(self):
        _, instance, mode, supervisor = _setup(self.policy)
        now = self._drive_to_quarantine(supervisor, instance)
        for _ in range(self.policy.max_revival_probes):
            now += self.policy.quarantine_backoff * 8
            supervisor.poll(now)
        assert supervisor.state_of(instance) is InstanceState.GIVEN_UP
        assert instance.dead and not instance.quarantined
        assert mode.revived == []
        counts = event_counts(supervisor.events)
        assert counts["give-up"] == 1
        assert counts["revive-probe"] == self.policy.max_revival_probes


class TestWatchdogs:
    def test_hang_watchdog_restarts_after_limit(self):
        _, instance, _, supervisor = _setup(SupervisorPolicy(hang_limit=3))
        for tick in range(3):
            supervisor.handle_hang(instance, now=1000.0 + tick)
        assert instance.hangs == 3
        counts = event_counts(supervisor.events)
        assert counts["watchdog"] == 1 and counts["restart"] == 1

    def test_healthy_iteration_resets_hang_streak(self):
        _, instance, _, supervisor = _setup(SupervisorPolicy(hang_limit=2))
        healthy = IterationResult(new_sites=frozenset({"x"}),
                                  messages_sent=3, responses=3)
        supervisor.handle_hang(instance, now=1000.0)
        supervisor.observe(instance, healthy, now=1100.0)
        supervisor.handle_hang(instance, now=1200.0)
        assert "watchdog" not in _kinds(supervisor)

    def test_dead_air_watchdog_detects_silent_death(self):
        policy = SupervisorPolicy(dead_air_limit=2)
        _, instance, _, supervisor = _setup(policy)
        silent = IterationResult(new_sites=frozenset(), messages_sent=4,
                                 responses=0)
        supervisor.observe(instance, silent, now=1000.0)
        supervisor.observe(instance, silent, now=1030.0)
        counts = event_counts(supervisor.events)
        assert counts["watchdog"] == 1 and counts["restart"] == 1

    def test_dead_air_watchdog_disabled_by_default(self):
        _, instance, _, supervisor = _setup(SupervisorPolicy())
        silent = IterationResult(new_sites=frozenset(), messages_sent=4,
                                 responses=0)
        for tick in range(32):
            supervisor.observe(instance, silent, now=1000.0 + 30.0 * tick)
        assert supervisor.events == []


class TestCmFuzzReallocation:
    def _ctx(self, n_instances=3):
        config = CampaignConfig(n_instances=n_instances, seed=0)
        ctx = _CampaignContext(get_target("dnsmasq").target_cls,
                               get_target("dnsmasq").state_model(), config)
        mode = CmFuzzMode()
        ctx.instances = mode.create_instances(ctx)
        return ctx, mode

    def test_lost_group_is_donated_to_survivors(self):
        ctx, mode = self._ctx()
        lost = ctx.instances[0]
        lost_group = set(lost.bundle.group)
        assert lost_group  # the test needs a non-trivial group to donate
        mode.on_instance_lost(ctx, lost)
        survivor_entities = set()
        for survivor in ctx.instances[1:]:
            survivor_entities.update(survivor.bundle.group)
        assert lost_group <= survivor_entities

    def test_revival_returns_donated_entities(self):
        ctx, mode = self._ctx()
        lost = ctx.instances[0]
        before = {i.index: sorted(i.bundle.group) for i in ctx.instances[1:]}
        mode.on_instance_lost(ctx, lost)
        mode.on_instance_revived(ctx, lost)
        after = {i.index: sorted(i.bundle.group) for i in ctx.instances[1:]}
        assert after == before
        assert mode._donations == {}

    def test_every_lost_entity_is_accounted_for(self):
        ctx, mode = self._ctx(n_instances=4)
        lost = ctx.instances[0]
        already_elsewhere = set()
        for survivor in ctx.instances[1:]:
            already_elsewhere.update(survivor.bundle.group)
        mode.on_instance_lost(ctx, lost)
        donated = {entity for _, entity in mode._donations[0]}
        assert donated == set(lost.bundle.group) - already_elsewhere


class TestSpFuzzRedistribution:
    def _ctx(self, n_instances=3):
        config = CampaignConfig(n_instances=n_instances, seed=0)
        ctx = _CampaignContext(get_target("mosquitto").target_cls,
                               get_target("mosquitto").state_model(), config)
        mode = SpFuzzMode()
        ctx.instances = mode.create_instances(ctx)
        for instance in ctx.instances:
            instance.restart(dict(instance.bundle.assignment))
        return ctx, mode

    def test_lost_paths_move_to_survivors(self):
        ctx, mode = self._ctx()
        lost = ctx.instances[0]
        lost_paths = set(mode._partitions[0])
        assert lost_paths
        mode.on_instance_lost(ctx, lost)
        survivor_paths = set()
        for survivor in ctx.instances[1:]:
            survivor_paths.update(survivor.engine.allowed_paths)
        assert lost_paths <= survivor_paths

    def test_revival_restores_original_partitions(self):
        ctx, mode = self._ctx()
        lost = ctx.instances[0]
        before = {i.index: sorted(i.engine.allowed_paths)
                  for i in ctx.instances[1:]}
        mode.on_instance_lost(ctx, lost)
        mode.on_instance_revived(ctx, lost)
        after = {i.index: sorted(i.engine.allowed_paths)
                 for i in ctx.instances[1:]}
        assert after == before
