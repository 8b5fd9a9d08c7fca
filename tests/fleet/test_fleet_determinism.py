"""The fleet invariant: byte-identical to the local pool, under murder.

The contract the whole control plane exists to keep: a fleet run's
merged export equals ``workers=N`` local execution byte-for-byte, no
matter which agents die when. Hypothesis drives a simulated fleet — a
manual clock, the real :class:`FleetCoordinator` and real
:func:`run_spec` execution, agents as plain state machines — and kills
them at arbitrary points: before running, after running but before
reporting (the zombie path), or via voluntary release. Their cells come
back through heartbeat expiry or the release. The folded export must
match the local reference every time.

The ephemeral-fleet tests then pin the same property through the real
HTTP wire path and through fault-plane-injected agent deaths.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faultplane import FaultInjector, FaultPlan
from repro.fleet import FleetConfig, FleetCoordinator, LocalClient, collect_cells, wire
from repro.fleet.agent import FleetAgent
from repro.harness.campaign import CampaignConfig
from repro.harness.executor import (
    execute_specs,
    results,
    run_spec,
    specs_for_repeated,
)
from repro.harness.export import results_to_json

_CONFIG = CampaignConfig(n_instances=2, duration_hours=1.0, seed=6,
                         sample_interval=300.0)
_SPECS = specs_for_repeated("dnsmasq", "cmfuzz", 3, _CONFIG)

#: The local-pool reference export, computed once (it is deterministic).
_reference = {}


def _local_reference():
    if "export" not in _reference:
        _reference["export"] = results_to_json(
            results(execute_specs(_SPECS, workers=2)))
    return _reference["export"]


class _SimAgent:
    """One simulated agent: leases and executes for real, but *when* it
    reports — or whether it ever does — is the schedule's call."""

    def __init__(self, client, name):
        self.client = client
        self.name = name
        self.agent_id = client.register(name).agent_id
        self.grant = None
        self.report = None  # computed result awaiting delivery

    def ensure_registered(self):
        """Rejoin after a sweep (the heartbeat thread's job in the real
        agent)."""
        answer = self.client.heartbeat(self.agent_id)
        if answer.expired:
            self.agent_id = self.client.register(self.name).agent_id

    def lease(self):
        self.ensure_registered()
        grant = self.client.lease(self.agent_id)
        if not grant.idle and not grant.done:
            self.grant = grant
        return grant

    def execute(self):
        """Run the leased cell (for real) but hold the report back."""
        assert self.grant is not None
        outcome = run_spec(wire.unpack(self.grant.spec_blob))
        self.report = wire.ResultReport(
            agent_id=self.agent_id, session_id=self.grant.session_id,
            cell_index=self.grant.cell_index, epoch=self.grant.epoch,
            outcome_blob=wire.pack(outcome))
        self.grant = None

    def deliver(self):
        ack = self.client.report(self.report)
        self.report = None
        return ack

    def release(self):
        ack = self.client.release(self.agent_id, self.grant.session_id,
                                  self.grant.cell_index, self.grant.epoch)
        self.grant = None
        return ack

    def abandon(self):
        """Die silently: whatever is held just evaporates."""
        self.grant = None
        self.report = None


class TestScheduleChaos:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_any_kill_schedule_exports_identically(self, data):
        clock = [0.0]
        ttl = 10.0
        coordinator = FleetCoordinator(
            config=FleetConfig(lease_ttl=ttl),
            clock=lambda: clock[0])
        client = LocalClient(coordinator)
        accepted = coordinator.submit(wire.CampaignSubmit(
            spec_blobs=[wire.pack(s) for s in _SPECS], retries=1))
        agents = [_SimAgent(client, "sim-%d" % i) for i in range(3)]

        steps = 0
        while client.status(accepted.session_id).state == "running":
            steps += 1
            agent = data.draw(st.sampled_from(agents), label="agent")
            # Past the schedule budget, play it straight so every
            # example terminates; murder only happens early.
            fate = "report" if steps > 24 else data.draw(
                st.sampled_from(
                    ["report", "die_unrun", "zombie", "release", "tick"]),
                label="fate")
            clock[0] += data.draw(
                st.floats(min_value=0.1, max_value=2.0), label="dt")

            if fate == "tick":
                clock[0] += ttl / 2
                continue
            if agent.grant is None:
                grant = agent.lease()
                if grant.idle or grant.done:
                    clock[0] += 1.0
                    continue
            if fate == "die_unrun":
                agent.abandon()
                clock[0] += ttl + 1.0  # silence long enough to be swept
            elif fate == "release":
                agent.release()
            elif fate == "zombie":
                # Execute, get fenced out meanwhile, deliver late.
                agent.execute()
                clock[0] += ttl + 1.0
                coordinator.roster()  # any call sweeps; the lease expires
                ack = agent.deliver()
                assert not ack.accepted, "zombie reports must be discarded"
            else:
                agent.execute()
                agent.deliver()

        status = client.status(accepted.session_id)
        assert status.state == "done", status
        cells = collect_cells(client, accepted.session_id, _SPECS)
        assert [c.index for c in cells] == [0, 1, 2]
        assert results_to_json(results(cells)) == _local_reference()


class TestEphemeralFleetParity:
    def test_fleet_backend_matches_local_pool_byte_for_byte(self):
        fleet = execute_specs(_SPECS, backend="fleet", workers=2)
        assert results_to_json(results(fleet)) == _local_reference()

    def test_fleet_backend_with_injected_agent_deaths_is_identical(self):
        """Fault-plane-doomed agents release their leases (observed as
        crashes); re-leased cells still fold to the same bytes."""
        injector = FaultInjector(plan=FaultPlan(seed=11, level=0.7))
        fleet = execute_specs(_SPECS, backend="fleet", workers=2,
                              io_injector=injector)
        assert results_to_json(results(fleet)) == _local_reference()

    def test_fleet_backend_env_var_dispatch(self, monkeypatch):
        monkeypatch.setenv("CMFUZZ_EXECUTOR_BACKEND", "fleet")
        fleet = execute_specs(_SPECS, workers=2)
        assert results_to_json(results(fleet)) == _local_reference()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            execute_specs(_SPECS, backend="cluster")


class TestSharedCacheResume:
    def test_releases_then_cache_hit_serves_the_same_outcome(self, tmp_path):
        """A cell finished by one agent is served from the shared cache
        to any later agent — same bytes, ``from_cache`` marked."""
        coordinator = FleetCoordinator(config=FleetConfig(lease_ttl=30.0))
        client = LocalClient(coordinator)
        spec = _SPECS[0]
        accepted = coordinator.submit(wire.CampaignSubmit(
            spec_blobs=[wire.pack(spec)], retries=1))

        first = FleetAgent(client, name="warm", cache=True,
                           cache_dir=str(tmp_path))
        first._register()
        grant = first.client.lease(first.agent_id)
        first._execute(grant)
        warm_report = client.cell_result(accepted.session_id, 0)
        assert not warm_report.from_cache

        # Same spec resubmitted: a different agent over the same cache
        # directory answers from the store without executing.
        again = coordinator.submit(wire.CampaignSubmit(
            spec_blobs=[wire.pack(spec)], retries=1))
        second = FleetAgent(client, name="served", cache=True,
                            cache_dir=str(tmp_path))
        second._register()
        grant = second.client.lease(second.agent_id)
        second._execute(grant)
        served = client.cell_result(again.session_id, 0)
        assert served.from_cache
        assert served.outcome_blob == warm_report.outcome_blob
