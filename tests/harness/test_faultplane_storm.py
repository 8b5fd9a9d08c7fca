"""The fault-plane storm: any fault schedule, byte-identical exports.

The tentpole invariant of the infrastructure fault plane, enforced by
hypothesis: for *any* seeded fault schedule at *any* level, a campaign
running with every I/O boundary engaged (probe cache, checkpoints,
telemetry trace sink) completes and exports byte-for-byte the same JSON
as the fault-free run — faults may cost (virtual) time, never results.
The property also holds through kill-and-resume under faults, through
the workers=2 executor, and the injected-fault accounting must replay
exactly from the plan.
"""

import dataclasses
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import CampaignInterrupted
from repro.faultplane import (
    FAULT_CORRUPT,
    FAULT_TRANSIENT,
    FaultInjector,
    FaultPlan,
    _unit,
)
from repro.harness.campaign import CampaignConfig, run_campaign
from repro.harness.checkpoint import CheckpointStore
from repro.harness.executor import execute_specs, results, specs_for_repeated
from repro.harness.export import results_to_json
from repro.parallel import create_mode, mode_names
from repro.targets import get_target
from repro.telemetry import TelemetryConfig

_SETTINGS = dict(
    max_examples=6, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: Every registered mode (plateau and statemap included) must survive
#: the storm byte-identically, so the list derives from the registry.
_ALL_MODES = mode_names()

_LEVELS = (0.1, 0.25, 0.45, 0.7)

#: Fault-free reference exports, keyed by (mode, seed): the baseline is
#: deterministic and dir-independent, so examples can share it.
_baselines = {}


def _config(tmpdir, seed, level=0.0, io_seed=0, strict=False):
    """A campaign with every infrastructure boundary engaged."""
    return CampaignConfig(
        n_instances=2, duration_hours=1.0, seed=seed, sample_interval=300.0,
        probe_cache=True, probe_cache_dir=os.path.join(tmpdir, "probes"),
        checkpoint_every=600.0, checkpoint_dir=os.path.join(tmpdir, "ckpt"),
        telemetry=TelemetryConfig(
            enabled=True, trace_path=os.path.join(tmpdir, "trace.jsonl")),
        io_chaos_level=level, io_chaos_seed=io_seed, strict_io=strict,
    )


def _run(mode_name, config, abort_at=None):
    hook = None
    if abort_at is not None:
        hook = lambda iterations, now: iterations >= abort_at  # noqa: E731
    return run_campaign(
        get_target("dnsmasq").target_cls, get_target("dnsmasq").state_model(),
        create_mode(mode_name), config, abort_hook=hook,
    )


def _baseline(mode_name, seed):
    key = (mode_name, seed)
    if key not in _baselines:
        with tempfile.TemporaryDirectory() as tmpdir:
            _baselines[key] = results_to_json(
                [_run(mode_name, _config(tmpdir, seed))])
    return _baselines[key]


def _assert_accounting_replays(io_faults):
    """The injected counts must be recomputable from the plan alone."""
    assert io_faults is not None
    plan = FaultPlan(seed=io_faults["seed"], level=io_faults["level"])
    for site, ops in io_faults["ops"].items():
        # The whether-to-fault draw is kind-independent, so the total
        # injected at a site replays without knowing its kinds.
        expected = sum(
            1 for op in range(ops)
            if plan.decide(site, op, ("transient",)) is not None)
        recorded = sum(io_faults["injected"].get(site, {}).values())
        assert recorded == expected, site


class TestStorm:
    @settings(**_SETTINGS)
    @given(
        mode_name=st.sampled_from(_ALL_MODES),
        seed=st.integers(min_value=0, max_value=10_000),
        io_seed=st.integers(min_value=0, max_value=10_000),
        level=st.sampled_from(_LEVELS),
    )
    def test_any_fault_schedule_exports_identically(self, mode_name, seed,
                                                    io_seed, level):
        with tempfile.TemporaryDirectory() as tmpdir:
            config = _config(tmpdir, seed, level=level, io_seed=io_seed)
            result = _run(mode_name, config)
            assert results_to_json([result]) == _baseline(mode_name, seed)
            _assert_accounting_replays(result.io_faults)

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        mode_name=st.sampled_from(_ALL_MODES),
        seed=st.integers(min_value=0, max_value=10_000),
        io_seed=st.integers(min_value=0, max_value=10_000),
        abort_at=st.integers(min_value=1, max_value=250),
    )
    def test_kill_and_resume_under_faults(self, mode_name, seed, io_seed,
                                          abort_at):
        with tempfile.TemporaryDirectory() as tmpdir:
            config = _config(tmpdir, seed, level=0.3, io_seed=io_seed)
            try:
                done = _run(mode_name, config, abort_at=abort_at)
            except CampaignInterrupted:
                resumed = _run(mode_name,
                               dataclasses.replace(config, resume=True))
                assert results_to_json([resumed]) == _baseline(mode_name,
                                                               seed)
            else:
                # abort_at beyond the campaign's iteration count: the
                # run completed (clearing its checkpoints), so the storm
                # invariant is asserted on the completed run itself. A
                # *second* campaign would re-probe over the now-warm
                # cache and legitimately report different cache-hit
                # counters.
                assert results_to_json([done]) == _baseline(mode_name, seed)

    def test_trace_events_match_the_plan(self):
        """Every faultplane.injected event in the trace is one the plan
        actually schedules for that (site, op)."""
        with tempfile.TemporaryDirectory() as tmpdir:
            config = _config(tmpdir, seed=5, level=0.45, io_seed=9)
            result = _run("cmfuzz", config)
            events = []
            with open(os.path.join(tmpdir, "trace.jsonl")) as handle:
                for line in handle:
                    record = json.loads(line)
                    if record.get("type") == "event" and \
                            record.get("name") == "faultplane.injected":
                        events.append(record["attrs"])
            assert events, "a level-0.45 storm must inject something"
            for attrs in events:
                draw = _unit(9, attrs["site"], attrs["op"], "inject")
                assert draw < 0.45, attrs
            # The trace can only under-report (sink faults drop records),
            # never over-report.
            recorded = result.io_faults["injected"]
            by_site = {}
            for attrs in events:
                by_site[attrs["site"]] = by_site.get(attrs["site"], 0) + 1
            for site, count in by_site.items():
                assert count <= sum(recorded.get(site, {}).values()), site

    def test_disabled_io_chaos_is_bit_identical_to_plain(self):
        """Spelling out level 0 / seed / strict changes nothing at all."""
        with tempfile.TemporaryDirectory() as tmpdir:
            explicit = _config(tmpdir, seed=3, level=0.0, io_seed=77,
                               strict=True)
            plain = _run("cmfuzz", _config(tmpdir + "-p", seed=3))
            spelled = _run("cmfuzz", explicit)
            assert results_to_json([spelled]) == results_to_json([plain])
            assert spelled.io_faults is None

    def test_strict_io_storm_completes_when_retries_suffice(self):
        """At a level where no retry chain exhausts, --strict-io is
        indistinguishable from graceful mode."""
        with tempfile.TemporaryDirectory() as tmpdir:
            config = _config(tmpdir, seed=2, level=0.1, io_seed=4,
                             strict=True)
            result = _run("peach", config)
            assert results_to_json([result]) == _baseline("peach", 2)


#: The fault-plane sites of the files a checkpoint stream writes once.
_WRITE_ONCE_SITES = ("checkpoint.base.", "checkpoint.seeds.")


@dataclasses.dataclass(frozen=True)
class _WriteOncePlan(FaultPlan):
    """A storm of one fault kind aimed only at the base and seeds files
    (their writes, their reads, or both, as the kind allows)."""

    kind: str = FAULT_TRANSIENT

    def decide(self, site, op_index, kinds):
        if not site.startswith(_WRITE_ONCE_SITES) or self.kind not in kinds:
            return None
        if _unit(self.seed, site, op_index, "inject") >= self.level:
            return None
        return self.kind


class TestStormOnWriteOnceFiles:
    """Transient and corrupt faults aimed at the base and seeds files
    through kill-and-resume: same bytes as the fault-free run."""

    @pytest.mark.parametrize("kind", (FAULT_TRANSIENT, FAULT_CORRUPT))
    @pytest.mark.parametrize("mode_name", _ALL_MODES)
    def test_kill_and_resume_under_aimed_faults(self, mode_name, kind,
                                                monkeypatch):
        seed = 4
        baseline = _baseline(mode_name, seed)
        plan = _WriteOncePlan(seed=21, level=0.5, kind=kind)
        monkeypatch.setattr(
            FaultInjector, "from_campaign_config",
            classmethod(lambda cls, config: cls(plan=plan)))
        restored = []
        load_latest = CheckpointStore.load_latest
        monkeypatch.setattr(
            CheckpointStore, "load_latest",
            lambda store: restored.append(load_latest(store)) or restored[-1])
        with tempfile.TemporaryDirectory() as tmpdir:
            config = _config(tmpdir, seed)
            with pytest.raises(CampaignInterrupted):
                run_campaign(
                    get_target("dnsmasq").target_cls,
                    get_target("dnsmasq").state_model(), create_mode(mode_name),
                    config, abort_hook=lambda iterations, now: now >= 2400)
            resumed = _run(mode_name, dataclasses.replace(config, resume=True))
        assert results_to_json([resumed]) == baseline
        assert restored[0] is not None, "the resume started fresh"
        injected = resumed.io_faults["injected"]
        assert any(site.startswith(_WRITE_ONCE_SITES) for site in injected)
        assert all(site.startswith(_WRITE_ONCE_SITES) for site in injected)


#: The executor backend the cross-worker storm legs run against.
#: ``CMFUZZ_RD_BACKEND=fleet`` re-runs the same byte-diff gates through
#: the fleet control plane (CI drives both), so injected worker deaths
#: double as injected *agent* deaths there.
_RD_BACKEND = os.environ.get("CMFUZZ_RD_BACKEND", "local")


class TestStormAcrossWorkers:
    @pytest.mark.parametrize("mode_name", ("cmfuzz", "peach"))
    def test_workers2_under_faults_matches_fault_free(self, mode_name,
                                                      tmp_path):
        base = CampaignConfig(n_instances=2, duration_hours=1.0, seed=6,
                              sample_interval=300.0)
        stormy = dataclasses.replace(base, io_chaos_level=0.3,
                                     io_chaos_seed=11)
        reference = results(execute_specs(
            specs_for_repeated("dnsmasq", mode_name, 2, base), workers=2,
            backend=_RD_BACKEND))
        # Worker-death injection in the parent pool (or agent-death in
        # the fleet), plus each worker's own campaign-level fault plan.
        from repro.faultplane import FaultInjector, FaultPlan

        injector = FaultInjector(plan=FaultPlan(seed=11, level=0.3))
        stormed = results(execute_specs(
            specs_for_repeated("dnsmasq", mode_name, 2, stormy), workers=2,
            io_injector=injector, backend=_RD_BACKEND))
        assert results_to_json(stormed) == results_to_json(reference)

    def test_probe_pool_worker_death_changes_nothing(self, tmp_path):
        """probe_workers=2 with injected worker deaths re-leases cells
        and still probes to the same model."""
        plain = CampaignConfig(n_instances=2, duration_hours=1.0, seed=8,
                               sample_interval=300.0, probe_workers=2)
        stormy = dataclasses.replace(plain, io_chaos_level=0.5,
                                     io_chaos_seed=13)
        reference = results_to_json([_run("cmfuzz", plain)])
        stormed = _run("cmfuzz", stormy)
        assert results_to_json([stormed]) == reference
