"""The tentpole invariant: kill at any iteration, resume, same bytes.

Hypothesis drives random (mode, seed, kill-iteration) triples through
the interrupt-at-k → resume cycle and demands the finished export be
byte-identical to the uninterrupted reference — the same determinism
bar the caching and pooling layers hold. A second property pins the
weaker but foundational fact that merely *enabling* checkpointing
changes nothing.
"""

import dataclasses
import json
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import CampaignInterrupted, SchemaVersionError
from repro.harness import campaign as campaign_module
from repro.harness.campaign import CampaignConfig, run_campaign
from repro.harness.export import (
    EXPORT_SCHEMA_VERSION,
    load_export_json,
    result_to_dict,
    results_to_json,
    validate_export_dict,
)
from repro.parallel import create_mode, mode_names
from repro.targets import get_target

_SETTINGS = dict(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _run(mode_name, config, abort_at=None):
    hook = None
    if abort_at is not None:
        hook = lambda iterations, now: iterations >= abort_at  # noqa: E731
    return run_campaign(
        get_target("dnsmasq").target_cls, get_target("dnsmasq").state_model(),
        create_mode(mode_name), config, abort_hook=hook,
    )


def _config(checkpoint_dir, seed, every=300.0):
    return CampaignConfig(n_instances=2, duration_hours=1.0, seed=seed,
                          sample_interval=300.0,
                          checkpoint_every=every,
                          checkpoint_dir=checkpoint_dir)


class TestResumeEqualsUninterrupted:
    @settings(**_SETTINGS)
    @given(
        mode_name=st.sampled_from(sorted(set(mode_names()) - {"peach"})),
        seed=st.integers(min_value=0, max_value=10_000),
        abort_at=st.integers(min_value=1, max_value=250),
    )
    def test_kill_at_k_then_resume_is_byte_identical(self, mode_name, seed,
                                                     abort_at):
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            config = _config(checkpoint_dir, seed)
            reference = results_to_json([_run(mode_name, config)])
            try:
                _run(mode_name, config, abort_at=abort_at)
            except CampaignInterrupted:
                pass  # the expected path; a tiny k may finish first
            resumed = _run(mode_name,
                           dataclasses.replace(config, resume=True))
            assert results_to_json([resumed]) == reference

    @settings(**_SETTINGS)
    @given(
        mode_name=st.sampled_from(mode_names()),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_checkpointing_enabled_changes_nothing(self, mode_name, seed):
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            plain = CampaignConfig(n_instances=2, duration_hours=1.0,
                                   seed=seed, sample_interval=300.0)
            checkpointed = _run(mode_name, _config(checkpoint_dir, seed))
            assert results_to_json([checkpointed]) == \
                results_to_json([_run(mode_name, plain)])

    def test_double_interrupt_then_resume(self, tmp_path):
        """Interrupt, resume, interrupt again, resume again: still equal."""
        config = _config(str(tmp_path / "ck"), seed=11)
        reference = results_to_json([_run("cmfuzz", config)])
        for abort_at in (40, 130):
            with pytest.raises(CampaignInterrupted):
                _run("cmfuzz",
                     dataclasses.replace(config, resume=True),
                     abort_at=abort_at)
        resumed = _run("cmfuzz", dataclasses.replace(config, resume=True))
        assert results_to_json([resumed]) == reference

    def test_resume_restores_the_quantification_report(self, tmp_path,
                                                       monkeypatch):
        """The model-build report survives a checkpoint round trip whole:
        the resumed campaign's mode ends with the uninterrupted run's
        report, and the exports are byte-identical."""
        config = _config(str(tmp_path / "ck"), seed=5)
        reference_mode = create_mode("cmfuzz")
        reference = results_to_json([run_campaign(
            get_target("dnsmasq").target_cls, get_target("dnsmasq").state_model(),
            reference_mode, config)])

        with pytest.raises(CampaignInterrupted):
            run_campaign(
                get_target("dnsmasq").target_cls,
                get_target("dnsmasq").state_model(), create_mode("cmfuzz"), config,
                # Past the first periodic checkpoint at 300 sim-seconds.
                abort_hook=lambda iterations, now: now > 450.0)

        driven = []
        drive = campaign_module._drive

        def capture(state, *args, **kwargs):
            driven.append(state)
            return drive(state, *args, **kwargs)

        monkeypatch.setattr(campaign_module, "_drive", capture)
        resumed = _run("cmfuzz", dataclasses.replace(config, resume=True))
        assert results_to_json([resumed]) == reference
        assert driven[0].iterations > 0, "the resume must restore state"
        restored = driven[0].mode.quantification_report
        assert restored is not reference_mode.quantification_report
        assert restored == reference_mode.quantification_report
        assert restored.launches > 0

    def test_resume_without_checkpoint_starts_fresh(self, tmp_path):
        config = dataclasses.replace(
            _config(str(tmp_path / "ck"), seed=4), resume=True)
        result = _run("cmfuzz", config)
        assert results_to_json([result]) == results_to_json(
            [_run("cmfuzz", dataclasses.replace(config, resume=False))])


class TestExportSchemaVersion:
    def _result(self):
        return _run("peach", CampaignConfig(n_instances=2,
                                            duration_hours=1.0, seed=2,
                                            checkpoint_every=None))

    def test_export_carries_the_version(self):
        assert result_to_dict(self._result())["schema_version"] == \
            EXPORT_SCHEMA_VERSION

    def test_loader_round_trips_current_exports(self):
        text = results_to_json([self._result()])
        entries = load_export_json(text)
        assert entries[0]["schema_version"] == EXPORT_SCHEMA_VERSION

    def test_loader_rejects_missing_version(self):
        legacy = [{"mode": "peach", "target": "dnsmasq"}]
        with pytest.raises(SchemaVersionError) as excinfo:
            load_export_json(json.dumps(legacy))
        assert excinfo.value.found is None

    def test_loader_rejects_other_versions(self):
        stale = [{"schema_version": EXPORT_SCHEMA_VERSION + 1}]
        with pytest.raises(SchemaVersionError) as excinfo:
            load_export_json(json.dumps(stale))
        assert excinfo.value.found == EXPORT_SCHEMA_VERSION + 1

    def test_validate_rejects_non_dicts(self):
        with pytest.raises(SchemaVersionError):
            validate_export_dict(["not", "a", "dict"])
