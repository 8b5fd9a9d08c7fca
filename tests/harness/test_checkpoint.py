"""The checkpoint store: atomicity, corruption fallback, versioning.

The durability contract under test: every write is temp+rename, loads
verify sha256 digests and degrade newest → oldest on any corruption
(manifest damage falls back to a directory scan), and only a genuine
schema-version mismatch raises — damaged state never crashes a resume,
it just loses at most the damaged saves.
"""

import dataclasses
import json
import os
import pickle

import pytest

from repro.errors import CampaignInterrupted, CheckpointError, SchemaVersionError
from repro.harness.campaign import CampaignConfig, run_campaign
from repro.harness.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointPayload,
    CheckpointStore,
    campaign_key,
)
from repro.harness.executor import CampaignSpec, execute_specs, results
from repro.harness.export import results_to_json
from repro.parallel import create_mode
from repro.pits import pit_registry
from repro.targets import get_target


def _store(tmp_path, key="k" * 64, keep=3):
    return CheckpointStore(key, root=str(tmp_path / "checkpoints"), keep=keep)


class TestStoreRoundTrip:
    def test_save_then_load_latest(self, tmp_path):
        store = _store(tmp_path)
        store.save({"round": 1}, sim_time=600.0, iterations=20)
        store.save({"round": 2}, sim_time=1200.0, iterations=40)
        payload = store.load_latest()
        assert payload.state == {"round": 2}
        assert payload.sim_time == 1200.0
        assert payload.iterations == 40
        assert payload.sequence == 2

    def test_empty_store_loads_none(self, tmp_path):
        assert _store(tmp_path).load_latest() is None

    def test_keep_window_prunes_old_blobs(self, tmp_path):
        store = _store(tmp_path, keep=2)
        for round_number in range(5):
            store.save({"round": round_number}, sim_time=600.0 * round_number,
                       iterations=round_number)
        blobs = [name for name in os.listdir(store.directory)
                 if name.endswith(".pkl")]
        assert len(blobs) == 2
        assert store.load_latest().state == {"round": 4}

    def test_clear_removes_the_stream(self, tmp_path):
        store = _store(tmp_path)
        store.save({"round": 1}, sim_time=0.0, iterations=0)
        store.clear()
        assert not os.path.exists(store.directory)
        assert store.load_latest() is None

    def test_keys_are_isolated(self, tmp_path):
        one = _store(tmp_path, key="a" * 64)
        two = _store(tmp_path, key="b" * 64)
        one.save({"who": "one"}, sim_time=0.0, iterations=0)
        assert two.load_latest() is None

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(CheckpointError):
            _store(tmp_path, keep=0)


class TestCorruptionFallback:
    def test_truncated_newest_falls_back_to_previous(self, tmp_path):
        store = _store(tmp_path)
        store.save({"round": 1}, sim_time=600.0, iterations=20)
        newest = store.save({"round": 2}, sim_time=1200.0, iterations=40)
        with open(newest, "r+b") as handle:
            handle.truncate(10)
        payload = store.load_latest()
        assert payload.state == {"round": 1}

    def test_sha_mismatch_falls_back_to_previous(self, tmp_path):
        store = _store(tmp_path)
        store.save({"round": 1}, sim_time=600.0, iterations=20)
        newest = store.save({"round": 2}, sim_time=1200.0, iterations=40)
        # Valid pickle, wrong bytes: only the sha256 check can catch it.
        with open(newest, "wb") as handle:
            pickle.dump(CheckpointPayload(
                schema_version=CHECKPOINT_SCHEMA_VERSION, key=store.key,
                sequence=99, sim_time=0.0, iterations=0, state={"evil": True},
            ), handle)
        assert store.load_latest().state == {"round": 1}

    def test_corrupt_manifest_degrades_to_directory_scan(self, tmp_path):
        store = _store(tmp_path)
        store.save({"round": 1}, sim_time=600.0, iterations=20)
        store.save({"round": 2}, sim_time=1200.0, iterations=40)
        with open(os.path.join(store.directory, "MANIFEST.json"), "w") as handle:
            handle.write("{ this is not json")
        assert store.load_latest().state == {"round": 2}

    def test_everything_damaged_loads_none_never_raises(self, tmp_path):
        store = _store(tmp_path)
        store.save({"round": 1}, sim_time=600.0, iterations=20)
        for name in os.listdir(store.directory):
            with open(os.path.join(store.directory, name), "w") as handle:
                handle.write("garbage")
        assert store.load_latest() is None


class TestSchemaVersioning:
    @pytest.mark.parametrize("old_version", [0, CHECKPOINT_SCHEMA_VERSION - 1],
                             ids=["zero", "previous"])
    def test_old_manifest_version_is_rejected(self, tmp_path, old_version):
        store = _store(tmp_path)
        store.save({"round": 1}, sim_time=0.0, iterations=0)
        path = os.path.join(store.directory, "MANIFEST.json")
        with open(path) as handle:
            manifest = json.load(handle)
        manifest["schema_version"] = old_version
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(SchemaVersionError) as excinfo:
            store.load_latest()
        assert excinfo.value.found == old_version
        assert excinfo.value.supported == CHECKPOINT_SCHEMA_VERSION

    def test_old_blob_version_is_rejected_on_scan(self, tmp_path):
        store = _store(tmp_path)
        os.makedirs(store.directory)
        with open(os.path.join(store.directory, "ckpt-000001.pkl"), "wb") as handle:
            pickle.dump(CheckpointPayload(
                schema_version=0, key=store.key, sequence=1,
                sim_time=0.0, iterations=0, state=None,
            ), handle)
        with pytest.raises(SchemaVersionError):
            store.load_latest()


class TestCampaignKey:
    def test_checkpoint_knobs_do_not_change_the_key(self):
        base = CampaignConfig(seed=7)
        spelled = dataclasses.replace(base, checkpoint_every=600.0,
                                      resume=True, checkpoint_dir="/x",
                                      checkpoint_keep=9)
        assert campaign_key("dnsmasq", "cmfuzz", base) == \
            campaign_key("dnsmasq", "cmfuzz", spelled)

    def test_seed_mode_target_all_split_the_key(self):
        base = CampaignConfig(seed=7)
        keys = {
            campaign_key("dnsmasq", "cmfuzz", base),
            campaign_key("dnsmasq", "peach", base),
            campaign_key("mosquitto", "cmfuzz", base),
            campaign_key("dnsmasq", "cmfuzz", dataclasses.replace(base, seed=8)),
        }
        assert len(keys) == 4


class TestCampaignIntegration:
    """Checkpoint lifecycle observed through run_campaign itself."""

    def _run(self, config, abort_at=None):
        hook = None
        if abort_at is not None:
            hook = lambda iterations, now: iterations >= abort_at  # noqa: E731
        return run_campaign(
            get_target("dnsmasq").target_cls, pit_registry()["dnsmasq"](),
            create_mode("cmfuzz"), config, abort_hook=hook,
        )

    def test_completed_campaign_clears_its_checkpoints(self, tmp_path):
        root = str(tmp_path / "ck")
        config = CampaignConfig(n_instances=2, duration_hours=1.0, seed=3,
                                checkpoint_every=600.0, checkpoint_dir=root)
        self._run(config)
        key = campaign_key("dnsmasq", "cmfuzz", config)
        assert not os.path.exists(os.path.join(root, key))

    def test_interrupt_saves_and_reports_the_checkpoint(self, tmp_path):
        root = str(tmp_path / "ck")
        config = CampaignConfig(n_instances=2, duration_hours=1.0, seed=3,
                                checkpoint_every=600.0, checkpoint_dir=root)
        with pytest.raises(CampaignInterrupted) as excinfo:
            self._run(config, abort_at=10)
        assert excinfo.value.iterations == 10
        assert excinfo.value.checkpoint_path
        assert os.path.exists(excinfo.value.checkpoint_path)

    def test_resume_after_corrupting_latest_checkpoint(self, tmp_path):
        """A damaged newest save falls back to the previous one and the
        finished campaign is still byte-identical to the reference."""
        root = str(tmp_path / "ck")
        config = CampaignConfig(n_instances=2, duration_hours=1.0, seed=3,
                                checkpoint_every=300.0, checkpoint_dir=root)
        reference = results_to_json([self._run(config)])
        with pytest.raises(CampaignInterrupted) as excinfo:
            self._run(config, abort_at=60)
        with open(excinfo.value.checkpoint_path, "r+b") as handle:
            handle.truncate(7)
        resumed = self._run(dataclasses.replace(config, resume=True))
        assert results_to_json([resumed]) == reference

    def test_executor_resumes_a_partial_cell(self, tmp_path):
        """run_spec picks up the checkpoint a dead worker left behind."""
        config = CampaignConfig(n_instances=2, duration_hours=1.0, seed=3,
                                checkpoint_every=300.0)
        spec = CampaignSpec(target="dnsmasq", mode="cmfuzz", config=config)
        ref_spec = CampaignSpec(
            target="dnsmasq", mode="cmfuzz",
            config=dataclasses.replace(config, checkpoint_every=None),
        )
        reference = results_to_json(results(execute_specs([ref_spec], workers=1)))
        # Simulate a worker dying mid-cell: the interrupted run leaves
        # its checkpoint stream behind under the spec's campaign key.
        with pytest.raises(CampaignInterrupted):
            self._run(config, abort_at=60)
        resumed = results(execute_specs([spec], workers=1))
        assert results_to_json(resumed) == reference
