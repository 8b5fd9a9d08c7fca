"""The checkpoint store: atomicity, corruption fallback, versioning.

The durability contract under test: every write is temp + no-clobber
link, loads scan the loop blobs newest → oldest, verify sha256 digests
(each loop blob's own trailer, and the digests it pins for its base and
seeds files) and degrade on any corruption, and only a genuine
schema-version mismatch raises — damaged state never crashes a resume,
it just loses at most the damaged saves.
"""

import dataclasses
import hashlib
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
        """The stream has no index to damage: a stray, unparsable index
        file left by an older layout changes nothing, and the scan still
        finds the newest save."""
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


def _write_old_layout(store, version):
    """Plant a stream as schema 5 wrote it: an index file and a loop
    blob of header + state with no sha256 trailer."""
    os.makedirs(store.directory, exist_ok=True)
    blob = pickle.dumps(CheckpointPayload(
        schema_version=version, key=store.key, sequence=1, sim_time=0.0,
        iterations=0, state=None)) + pickle.dumps({"round": 1})
    with open(os.path.join(store.directory, "ckpt-000001.pkl"), "wb") as handle:
        handle.write(blob)
    with open(os.path.join(store.directory, "MANIFEST.json"), "w") as handle:
        json.dump({"schema_version": version, "campaign_key": store.key,
                   "checkpoints": [{
                       "file": "ckpt-000001.pkl", "sequence": 1,
                       "sha256": hashlib.sha256(blob).hexdigest()}]},
                  handle)


class TestSchemaVersioning:
    @pytest.mark.parametrize("old_version", [0, CHECKPOINT_SCHEMA_VERSION - 1],
                             ids=["zero", "previous"])
    def test_old_manifest_version_is_rejected(self, tmp_path, old_version):
        store = _store(tmp_path)
        _write_old_layout(store, old_version)
        with pytest.raises(SchemaVersionError) as excinfo:
            store.load_latest()
        assert excinfo.value.found == old_version
        assert excinfo.value.supported == CHECKPOINT_SCHEMA_VERSION

    def test_resume_over_an_old_layout_raises(self, tmp_path):
        """``--resume`` over a schema-5 stream refuses instead of
        silently starting the campaign over."""
        root = str(tmp_path / "ck")
        config = CampaignConfig(n_instances=2, duration_hours=1.0, seed=3,
                                checkpoint_every=600.0, checkpoint_dir=root,
                                resume=True)
        _write_old_layout(
            CheckpointStore(campaign_key("dnsmasq", "cmfuzz", config),
                            root=root),
            CHECKPOINT_SCHEMA_VERSION - 1)
        with pytest.raises(SchemaVersionError):
            run_campaign(get_target("dnsmasq").target_cls,
                         get_target("dnsmasq").state_model(), create_mode("cmfuzz"),
                         config)

    def test_resume_over_a_previous_schema_blob_raises(self, tmp_path):
        """A loop blob in the current layout (self-verifying sha256
        trailer) but stamped with the previous schema version refuses
        to resume: its pickled collectors have the old layout."""
        root = str(tmp_path / "ck")
        config = CampaignConfig(n_instances=2, duration_hours=1.0, seed=3,
                                checkpoint_every=600.0, checkpoint_dir=root,
                                resume=True)
        store = CheckpointStore(campaign_key("dnsmasq", "cmfuzz", config),
                                root=root)
        os.makedirs(store.directory)
        body = pickle.dumps(CheckpointPayload(
            schema_version=CHECKPOINT_SCHEMA_VERSION - 1, key=store.key,
            sequence=1, sim_time=0.0, iterations=0,
            state=None)) + pickle.dumps({"round": 1})
        with open(os.path.join(store.directory, "ckpt-000001.pkl"),
                  "wb") as handle:
            handle.write(body + hashlib.sha256(body).digest())
        with pytest.raises(SchemaVersionError) as excinfo:
            run_campaign(get_target("dnsmasq").target_cls,
                         get_target("dnsmasq").state_model(), create_mode("cmfuzz"),
                         config)
        assert excinfo.value.found == CHECKPOINT_SCHEMA_VERSION - 1

    def test_resume_over_a_stream_saved_by_the_previous_schema_raises(
            self, tmp_path, monkeypatch):
        """A campaign interrupted under the previous schema is found
        again on ``--resume`` (the campaign key does not hash the schema
        version) and refused, instead of silently starting over."""
        root = str(tmp_path / "ck")
        config = CampaignConfig(n_instances=2, duration_hours=1.0, seed=3,
                                checkpoint_every=300.0, checkpoint_dir=root)
        run = lambda config, hook=None: run_campaign(  # noqa: E731
            get_target("dnsmasq").target_cls, get_target("dnsmasq").state_model(),
            create_mode("cmfuzz"), config, abort_hook=hook)
        with monkeypatch.context() as patch:
            patch.setattr("repro.harness.checkpoint.CHECKPOINT_SCHEMA_VERSION",
                          CHECKPOINT_SCHEMA_VERSION - 1)
            with pytest.raises(CampaignInterrupted):
                run(config, lambda iterations, now: iterations >= 30)
        with pytest.raises(SchemaVersionError) as excinfo:
            run(dataclasses.replace(config, resume=True))
        assert excinfo.value.found == CHECKPOINT_SCHEMA_VERSION - 1
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
            get_target("dnsmasq").target_cls, get_target("dnsmasq").state_model(),
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


class _Seed:
    """A weak-referenceable stand-in for a corpus seed."""

    def __init__(self, value):
        self.value = value


class _Base:
    """A stand-in for a set-up object (e.g. a data model)."""

    def __init__(self, name):
        self.name = name


def _names(store):
    return sorted(name for name in os.listdir(store.directory)
                  if name.endswith(".pkl"))


def _seeds_in(store, name):
    """The seeds a seeds file holds (they carry no base references)."""
    with open(os.path.join(store.directory, name), "rb") as handle:
        return [seed.value for seed in pickle.load(handle)]


def _header(store, name):
    """A loop blob's header (the first pickle in the file)."""
    with open(os.path.join(store.directory, name), "rb") as handle:
        return pickle.load(handle)


def _damage(store, name):
    with open(os.path.join(store.directory, name), "r+b") as handle:
        handle.truncate(5)


class TestIncrementalLayout:
    """Base and seeds are written once per stream, referenced after."""

    def test_base_is_written_once_and_referenced(self, tmp_path):
        store = _store(tmp_path)
        model = _Base("model")
        for round_number in range(3):
            store.save({"model": model, "round": round_number},
                       sim_time=600.0 * round_number,
                       iterations=round_number, base=[model])
        assert _names(store) == ["base-000001.pkl", "ckpt-000001.pkl",
                                 "ckpt-000002.pkl", "ckpt-000003.pkl"]
        payload = store.load_latest()
        assert payload.state["round"] == 2
        assert payload.state["model"].name == "model"
        assert payload.requires == {
            "base-000001.pkl": payload.requires["base-000001.pkl"]}

    def test_each_seed_is_written_by_the_first_save_that_sees_it(
            self, tmp_path):
        store = _store(tmp_path)
        a, b, c = _Seed("a"), _Seed("b"), _Seed("c")
        store.save({"corpus": [a, b]}, sim_time=0.0, iterations=0,
                   seeds=[a, b])
        store.save({"corpus": [a, b, c]}, sim_time=600.0, iterations=1,
                   seeds=[a, b, c])
        store.save({"corpus": [a, b, c]}, sim_time=1200.0, iterations=2,
                   seeds=[a, b, c])
        assert _seeds_in(store, "seeds-000001.pkl") == ["a", "b"]
        assert _seeds_in(store, "seeds-000002.pkl") == ["c"]
        assert not os.path.exists(
            os.path.join(store.directory, "seeds-000003.pkl"))
        restored = store.load_latest().state["corpus"]
        assert [seed.value for seed in restored] == ["a", "b", "c"]

    def test_shared_references_keep_their_identity(self, tmp_path):
        store = _store(tmp_path)
        model, seed = _Base("model"), _Seed("s")
        seed.model = model
        store.save({"corpus": [seed], "by_model": {"m": [seed]},
                    "model": model},
                   sim_time=0.0, iterations=0, base=[model], seeds=[seed])
        state = store.load_latest().state
        assert state["by_model"]["m"][0] is state["corpus"][0]
        assert state["corpus"][0].model is state["model"]

    def test_resumed_store_writes_neither_base_nor_old_seeds(self, tmp_path):
        first = _store(tmp_path)
        model, a = _Base("model"), _Seed("a")
        first.save({"model": model, "corpus": [a]}, sim_time=0.0,
                   iterations=0, base=[model], seeds=[a])
        resumed = _store(tmp_path)
        state = resumed.load_latest().state
        fresh = _Seed("b")
        state["corpus"].append(fresh)
        resumed.save(state, sim_time=600.0, iterations=1,
                     base=[state["model"]], seeds=state["corpus"])
        assert _names(resumed) == ["base-000001.pkl", "ckpt-000001.pkl",
                                   "ckpt-000002.pkl", "seeds-000001.pkl",
                                   "seeds-000002.pkl"]
        assert _seeds_in(resumed, "seeds-000002.pkl") == ["b"]
        again = resumed.load_latest().state
        assert [seed.value for seed in again["corpus"]] == ["a", "b"]

    def test_store_holds_no_strong_reference_to_a_seed(self, tmp_path):
        import gc
        import weakref

        store = _store(tmp_path)
        seed = _Seed("gone")
        store.save({"corpus": [seed]}, sim_time=0.0, iterations=0,
                   seeds=[seed])
        watcher = weakref.ref(seed)
        del seed
        gc.collect()
        assert watcher() is None

    def test_a_new_seed_on_a_recycled_id_is_written(self, tmp_path):
        import gc

        store = _store(tmp_path)
        old = _Seed("old")
        store.save({"c": [old]}, sim_time=0.0, iterations=0, seeds=[old])
        freed = id(old)
        del old
        gc.collect()
        held = []
        for _ in range(10_000):
            new = _Seed("new")
            if id(new) == freed:
                break
            held.append(new)
        else:
            pytest.skip("the allocator never reused the freed address")
        store.save({"c": [new]}, sim_time=1.0, iterations=1, seeds=[new])
        assert store.load_latest().state["c"][0].value == "new"

    def test_keep_window_removes_exactly_the_unneeded_files(self, tmp_path):
        store = _store(tmp_path, keep=2)
        model = _Base("model")
        corpus = []
        for round_number in range(4):
            # FIFO eviction: each save sees one new seed, the old one left.
            corpus = [_Seed(round_number)]
            store.save({"corpus": corpus}, sim_time=600.0 * round_number,
                       iterations=round_number, base=[model], seeds=corpus)
        assert _names(store) == ["base-000001.pkl", "ckpt-000003.pkl",
                                 "ckpt-000004.pkl", "seeds-000003.pkl",
                                 "seeds-000004.pkl"]
        needed = set()
        for name in _names(store):
            if name.startswith("ckpt-"):
                needed.add(name)
                needed.update(_header(store, name).requires)
        assert needed == set(os.listdir(store.directory))

    def test_a_seed_still_live_keeps_its_file(self, tmp_path):
        store = _store(tmp_path, keep=1)
        kept = _Seed("kept")
        store.save({"c": [kept]}, sim_time=0.0, iterations=0, seeds=[kept])
        for round_number in range(3):
            corpus = [kept, _Seed(round_number)]
            store.save({"c": corpus}, sim_time=1.0 + round_number,
                       iterations=1 + round_number, seeds=corpus)
        assert "seeds-000001.pkl" in _names(store)
        values = [seed.value for seed in store.load_latest().state["c"]]
        assert values == ["kept", 2]


class TestIncrementalCorruption:
    """A damaged base or seeds file loses its saves, never the resume."""

    def _two_bases(self, tmp_path):
        """Save 1 on one base, save 2 (a store that resumed the stream)
        on another."""
        one = _store(tmp_path)
        old = _Base("old")
        one.save({"round": 1, "base": old}, sim_time=0.0, iterations=0,
                 base=[old])
        two = _store(tmp_path)
        two.load_latest()
        new = _Base("new")
        two.save({"round": 2, "base": new}, sim_time=600.0, iterations=1,
                 base=[new])
        assert _names(two) == ["base-000001.pkl", "base-000002.pkl",
                               "ckpt-000001.pkl", "ckpt-000002.pkl"]
        return two

    def test_damaged_base_falls_back_to_an_older_entry(self, tmp_path):
        store = self._two_bases(tmp_path)
        _damage(store, "base-000002.pkl")
        payload = store.load_latest()
        assert payload.state["round"] == 1
        assert payload.state["base"].name == "old"

    def test_missing_base_falls_back_to_an_older_entry(self, tmp_path):
        store = self._two_bases(tmp_path)
        os.remove(os.path.join(store.directory, "base-000002.pkl"))
        assert store.load_latest().state["round"] == 1

    def test_damaged_shared_base_means_a_fresh_start(self, tmp_path):
        store = _store(tmp_path)
        model = _Base("model")
        for round_number in range(2):
            store.save({"round": round_number}, sim_time=0.0,
                       iterations=round_number, base=[model])
        _damage(store, "base-000001.pkl")
        assert store.load_latest() is None

    def _two_seed_files(self, tmp_path):
        store = _store(tmp_path)
        a, b = _Seed("a"), _Seed("b")
        store.save({"corpus": [a]}, sim_time=0.0, iterations=0, seeds=[a])
        store.save({"corpus": [a, b]}, sim_time=600.0, iterations=1,
                   seeds=[a, b])
        return store

    def test_damaged_newest_seeds_falls_back_to_an_older_entry(
            self, tmp_path):
        store = self._two_seed_files(tmp_path)
        _damage(store, "seeds-000002.pkl")
        restored = store.load_latest().state["corpus"]
        assert [seed.value for seed in restored] == ["a"]

    def test_damaged_oldest_seeds_means_a_fresh_start(self, tmp_path):
        store = self._two_seed_files(tmp_path)
        _damage(store, "seeds-000001.pkl")
        assert store.load_latest() is None

    def test_scan_fallback_resolves_base_and_seeds(self, tmp_path):
        store = _store(tmp_path)
        model, a = _Base("model"), _Seed("a")
        store.save({"corpus": [a], "model": model}, sim_time=0.0,
                   iterations=0, base=[model], seeds=[a])
        store.save({"corpus": [a], "model": model, "round": 2},
                   sim_time=600.0, iterations=1, base=[model], seeds=[a])
        state = _store(tmp_path).load_latest().state
        assert state["round"] == 2
        assert state["corpus"][0].value == "a"
        assert state["model"].name == "model"

    def test_scan_fallback_skips_a_save_with_damaged_seeds(self, tmp_path):
        store = self._two_seed_files(tmp_path)
        _damage(store, "seeds-000002.pkl")
        store = _store(tmp_path)
        restored = store.load_latest().state["corpus"]
        assert [seed.value for seed in restored] == ["a"]

    def test_unresolved_reference_is_a_damaged_blob(self, tmp_path):
        """A loop blob whose header drops a seeds file it references
        cannot resolve its seeds: the save is skipped, not raised."""
        store = self._two_seed_files(tmp_path)
        path = os.path.join(store.directory, "ckpt-000002.pkl")
        with open(path, "rb") as handle:
            header = pickle.load(handle)
            body = handle.read()
        header.requires.pop("seeds-000002.pkl")
        # A valid trailer: the reference layer, not the digest, is what
        # must catch the dangling seed.
        blob = pickle.dumps(header) + body[:-32]
        with open(path, "wb") as handle:
            handle.write(blob + hashlib.sha256(blob).digest())
        restored = store.load_latest().state["corpus"]
        assert [seed.value for seed in restored] == ["a"]


def _intact(store, name):
    """Whether loop blob ``name`` and every file it needs are on disk and
    match their digests."""
    try:
        with open(os.path.join(store.directory, name), "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        return False
    if hashlib.sha256(blob[:-32]).digest() != blob[-32:]:
        return False
    for needed, sha in pickle.loads(blob).requires.items():
        try:
            with open(os.path.join(store.directory, needed), "rb") as handle:
                if hashlib.sha256(handle.read()).hexdigest() != sha:
                    return False
        except FileNotFoundError:
            return False
    return True


class TestTwoWritersOnOneKey:
    """A fleet cell whose lease expired runs on beside the replacement
    that resumed from the shared checkpoint directory: two stores write
    one key, in turns."""

    def _step(self, store, corpus, round_number, model):
        # The same campaign in both writers: FIFO eviction keeps the
        # newest two seeds, so the saves drop seeds files as they go.
        corpus[:] = corpus[-1:] + [_Seed(round_number)]
        return os.path.basename(store.save(
            {"corpus": list(corpus), "model": model, "round": round_number},
            sim_time=600.0 * round_number, iterations=round_number,
            base=[model], seeds=corpus))

    def test_interleaved_saves_keep_both_streams_intact(self, tmp_path):
        zombie = _store(tmp_path)
        model = _Base("model")
        zombie_corpus = []
        newest = {}
        for round_number in range(2):
            newest[zombie] = self._step(zombie, zombie_corpus, round_number,
                                        model)
        replacement = _store(tmp_path)
        state = replacement.load_latest().state
        writers = ((zombie, zombie_corpus, model),
                   (replacement, state["corpus"], state["model"]))
        contents = {}
        for round_number in range(2, 10):
            for store, corpus, base in writers:
                newest[store] = self._step(store, corpus, round_number, base)
                # No file is ever written twice: nobody overwrote another
                # writer's file, and every file either store still needs
                # is on disk and intact.
                for name in os.listdir(store.directory):
                    with open(os.path.join(store.directory, name),
                              "rb") as handle:
                        data = handle.read()
                    assert contents.setdefault(name, data) == data, name
                for writer, blob in newest.items():
                    assert _intact(writer, blob), blob
                payload = _store(tmp_path).load_latest()
                assert payload.state["round"] == round_number
                assert [seed.value for seed in payload.state["corpus"]] == \
                    [round_number - 1, round_number]


class TestSteadyStateSaveIO:
    """After the first save lists the directory, a save only writes its
    new files and removes those leaving its keep-N window."""

    def test_third_and_later_saves_list_and_read_nothing(
            self, tmp_path, monkeypatch):
        import builtins
        import tempfile

        store = _store(tmp_path, keep=2)
        model = _Base("model")
        corpus = []
        expected_window = []

        def save(round_number, new_seed):
            if new_seed:
                corpus[:] = corpus[-1:] + [_Seed(round_number)]
            path = store.save({"corpus": list(corpus)},
                              sim_time=600.0 * round_number,
                              iterations=round_number, base=[model],
                              seeds=corpus)
            return os.path.basename(path)

        for round_number in range(2):
            expected_window.append(save(round_number, new_seed=True))

        calls = {"listdir": 0, "open": 0, "makedirs": 0}
        created, removed = [], []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        original_mkstemp = tempfile.mkstemp
        original_remove = os.remove

        def mkstemp(*args, **kwargs):
            created.append(kwargs.get("prefix"))
            return original_mkstemp(*args, **kwargs)

        def remove(path):
            removed.append(os.path.basename(path))
            return original_remove(path)

        for round_number in range(2, 8):
            new_seed = round_number % 2 == 0
            before = set(os.listdir(store.directory))
            del created[:], removed[:]
            with monkeypatch.context() as patch:
                patch.setattr(os, "listdir", counting("listdir", os.listdir))
                patch.setattr(os, "scandir", counting("listdir", os.scandir))
                patch.setattr(os, "makedirs", counting("makedirs",
                                                       os.makedirs))
                patch.setattr(builtins, "open", counting("open", open))
                patch.setattr(tempfile, "mkstemp", mkstemp)
                patch.setattr(os, "remove", remove)
                name = save(round_number, new_seed)
            assert calls == {"listdir": 0, "open": 0, "makedirs": 0}
            assert len(created) == (2 if new_seed else 1)
            after = set(os.listdir(store.directory))
            new_files = sorted(after - before)
            assert name in new_files
            assert len(new_files) == len(created)
            # Every removal is a committed temp file or a file that left
            # the window; what stays is exactly what the window needs.
            expected_window = (expected_window + [name])[-2:]
            needed = set()
            for blob in expected_window:
                needed.add(blob)
                needed.update(_header(store, blob).requires)
            assert after == needed
            gone = before - after
            assert {n for n in removed if not n.endswith(".tmp")} == gone
