"""The write-once objects of a checkpoint stream, observed end to end.

A checkpoint stream writes the campaign's set-up graph (the base) and
each corpus seed once, and later saves only reference them. That is
only sound while nothing mutates them after their first write, and
while FIFO eviction may drop seeds files that old saves needed. Both
are pinned here for every registered mode: the objects pickle to the
same bytes at campaign end as at their first save, and a campaign
killed late — after eviction has pruned seeds files — resumes to the
uninterrupted export byte for byte.
"""

import dataclasses
import inspect
import os
import pickle

import pytest

from repro.errors import CampaignInterrupted
from repro.fuzzing.engine import FuzzEngine
from repro.harness.campaign import CampaignConfig, run_campaign
from repro.harness.checkpoint import CheckpointStore, campaign_key
from repro.harness.export import results_to_json
from repro.parallel import create_mode, mode_names
from repro.targets import get_target

_TARGET = "dnsmasq"


def _config(checkpoint_dir):
    return CampaignConfig(n_instances=2, duration_hours=2.0, seed=11,
                          sample_interval=300.0, checkpoint_every=300.0,
                          checkpoint_dir=checkpoint_dir)


def _run(mode_name, config, abort_hook=None):
    return run_campaign(
        get_target(_TARGET).target_cls, get_target(_TARGET).state_model(),
        create_mode(mode_name), config, abort_hook=abort_hook,
    )


def _stream_files(config, mode_name, prefix):
    directory = os.path.join(config.checkpoint_dir,
                             campaign_key(_TARGET, mode_name, config))
    return sorted(name for name in os.listdir(directory)
                  if name.startswith(prefix))


def _small_corpus(monkeypatch, limit=4):
    """Shrink every engine's corpus and sync outbox so FIFO eviction
    drops seeds (and with them whole seeds files) within minutes."""
    params = [p for p in inspect.signature(FuzzEngine.__init__)
              .parameters.values() if p.default is not p.empty]
    defaults = [p.default for p in params]
    for name in ("corpus_limit", "outbox_limit"):
        defaults[[p.name for p in params].index(name)] = limit
    monkeypatch.setattr(FuzzEngine.__init__, "__defaults__", tuple(defaults))


@pytest.mark.parametrize("mode_name", mode_names())
def test_write_once_objects_never_change(mode_name, tmp_path, monkeypatch):
    """Every base object and seed pickles at campaign end exactly as it
    did when a save first wrote it."""
    first_written = {}
    original = CheckpointStore.save

    def save(self, state, sim_time, iterations, base=(), seeds=()):
        base, seeds = list(base), list(seeds)
        for obj in base + seeds:
            if id(obj) not in first_written:
                # Holding the object keeps its id from being recycled.
                first_written[id(obj)] = (obj, pickle.dumps(obj))
        return original(self, state, sim_time, iterations,
                        base=base, seeds=seeds)

    monkeypatch.setattr(CheckpointStore, "save", save)
    _run(mode_name, _config(str(tmp_path / "ck")))
    kinds = {type(obj).__name__ for obj, _ in first_written.values()}
    assert {"StateModel", "DataModel", "Message"} <= kinds
    changed = sorted({type(obj).__name__
                      for obj, blob in first_written.values()
                      if pickle.dumps(obj) != blob})
    assert changed == []


@pytest.mark.parametrize("mode_name", mode_names())
def test_kill_late_resume_is_byte_identical(mode_name, tmp_path,
                                            monkeypatch):
    """Killed after ten saves, with seeds files already pruned, killed
    again two saves into the resume, and resumed to the end: the export
    equals the uninterrupted run's, and no resume rewrote the base."""
    _small_corpus(monkeypatch)
    config = _config(str(tmp_path / "ck"))
    reference = results_to_json([_run(mode_name, config)])

    saves, loads = [], []
    original_save = CheckpointStore.save
    original_load = CheckpointStore.load_latest

    def save(self, *args, **kwargs):
        path = original_save(self, *args, **kwargs)
        saves.append(path)
        return path

    def load_latest(self):
        payload = original_load(self)
        loads.append(payload and payload.sequence)
        return payload

    monkeypatch.setattr(CheckpointStore, "save", save)
    monkeypatch.setattr(CheckpointStore, "load_latest", load_latest)
    with pytest.raises(CampaignInterrupted):
        _run(mode_name, config, abort_hook=lambda i, now: len(saves) >= 10)
    seeds_files = _stream_files(config, mode_name, "seeds-")
    assert seeds_files and seeds_files[0] != "seeds-000001.pkl", \
        "eviction pruned no seeds file"
    base_files = _stream_files(config, mode_name, "base-")
    assert len(base_files) == 1

    resumed = dataclasses.replace(config, resume=True)
    with pytest.raises(CampaignInterrupted):
        _run(mode_name, resumed, abort_hook=lambda i, now: len(saves) >= 13)
    assert _stream_files(config, mode_name, "base-") == base_files

    assert results_to_json([_run(mode_name, resumed)]) == reference
    # Both resumes restored the interrupting save, not a fresh start.
    assert loads == [11, 14]
