"""Checkpoint store under the fault plane, and the concrete error set.

Two satellites of the fault-plane PR live here: the bare
``except Exception`` around checkpoint unpickling was tightened to the
concrete :data:`repro.cache.UNPICKLE_ERRORS` set (one regression test
per member), and checkpoint saves gained the retry → skip-and-continue
policy (``--strict-io`` restores fail-fast).
"""

import hashlib
import os
import pickle

import pytest

from repro.cache import UNPICKLE_ERRORS
from repro.errors import CheckpointError
from repro.harness.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointPayload,
    CheckpointStore,
)
from repro.faultplane import (
    FAULT_CORRUPT,
    FAULT_TRANSIENT,
    BackoffPolicy,
    FaultInjector,
    FaultPlan,
)


class _AlwaysTransientPlan(FaultPlan):
    """Every op faults transiently: retries always exhaust."""

    def decide(self, site, op_index, kinds):
        return FAULT_TRANSIENT if kinds else None


def _store(tmp_path, injector=None, key="k" * 64):
    return CheckpointStore(key, root=str(tmp_path / "checkpoints"),
                           injector=injector)


def _always_failing_injector(strict=False):
    return FaultInjector(plan=_AlwaysTransientPlan(seed=0, level=1.0),
                         backoff=BackoffPolicy(max_attempts=2), strict=strict)


class _RaisesOnSetstate:
    """Pickles fine; explodes with a chosen error while unpickling."""

    def __init__(self, error_type=ValueError):
        self.error_type = error_type

    def __reduce__(self):
        return (_raise_on_restore, (self.error_type.__name__,))


def _raise_on_restore(error_name):
    raise {
        "ValueError": ValueError,
        "TypeError": TypeError,
        "IndexError": IndexError,
    }[error_name]("restored a poisoned payload")


def _write_newest_blob(store, raw_bytes):
    """Plant damaged bytes as a newer save than the one good checkpoint.

    The bytes get a valid sha256 trailer, so the digest check passes
    and the unpickling layer is what has to catch them.
    """
    store.save({"round": 1}, sim_time=600.0, iterations=20)
    path = store.save({"round": 2}, sim_time=1200.0, iterations=40)
    with open(path, "wb") as handle:
        handle.write(raw_bytes + hashlib.sha256(raw_bytes).digest())
    return path


class TestConcreteUnpickleErrors:
    """One regression test per member of the tightened error set.

    Each vector makes ``pickle.loads`` raise a *different* concrete
    error; all of them must degrade to the previous good save. (Each
    vector carries a valid sha256 trailer, so the digest check passes
    and the unpickling layer itself is what is exercised.)
    """

    def _assert_falls_back(self, tmp_path, raw_bytes, expected_error):
        # First confirm the vector raises what it claims to raise.
        with pytest.raises(UNPICKLE_ERRORS) as excinfo:
            pickle.loads(raw_bytes)
        assert isinstance(excinfo.value, expected_error)
        store = _store(tmp_path)
        _write_newest_blob(store, raw_bytes)
        assert store.load_latest().state == {"round": 1}

    def test_unpickling_error_garbage_stream(self, tmp_path):
        self._assert_falls_back(tmp_path, b"not a pickle at all",
                                pickle.UnpicklingError)

    def test_eof_error_empty_file(self, tmp_path):
        self._assert_falls_back(tmp_path, b"", EOFError)

    def test_attribute_error_renamed_class(self, tmp_path):
        self._assert_falls_back(
            tmp_path, b"crepro.harness.checkpoint\nNoSuchThing\nq\x00.",
            AttributeError)

    def test_import_error_missing_module(self, tmp_path):
        self._assert_falls_back(
            tmp_path, b"cno_such_module_xyz\nThing\nq\x00.", ImportError)

    def test_value_error_unsupported_protocol(self, tmp_path):
        self._assert_falls_back(tmp_path, b"\x80\x63", ValueError)

    @pytest.mark.parametrize("error_type", [ValueError, TypeError, IndexError])
    def test_poisoned_reconstruction(self, tmp_path, error_type):
        raw = pickle.dumps(CheckpointPayload(
            schema_version=CHECKPOINT_SCHEMA_VERSION, key="k" * 64,
            sequence=2, sim_time=1200.0, iterations=40,
            state=_RaisesOnSetstate(error_type)))
        self._assert_falls_back(tmp_path, raw, error_type)


class TestSaveUnderFaults:
    def test_exhausted_save_raises_checkpoint_error(self, tmp_path):
        store = _store(tmp_path, injector=_always_failing_injector())
        with pytest.raises(CheckpointError):
            store.save({"round": 1}, sim_time=0.0, iterations=0)

    def test_strict_exhausted_save_also_checkpoint_error(self, tmp_path):
        # The campaign's _save_checkpoint distinguishes strict by
        # consulting the injector; the store's contract is uniform.
        store = _store(tmp_path, injector=_always_failing_injector(strict=True))
        with pytest.raises(CheckpointError):
            store.save({"round": 1}, sim_time=0.0, iterations=0)

    def test_failed_save_leaves_previous_stream_intact(self, tmp_path):
        good = _store(tmp_path)
        good.save({"round": 1}, sim_time=600.0, iterations=20)
        flaky = _store(tmp_path, injector=_always_failing_injector())
        with pytest.raises(CheckpointError):
            flaky.save({"round": 2}, sim_time=1200.0, iterations=40)
        assert good.load_latest().state == {"round": 1}

    def test_save_retries_through_transients(self, tmp_path):
        # Level 0.4 transients exhaust only when four consecutive ops
        # fault; with retry the stream keeps growing.
        injector = FaultInjector(plan=FaultPlan(seed=3, level=0.4))
        store = _store(tmp_path, injector=injector)
        saved = 0
        for round_number in range(10):
            try:
                store.save({"round": round_number}, sim_time=0.0,
                           iterations=round_number)
                saved += 1
            except CheckpointError:
                pass
        assert saved > 0
        assert store.load_latest() is not None
        assert injector.summary()["ops"].get("checkpoint.save", 0) >= 10


class TestLoadUnderFaults:
    def test_exhausted_load_returns_none_in_both_modes(self, tmp_path):
        # Checkpoint *load* degrades to "no checkpoint" even under
        # --strict-io: that was the pre-PR contract (resume never
        # crashes on damaged state) and strictness must not break it.
        good = _store(tmp_path)
        good.save({"round": 1}, sim_time=0.0, iterations=0)
        for strict in (False, True):
            flaky = _store(tmp_path,
                           injector=_always_failing_injector(strict=strict))
            assert flaky.load_latest() is None

    def test_injected_corrupt_read_falls_back_to_older_save(self, tmp_path):
        # A corrupt-on-read fault damages the newest blob's *bytes in
        # flight*; the sha check catches it and the loader walks back.
        good = _store(tmp_path)
        good.save({"round": 1}, sim_time=0.0, iterations=0)
        good.save({"round": 2}, sim_time=600.0, iterations=20)
        injector = FaultInjector(plan=FaultPlan(seed=1, level=0.5))
        flaky = _store(tmp_path, injector=injector)
        seen = set()
        for _ in range(30):
            flaky_payload = flaky.load_latest()
            if flaky_payload is not None:
                seen.add(flaky_payload.state["round"])
        # Whatever the weather did, only genuine saves ever surface.
        assert seen <= {1, 2}
        assert 2 in seen


class _Seed:
    def __init__(self, value):
        self.value = value


class _AimedPlan(FaultPlan):
    """Faults every op at the named sites with ``kind``, when honoured."""

    def __init__(self, sites, kind, limit=None):
        super().__init__(seed=0, level=1.0)
        object.__setattr__(self, "sites", tuple(sites))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "limit", limit)

    def decide(self, site, op_index, kinds):
        if site not in self.sites or self.kind not in kinds:
            return None
        if self.limit is not None and op_index >= self.limit:
            return None
        return self.kind


def _aimed(sites, kind, limit=None):
    return FaultInjector(plan=_AimedPlan(sites, kind, limit),
                         backoff=BackoffPolicy(max_attempts=2))


def _seeded_stream(tmp_path):
    """Two saves over one base: seeds a (save 1) and b (save 2)."""
    store = _store(tmp_path)
    a, b = _Seed("a"), _Seed("b")
    base = [_Seed("base")]
    store.save({"corpus": [a]}, sim_time=0.0, iterations=0, base=base,
               seeds=[a])
    store.save({"corpus": [a, b]}, sim_time=600.0, iterations=1, base=base,
               seeds=[a, b])
    return store, (a, b, base)


class TestWriteOnceFilesUnderFaults:
    @pytest.mark.parametrize("site", ["checkpoint.base.save",
                                      "checkpoint.seeds.save"])
    def test_exhausted_write_fails_the_save_and_registers_nothing(
            self, tmp_path, site):
        seed, base = _Seed("s"), [_Seed("base")]
        flaky = _store(tmp_path, injector=_aimed([site], FAULT_TRANSIENT))
        with pytest.raises(CheckpointError):
            flaky.save({"corpus": [seed]}, sim_time=0.0, iterations=0,
                       base=base, seeds=[seed])
        # Nothing counts as written: the healthy retry writes both again.
        flaky.injector = FaultInjector()
        flaky.save({"corpus": [seed]}, sim_time=0.0, iterations=0,
                   base=base, seeds=[seed])
        # The failed save removed the file it did write, and left no
        # temp file behind.
        names = sorted(os.listdir(flaky.directory))
        suffix = names[0][len("base-"):]
        assert names == ["base-" + suffix, "ckpt-" + suffix,
                         "seeds-" + suffix]
        assert flaky.load_latest().state["corpus"][0].value == "s"

    @pytest.mark.parametrize("site", ["checkpoint.base.save",
                                      "checkpoint.seeds.save"])
    def test_transient_write_retries_through(self, tmp_path, site):
        seed = _Seed("s")
        injector = _aimed([site], FAULT_TRANSIENT, limit=1)
        store = _store(tmp_path, injector=injector)
        store.save({"corpus": [seed]}, sim_time=0.0, iterations=0,
                   base=[_Seed("base")], seeds=[seed])
        assert injector.summary()["injected"][site] == {FAULT_TRANSIENT: 1}
        assert store.load_latest().state["corpus"][0].value == "s"

    @pytest.mark.parametrize("kind", [FAULT_CORRUPT, FAULT_TRANSIENT])
    def test_persistent_seeds_read_fault_falls_back(self, tmp_path, kind):
        _seeded_stream(tmp_path)
        # Seeds files that stay unreadable lose every save needing them;
        # one damaged read is re-read and costs nothing.
        flaky = _store(tmp_path,
                       injector=_aimed(["checkpoint.seeds.load"], kind))
        assert flaky.load_latest() is None
        one_shot = _store(
            tmp_path, injector=_aimed(["checkpoint.seeds.load"], kind,
                                      limit=1))
        restored = one_shot.load_latest().state["corpus"]
        assert [seed.value for seed in restored] == ["a", "b"]

    @pytest.mark.parametrize("kind", [FAULT_CORRUPT, FAULT_TRANSIENT])
    def test_base_read_faults_never_raise(self, tmp_path, kind):
        _seeded_stream(tmp_path)
        flaky = _store(tmp_path,
                       injector=_aimed(["checkpoint.base.load"], kind))
        assert flaky.load_latest() is None
        one_shot = _store(
            tmp_path, injector=_aimed(["checkpoint.base.load"], kind,
                                      limit=1))
        assert one_shot.load_latest().sequence == 2
