"""FaultTolerantStore policies: retry, quarantine, degrade — never abort.

Satellite of the fault-plane PR: a corrupt cache entry used to be
silently swallowed as a miss; now it is quarantined to ``<path>.corrupt``
with a ``cache.corrupt`` counter and a once-per-path log line.
"""

import logging
import os
import pickle

import pytest

from repro.cache import FaultTolerantStore, atomic_write
from repro.faultplane import (
    FAULT_TRANSIENT,
    BackoffPolicy,
    FaultInjector,
    FaultPlan,
)


from repro.telemetry import MetricsRegistry, NullTracer, Telemetry


class _AlwaysTransientPlan(FaultPlan):
    """Every op faults transiently: retries always exhaust."""

    def decide(self, site, op_index, kinds):
        return FAULT_TRANSIENT if kinds else None


def _telemetry():
    return Telemetry(registry=MetricsRegistry(), tracer=NullTracer(),
                     sink=None, enabled=True)


def _always_failing_injector(**kwargs):
    """An injector whose every op faults transiently (and exhausts)."""
    return FaultInjector(plan=_AlwaysTransientPlan(seed=0, level=1.0),
                         backoff=BackoffPolicy(max_attempts=2), **kwargs)


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        store = FaultTolerantStore("probe")
        path = str(tmp_path / "entry.pkl")
        store.store(path, {"value": 41})
        assert store.load(path) == {"value": 41}

    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        store = FaultTolerantStore("probe")
        assert store.load(str(tmp_path / "absent.pkl")) is None


class TestQuarantine:
    def test_corrupt_entry_quarantined_not_swallowed(self, tmp_path):
        telemetry = _telemetry()
        store = FaultTolerantStore("probe", telemetry=telemetry)
        path = str(tmp_path / "entry.pkl")
        with open(path, "wb") as handle:
            handle.write(b"this is not a pickle")
        assert store.load(path) is None
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        counter = telemetry.counter("cache.corrupt", cache="probe")
        assert counter.value == 1

    def test_quarantined_entry_keeps_its_bytes(self, tmp_path):
        store = FaultTolerantStore("result")
        path = str(tmp_path / "entry.pkl")
        with open(path, "wb") as handle:
            handle.write(b"\x80\x04damaged")
        store.load(path)
        with open(path + ".corrupt", "rb") as handle:
            assert handle.read() == b"\x80\x04damaged"

    def test_rewritten_entry_loads_after_quarantine(self, tmp_path):
        store = FaultTolerantStore("probe")
        path = str(tmp_path / "entry.pkl")
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        assert store.load(path) is None
        store.store(path, "fresh")
        assert store.load(path) == "fresh"

    def test_corrupt_path_logged_once(self, tmp_path, caplog):
        store = FaultTolerantStore("probe")
        path = str(tmp_path / "entry.pkl")
        for _ in range(3):
            with open(path, "wb") as handle:
                handle.write(b"garbage")
            with caplog.at_level(logging.WARNING, logger="repro.cache"):
                store.load(path)
        mentions = [r for r in caplog.records if path in r.getMessage()]
        assert len(mentions) == 1

    def test_stale_class_reference_quarantined(self, tmp_path):
        # An entry pickled against a renamed class raises
        # AttributeError from pickle.loads; that is corruption too.
        store = FaultTolerantStore("probe")
        path = str(tmp_path / "entry.pkl")
        with open(path, "wb") as handle:
            handle.write(b"crepro.cache\nNoSuchClassAnyMore\nq\x00.")
        assert store.load(path) is None
        assert os.path.exists(path + ".corrupt")


class TestDegradedMode:
    def test_read_giveup_degrades_to_memory(self, tmp_path):
        telemetry = _telemetry()
        store = FaultTolerantStore(
            "probe", telemetry=telemetry,
            injector=_always_failing_injector(telemetry=telemetry))
        path = str(tmp_path / "entry.pkl")
        atomic_write(path, pickle.dumps("on disk"))
        assert store.load(path) is None  # gave up; memory is empty
        assert store.degraded
        assert telemetry.counter("cache.degraded", cache="probe").value == 1
        # The store keeps working, in memory.
        store.store(path, "in memory")
        assert store.load(path) == "in memory"

    def test_write_giveup_keeps_the_payload_in_memory(self, tmp_path):
        store = FaultTolerantStore("result",
                                   injector=_always_failing_injector())
        path = str(tmp_path / "entry.pkl")
        store.store(path, {"kept": True})
        assert store.degraded
        assert store.load(path) == {"kept": True}
        assert not os.path.exists(path)

    def test_strict_injector_aborts_instead_of_degrading(self, tmp_path):
        store = FaultTolerantStore(
            "probe", injector=_always_failing_injector(strict=True))
        with pytest.raises(OSError):
            store.load(str(tmp_path / "entry.pkl"))
        assert not store.degraded


class TestInjectedCorruptRead:
    def test_injected_corruption_is_a_miss_not_a_quarantine(self, tmp_path):
        # The on-disk file is healthy; only the injected *read* was
        # damaged. Quarantining it would destroy real cache data.
        injector = FaultInjector(plan=FaultPlan(seed=0, level=1.0))
        store = FaultTolerantStore("probe", injector=injector)
        path = str(tmp_path / "entry.pkl")
        atomic_write(path, pickle.dumps("healthy"))
        hits, misses = 0, 0
        for _ in range(20):
            if store.load(path) is None:
                misses += 1
            else:
                hits += 1
            if store.degraded:
                break
        assert misses > 0
        assert os.path.exists(path)
        assert not os.path.exists(path + ".corrupt")
        with open(path, "rb") as handle:
            assert pickle.loads(handle.read()) == "healthy"


class TestWritersInOneProcess:
    """Fleet agents are threads of one process, and an overrun cell runs
    on beside its replacement: threads writing one entry must never tear
    it or trip over each other's temp file."""

    def _race(self, write_and_read, rounds=300):
        import sys
        import threading

        errors = []

        def worker(tag):
            try:
                for round_number in range(rounds):
                    write_and_read(tag, round_number)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        # More writers than cores, switching often.
        threads = [threading.Thread(target=worker, args=(tag,))
                   for tag in "abcd"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        return errors

    def test_threads_never_share_a_temp_file(self, tmp_path):
        path = str(tmp_path / "entry.pkl")

        def write_and_read(tag, round_number):
            atomic_write(path, pickle.dumps((tag, round_number, b"x" * 4096)))
            with open(path, "rb") as handle:
                assert pickle.loads(handle.read())[2] == b"x" * 4096

        assert self._race(write_and_read) == []
        assert [name for name in os.listdir(tmp_path)] == ["entry.pkl"]

    def test_threads_keep_a_store_healthy(self, tmp_path):
        store = FaultTolerantStore("result")
        path = str(tmp_path / "entry.pkl")

        def write_and_read(tag, round_number):
            store.store(path, (tag, round_number, b"x" * 4096))
            assert store.load(path)[2] == b"x" * 4096

        assert self._race(write_and_read) == []
        assert not store.degraded
        assert not os.path.exists(path + ".corrupt")

    def test_no_clobber_write_leaves_an_existing_file(self, tmp_path):
        path = str(tmp_path / "entry.pkl")
        assert atomic_write(path, b"first", replace=False)
        assert not atomic_write(path, b"second", replace=False)
        with open(path, "rb") as handle:
            assert handle.read() == b"first"
        assert os.listdir(tmp_path) == ["entry.pkl"]
