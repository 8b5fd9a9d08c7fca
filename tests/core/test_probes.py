"""Tests for the probe executor stack: caching, pooling, invalidation."""

import os
import time

import pytest

from repro.api import ModelBuildConfig, quantify_relations
from repro.core import probes as probes_mod
from repro.core.entity import ConfigEntity, Flag, ValueType
from repro.core.model import ConfigurationModel
from repro.core.probes import (
    CachedProbeExecutor,
    LocalProbeExecutor,
    PooledProbeExecutor,
    ProbeBatch,
    ProbeCache,
    ProbeOutcome,
    build_probe_executor,
    probe_key,
    run_probe_batch,
)
from repro.errors import CacheUnavailableError, StartupError
from repro.harness.pool import ExecutorError
from repro.targets.base import ProtocolTarget
from repro.targets.registry import register_target, unregister_target


def _counting_probe(log):
    def probe(assignment):
        log.append(dict(assignment))
        if assignment.get("boom"):
            raise StartupError("conflict", conflicting=list(assignment))
        return frozenset("%s=%s" % kv for kv in assignment.items()) | {"base"}

    return probe


class TestProbeKey:
    def test_order_insensitive(self):
        assert (probe_key("t", {"a": 1, "b": 2})
                == probe_key("t", {"b": 2, "a": 1}))

    def test_values_and_target_change_key(self):
        base = probe_key("t", {"a": 1})
        assert probe_key("t", {"a": 2}) != base
        assert probe_key("u", {"a": 1}) != base

    def test_version_changes_key(self, monkeypatch):
        base = probe_key("t", {"a": 1})
        monkeypatch.setattr(probes_mod, "PROBE_CACHE_VERSION", 9999)
        assert probe_key("t", {"a": 1}) != base


class TestLocalExecutor:
    def test_outcomes_in_order(self):
        log = []
        executor = LocalProbeExecutor(_counting_probe(log))
        outcomes = executor.run([{"a": 1}, {"boom": True}, {}])
        assert [o.failed for o in outcomes] == [False, True, False]
        assert outcomes[0].sites == {"a=1", "base"}
        assert outcomes[0].branches == 2
        assert outcomes[1].branches == 0
        assert executor.stats == {"executed": 3, "cache_hits": 0}
        assert log == [{"a": 1}, {"boom": True}, {}]

    def test_equal_startups_share_one_outcome(self):
        # The probe builds a new (equal) frozenset on every call.
        executor = LocalProbeExecutor(_counting_probe([]))
        first, failed, again, other = executor.run(
            [{}, {"boom": True}, {}, {"a": 1}])
        later, = executor.run([{}])
        assert first is again is later
        assert first.sites == {"base"} and not first.faults
        assert other is not first and other.sites == {"a=1", "base"}
        assert failed.failed

    def test_failures_and_other_iterables_get_their_own_outcome(self):
        executor = LocalProbeExecutor(_counting_probe([]))
        boom_a, boom_b = executor.run([{"boom": True}, {"boom": True}])
        assert boom_a.failed and boom_b.failed and boom_a is not boom_b

        listing = LocalProbeExecutor(lambda a: ["base"])
        first, second = listing.run([{}, {}])
        assert first == second and first is not second
        assert first.sites == frozenset({"base"})


class TestProbeCache:
    def test_roundtrip(self, tmp_path):
        cache = ProbeCache(str(tmp_path))
        outcome = ProbeOutcome(sites=frozenset({"x"}))
        cache.put("k" * 64, outcome)
        assert cache.get("k" * 64) == outcome

    def test_miss(self, tmp_path):
        assert ProbeCache(str(tmp_path)).get("nope") is None

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        cache = ProbeCache(str(tmp_path))
        cache.put("key", ProbeOutcome(sites=frozenset({"x"})))
        assert cache.get("key") is not None
        monkeypatch.setattr(probes_mod, "PROBE_CACHE_VERSION",
                            probes_mod.PROBE_CACHE_VERSION + 1)
        assert cache.get("key") is None

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = ProbeCache(str(tmp_path))
        cache.put("key", ProbeOutcome())
        path = cache._path("key")
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.get("key") is None

    def test_unwritable_root_fails_fast(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        with pytest.raises(CacheUnavailableError) as excinfo:
            ProbeCache(str(blocker / "sub"))
        assert "--no-cache" in str(excinfo.value)


class TestCachedExecutor:
    def test_misses_execute_then_hit(self, tmp_path):
        log = []
        inner = LocalProbeExecutor(_counting_probe(log))
        executor = CachedProbeExecutor(inner, "t", ProbeCache(str(tmp_path)))
        first = executor.run([{"a": 1}, {"a": 2}])
        assert executor.stats == {"executed": 2, "cache_hits": 0}
        second = executor.run([{"a": 1}, {"a": 2}])
        assert second == first
        assert executor.stats == {"executed": 2, "cache_hits": 2}
        assert len(log) == 2  # nothing re-probed

    def test_failed_outcomes_are_cached(self, tmp_path):
        log = []
        inner = LocalProbeExecutor(_counting_probe(log))
        executor = CachedProbeExecutor(inner, "t", ProbeCache(str(tmp_path)))
        executor.run([{"boom": True}])
        (outcome,) = executor.run([{"boom": True}])
        assert outcome.failed
        assert len(log) == 1

    def test_targets_do_not_collide(self, tmp_path):
        cache = ProbeCache(str(tmp_path))
        log_a, log_b = [], []
        ex_a = CachedProbeExecutor(LocalProbeExecutor(_counting_probe(log_a)),
                                   "alpha", cache)
        ex_b = CachedProbeExecutor(LocalProbeExecutor(_counting_probe(log_b)),
                                   "beta", cache)
        ex_a.run([{"a": 1}])
        ex_b.run([{"a": 1}])
        assert len(log_a) == 1 and len(log_b) == 1


class TestRunProbeBatch:
    def test_reconstructs_registry_target(self):
        batch = ProbeBatch(target="dnsmasq", assignments=((), ))
        (outcome,) = run_probe_batch(batch)
        assert not outcome.failed
        assert outcome.branches > 0

    def test_unknown_target_rejected(self):
        with pytest.raises(KeyError):
            run_probe_batch(ProbeBatch(target="nope", assignments=()))


class TestPooledExecutor:
    def test_matches_local(self):
        assignments = [{}, {"log-queries": True}, {"dnssec": True}]
        local = build_probe_executor("dnsmasq", workers=1)
        pooled = PooledProbeExecutor("dnsmasq", workers=2)
        assert pooled.run(assignments) == local.run(assignments)
        assert pooled.stats["executed"] == len(assignments)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            PooledProbeExecutor("dnsmasq", workers=0)

    def test_empty_run(self):
        assert PooledProbeExecutor("dnsmasq", workers=2).run([]) == []


class TestBuildProbeExecutor:
    def test_serial_default(self):
        executor = build_probe_executor("dnsmasq")
        assert isinstance(executor, LocalProbeExecutor)

    def test_pooled_when_workers(self):
        executor = build_probe_executor("dnsmasq", workers=3)
        assert isinstance(executor, PooledProbeExecutor)
        assert executor.workers == 3

    def test_cache_layer(self, tmp_path):
        executor = build_probe_executor("dnsmasq", cache=True,
                                        cache_dir=str(tmp_path))
        assert isinstance(executor, CachedProbeExecutor)
        assert isinstance(executor.inner, LocalProbeExecutor)

    def test_daemon_guard_forces_serial(self, monkeypatch):
        monkeypatch.setattr(probes_mod, "in_daemon_worker", lambda: True,
                            raising=False)
        from repro.harness import pool

        monkeypatch.setattr(pool, "in_daemon_worker", lambda: True)
        executor = build_probe_executor("dnsmasq", workers=4)
        assert isinstance(executor, LocalProbeExecutor)


class _StuckTarget(ProtocolTarget):
    """Starts normally unless ``stuck`` is on: then startup hangs
    (``mode`` ``"hang"``) or exits its process (``mode`` ``"exit"``)."""

    NAME = "stuck"
    PROTOCOL = "STUCK"
    PORT = 7001
    mode = "hang"

    @classmethod
    def default_config(cls):
        return {"stuck": False, "other": False}

    def _startup_impl(self):
        self.cov.hit("startup")
        if self.enabled("stuck"):
            if self.mode == "exit":
                os._exit(3)
            time.sleep(60)


def _stuck_state_model():
    raise AssertionError("model build never needs the state model")


class TestPooledProbeFailures:
    """A chunk that timed out or killed its worker fails the model build
    instead of re-running inline: inline, it would hang or kill the
    caller, whatever ``probe_timeout`` says."""

    @pytest.fixture(autouse=True)
    def stuck_target(self, monkeypatch):
        register_target("stuck", _StuckTarget, _stuck_state_model, {
            "name": "stuck", "protocol": "STUCK",
            "description": "A target whose startup hangs for one value.",
            "port": 7001,
            "config_surface": {"format": "key-value file", "keys": 2},
        })
        yield monkeypatch
        unregister_target("stuck")

    def _quantify(self):
        model = ConfigurationModel([
            ConfigEntity(name, ValueType.BOOLEAN, Flag.MUTABLE, (True, False))
            for name in ("stuck", "other")
        ])
        return quantify_relations(
            "stuck", model,
            ModelBuildConfig(workers=2, probe_timeout=0.5, retries=0))

    @pytest.mark.parametrize("mode,kind", [("hang", "timeout"),
                                           ("exit", "worker-died")])
    def test_lost_chunk_raises_within_the_budget(self, stuck_target, mode,
                                                 kind):
        stuck_target.setattr(_StuckTarget, "mode", mode)
        started = time.monotonic()
        with pytest.raises(ExecutorError) as excinfo:
            self._quantify()
        assert time.monotonic() - started < 10
        assert [cell.failure.kind for cell in excinfo.value.failed] == [kind]
