"""Tests for the parallel fuzzing instance wrapper."""

import pytest

from repro.core.reassembly import ConfigBundle
from repro.errors import StartupError
from repro.fuzzing.engine import FuzzEngine
from repro.netns.namespace import NetworkNamespace
from repro.parallel.instance import FuzzingInstance
from repro.targets.mqtt.pit import state_model
from repro.targets.mqtt.server import MosquittoTarget


def _engine_factory(transport, collector):
    return FuzzEngine(state_model(), transport, collector, seed=1)


def _instance(bundle=None, index=0):
    namespace = NetworkNamespace("test-%d" % index)
    return FuzzingInstance(index, MosquittoTarget, namespace, _engine_factory,
                           bundle=bundle)


class TestLifecycle:
    def test_start_boots_target_and_engine(self):
        instance = _instance()
        instance.start()
        assert instance.target is not None
        assert instance.target.started
        assert instance.engine is not None

    def test_start_binds_configured_port(self):
        instance = _instance(ConfigBundle(assignment={"port": 2000}, group=["port"]))
        instance.start()
        assert instance.namespace.bound_ports() == [2000]

    def test_restart_on_a_new_port_rebinds(self):
        instance = _instance(ConfigBundle(assignment={"port": 2000}, group=["port"]))
        instance.start()
        instance.restart({"port": 2001})
        assert instance.namespace.bound_ports() == [2001]

    def test_restart_on_the_same_port_keeps_the_binding(self, monkeypatch):
        instance = _instance(ConfigBundle(assignment={"port": 2000}, group=["port"]))
        instance.start()
        calls = []
        for name in ("bind", "release"):
            monkeypatch.setattr(instance.namespace, name,
                                lambda port, name=name: calls.append((name, port)))
        instance.restart({"port": 2000})
        assert calls == []
        assert instance.namespace.bound_ports() == [2000]
        assert instance.engine.transport.target is instance.target

    def test_startup_error_propagates(self):
        bundle = ConfigBundle(assignment={"require_certificate": True},
                              group=["require_certificate"])
        instance = _instance(bundle)
        with pytest.raises(StartupError):
            instance.start()

    def test_restart_with_new_assignment(self):
        instance = _instance()
        instance.start()
        instance.restart({"persistence": True})
        assert instance.target.cfg("persistence") is True
        assert instance.restarts == 1

    def test_coverage_survives_restart(self):
        instance = _instance()
        instance.start()
        instance.step()
        before = instance.coverage
        instance.restart({})
        assert instance.coverage >= before

    def test_step_before_start_raises(self):
        with pytest.raises(RuntimeError):
            _instance().step()

    def test_availability_window(self):
        instance = _instance()
        instance.start()
        assert instance.available(0.0)
        instance.down_until = 100.0
        assert not instance.available(50.0)
        assert instance.available(100.0)

    def test_dead_instance_never_available(self):
        instance = _instance()
        instance.start()
        instance.dead = True
        assert not instance.available(1e9)

    def test_step_runs_engine_iteration(self):
        instance = _instance()
        instance.start()
        result = instance.step()
        assert result.messages_sent >= 0
        assert instance.engine.iterations == 1
