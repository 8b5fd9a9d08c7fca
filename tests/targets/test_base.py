"""Tests for the shared target base class and startup probes."""

import pytest

from repro.core.extraction import ConfigSources
from repro.coverage.collector import CoverageCollector
from repro.errors import StartupError, TargetError
from repro.targets.base import ProtocolTarget, startup_probe_for
from repro.targets.faults import FaultKind, SanitizerFault


class _Demo(ProtocolTarget):
    NAME = "demo"
    PROTOCOL = "DEMO"
    PORT = 1000

    @classmethod
    def config_sources(cls):
        return ConfigSources()

    @classmethod
    def default_config(cls):
        return {"port": 1000, "feature": False, "explode": False}

    def _startup_impl(self):
        self.cov.hit("startup")
        if self.enabled("explode"):
            raise SanitizerFault(FaultKind.SEGV, "demo_init")
        if self.enabled("feature"):
            self.cov.hit("startup.feature")

    def handle_packet(self, data):
        self.require_started()
        return b"ack"


class TestStartup:
    def test_defaults_applied(self):
        target = _Demo()
        target.startup({})
        assert target.cfg("port") == 1000

    def test_assignment_overrides_defaults(self):
        target = _Demo()
        target.startup({"feature": True})
        assert target.cfg("feature") is True

    def test_unknown_keys_rejected_with_names(self):
        target = _Demo()
        with pytest.raises(StartupError) as exc:
            target.startup({"bogus": 1})
        assert "bogus" in exc.value.conflicting

    def test_port_validation(self):
        target = _Demo()
        with pytest.raises(StartupError):
            target.startup({"port": -1})
        with pytest.raises(StartupError):
            target.startup({"port": "not-a-port"})

    def test_use_before_startup_rejected(self):
        with pytest.raises(TargetError):
            _Demo().handle_packet(b"x")

    def test_cfg_unknown_key(self):
        target = _Demo()
        target.startup({})
        with pytest.raises(TargetError):
            target.cfg("missing")

    def test_enabled_string_truthiness(self):
        target = _Demo()
        target.startup({})
        target.config["feature"] = "yes"
        assert target.enabled("feature")
        target.config["feature"] = "off"
        assert not target.enabled("feature")

    def test_external_collector_shared(self):
        collector = CoverageCollector(component="demo")
        target = _Demo(collector=collector)
        target.startup({})
        assert "demo:startup" in collector.total


class TestStartupProbe:
    def test_probe_returns_run_coverage(self):
        probe = startup_probe_for(_Demo)
        coverage = probe({"feature": True})
        assert "demo:startup.feature" in coverage

    def test_probe_uses_fresh_instances(self):
        probe = startup_probe_for(_Demo)
        first = probe({"feature": True})
        second = probe({})
        assert "demo:startup.feature" not in second
        assert "demo:startup.feature" in first

    def test_equal_startups_share_one_frozenset(self):
        """Model build keeps every probe's site set; equal startups must
        return one object, not one copy per launch."""
        probe = startup_probe_for(_Demo)
        first = probe({"feature": True})
        probe({})
        second = probe({"feature": True})
        assert isinstance(first, frozenset)
        assert second is first

    def test_startup_error_propagates(self):
        probe = startup_probe_for(_Demo)
        with pytest.raises(StartupError):
            probe({"nonsense": 1})

    def test_fault_propagates_without_handler(self):
        probe = startup_probe_for(_Demo)
        with pytest.raises(SanitizerFault):
            probe({"explode": True})

    def test_fault_handler_converts_to_startup_error(self):
        seen = []
        probe = startup_probe_for(_Demo, on_fault=seen.append)
        with pytest.raises(StartupError):
            probe({"explode": True})
        assert len(seen) == 1
        assert seen[0].function == "demo_init"

    def test_other_startup_exceptions_propagate_unchanged(self):
        class _Broken(_Demo):
            def _startup_impl(self):
                raise KeyError("missing-table")

        seen = []
        probe = startup_probe_for(_Broken, on_fault=seen.append)
        with pytest.raises(KeyError, match="missing-table"):
            probe({})
        # A rejected configuration is not a fault either.
        with pytest.raises(StartupError):
            startup_probe_for(_Demo, on_fault=seen.append)({"nonsense": 1})
        assert seen == []
