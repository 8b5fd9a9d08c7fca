"""Seed-target golden parity: the registry redesign moved no bytes.

The CMFuzz entries of ``tests/goldens/exports.json`` for the six
pre-registry seed targets were captured before ``repro.targets`` became
manifest-driven. The redesign rewired every consumer through the
registry, so these tests re-run the exact capture campaigns — serial
through the facade and pooled through the executor — and require the
JSON to match byte-for-byte. The three registry-only targets have no
pre-registry baseline; they are instead held to the same internal
invariants as the seed six: byte-identical exports through the I/O
fault-plane storm and through the pool. Every mode x target cell,
these included, is also pinned in ``tests/harness/test_goldens.py``.
"""

import os
import tempfile

import pytest

from repro.api import run_campaign
from repro.harness.campaign import CampaignConfig
from repro.harness.executor import CampaignSpec, execute_specs, results
from repro.harness.export import results_to_json
from repro.parallel import create_mode
from repro.telemetry import TelemetryConfig
from tests.harness.goldens import load_goldens, strip_instances

SEED_TARGETS = ("cyclonedds", "dnsmasq", "libcoap", "mosquitto", "openssl",
                "qpid")
NEW_TARGETS = ("modbus", "randtarget", "restapi")

_GOLDENS = {name: export
            for name, export in load_goldens()["serial"]["cmfuzz"].items()
            if name in SEED_TARGETS}


def _config(**overrides):
    base = dict(n_instances=2, duration_hours=1.0, seed=7,
                sample_interval=300.0)
    base.update(overrides)
    return CampaignConfig(**base)


class TestSeedTargetsMatchPreRegistryExports:
    def test_golden_file_covers_the_seed_six(self):
        assert SEED_TARGETS == tuple(sorted(_GOLDENS))

    @pytest.mark.parametrize("name", SEED_TARGETS)
    def test_serial_export_is_byte_identical(self, name):
        result = run_campaign(name, mode=create_mode("cmfuzz"),
                              config=_config())
        assert results_to_json([result]) == _GOLDENS[name]

    @pytest.mark.parametrize("name", SEED_TARGETS)
    def test_workers2_export_matches_golden_and_serial(self, name):
        """Executor outcomes rebuild without live instance objects (the
        export's ``instances`` detail is empty there — longstanding slim
        -outcome behaviour), so the pooled export is compared to the
        golden with that one key normalised, and byte-for-byte against
        the workers=1 executor export."""
        spec = CampaignSpec(target=name, mode="cmfuzz", config=_config())
        serial = execute_specs([spec], workers=1)
        pooled = execute_specs([spec], workers=2)
        for cell in serial + pooled:
            assert cell.failure is None, cell.failure
        pooled_json = results_to_json(results(pooled))
        assert pooled_json == results_to_json(results(serial))
        assert (strip_instances(pooled_json)
                == strip_instances(_GOLDENS[name]))


class TestNewTargetsHoldTheHouseInvariants:
    @staticmethod
    def _engaged_config(tmpdir, level):
        """Every infrastructure boundary on, faults at ``level``."""
        return _config(
            probe_cache=True,
            probe_cache_dir=os.path.join(tmpdir, "probes"),
            checkpoint_every=600.0,
            checkpoint_dir=os.path.join(tmpdir, "ckpt"),
            telemetry=TelemetryConfig(
                enabled=True,
                trace_path=os.path.join(tmpdir, "trace.jsonl")),
            io_chaos_level=level, io_chaos_seed=9)

    @pytest.mark.parametrize("name", NEW_TARGETS)
    def test_faultplane_storm_export_is_byte_identical(self, name):
        with tempfile.TemporaryDirectory() as tmpdir:
            reference = results_to_json([run_campaign(
                name, mode=create_mode("cmfuzz"),
                config=self._engaged_config(tmpdir, level=0.0))])
        with tempfile.TemporaryDirectory() as tmpdir:
            stormed = run_campaign(
                name, mode=create_mode("cmfuzz"),
                config=self._engaged_config(tmpdir, level=0.45))
        assert results_to_json([stormed]) == reference

    @pytest.mark.parametrize("name", NEW_TARGETS)
    def test_workers2_equals_serial(self, name):
        spec = CampaignSpec(target=name, mode="cmfuzz", config=_config())
        serial = results(execute_specs([spec], workers=1))
        pooled = results(execute_specs([spec], workers=2))
        assert results_to_json(pooled) == results_to_json(serial)
