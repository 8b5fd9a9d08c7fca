"""Property-based robustness: targets survive arbitrary input bytes.

The harness contract: ``handle_packet`` either returns reply bytes or
raises :class:`SanitizerFault` (an injected bug firing). Any other
exception is an implementation error in the target — exactly what these
hypothesis sweeps hunt for.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.targets import target_entries
from repro.targets.faults import SanitizerFault

_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_payloads = st.binary(min_size=0, max_size=256)


def _all_targets_default():
    started = {}
    for entry in target_entries():
        target = entry.target_cls()
        target.startup({})
        started[entry.name] = target
    return started


_TARGETS = _all_targets_default()

#: Non-default configurations that unlock the deepest code paths.
_RICH_CONFIGS = {
    "mosquitto": {"persistence": True, "bridge_enabled": True,
                  "queue_qos0_messages": True, "log_type": "all"},
    "libcoap": {"block-transfer": True, "qblock": True, "observe": True},
    "cyclonedds": {"Domain.Tracing.Verbosity": "finest",
                   "Domain.Internal.RetransmitMerging": "always"},
    "openssl": {"cookie-exchange": True, "session-cache": True},
    "qpid": {"auth": True, "durable": True},
    "dnsmasq": {"log-queries": True, "stop-dns-rebind": True, "dnssec": True,
                "filterwin2k": True},
    "restapi": {"auth_required": True, "auth_token": "secret",
                "cors_enabled": True, "debug_endpoints": True,
                "keepalive": True, "url_decode": True,
                "firmware_upload": True},
    "modbus": {"diagnostics": True, "broadcast_enabled": True,
               "trace_frames": True, "exception_verbose": True,
               "accept_any_unit": True, "strict_length": False},
    "randtarget": {"telemetry": True, "checksums": True, "batch_mode": True,
                   "compat_shim": True, "legacy_frames": True},
}


@pytest.mark.parametrize("name", sorted(_TARGETS))
class TestArbitraryBytes:
    @_SETTINGS
    @given(payload=_payloads)
    def test_default_config_total_robustness(self, name, payload):
        target = _TARGETS[name]
        try:
            response = target.handle_packet(payload)
        except SanitizerFault:
            target.reset_session()
            return
        assert isinstance(response, bytes)

    @_SETTINGS
    @given(payload=_payloads)
    def test_rich_config_total_robustness(self, name, payload):
        target = _TARGETS[name].__class__()
        target.startup(_RICH_CONFIGS.get(name, {}))
        try:
            response = target.handle_packet(payload)
        except SanitizerFault:
            return
        assert isinstance(response, bytes)


@pytest.mark.parametrize("name", sorted(_TARGETS))
class TestMutatedPitMessages:
    @_SETTINGS
    @given(data=st.data())
    def test_mutated_valid_messages_robust(self, name, data):
        """Near-valid traffic (pit message + byte corruption) never
        produces an unexpected exception either."""
        from repro.targets import get_target

        model = get_target(name).state_model()
        names = [m.name for m in model.data_models()]
        chosen = data.draw(st.sampled_from(names))
        payload = bytearray(model.data_model(chosen).build().encode())
        flips = data.draw(st.lists(
            st.tuples(st.integers(0, max(len(payload) - 1, 0)), st.integers(0, 255)),
            max_size=4,
        ))
        for index, value in flips:
            if payload:
                payload[index % len(payload)] = value
        target = _TARGETS[name]
        try:
            response = target.handle_packet(bytes(payload))
        except SanitizerFault:
            target.reset_session()
            return
        assert isinstance(response, bytes)
