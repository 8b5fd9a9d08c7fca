"""Startup coverage matrix: configuration choice visibly shifts startup
branch sets on every target (the property relation quantification needs).
"""


import pytest

from repro.errors import StartupError
from repro.targets import get_target
from repro.targets.base import startup_probe_for

#: For each target: two single-entity assignments expected to produce
#: *different* startup coverage from each other and from the default.
_VARIANTS = {
    "mosquitto": ({"persistence": True}, {"tls_enabled": True}),
    "libcoap": ({"block-transfer": True}, {"dtls": True}),
    "cyclonedds": ({"Domain.Internal.RetransmitMerging": "always"},
                   {"Domain.General.AllowMulticast": False}),
    "openssl": ({"cookie-exchange": True}, {"session-cache": True}),
    "qpid": ({"durable": True}, {"auth": True}),
    "dnsmasq": ({"dnssec": True}, {"stop-dns-rebind": True}),
    "restapi": ({"debug_endpoints": True}, {"cors_enabled": True}),
    "modbus": ({"diagnostics": True}, {"broadcast_enabled": True}),
    "randtarget": ({"telemetry": True}, {"checksums": True}),
}


@pytest.mark.parametrize("name", sorted(_VARIANTS))
class TestStartupMatrix:
    def test_variants_shift_startup_coverage(self, name):
        target_cls = get_target(name).target_cls
        probe = startup_probe_for(target_cls)
        baseline = frozenset(probe({}))
        first = frozenset(probe(_VARIANTS[name][0]))
        second = frozenset(probe(_VARIANTS[name][1]))
        assert first != baseline, name
        assert second != baseline, name
        assert first != second, name

    def test_variants_strictly_extend_baseline(self, name):
        target_cls = get_target(name).target_cls
        probe = startup_probe_for(target_cls)
        baseline = frozenset(probe({}))
        for variant in _VARIANTS[name]:
            sites = frozenset(probe(variant))
            assert sites - baseline, (name, variant)

    def test_probe_is_deterministic(self, name):
        target_cls = get_target(name).target_cls
        probe = startup_probe_for(target_cls)
        variant = _VARIANTS[name][0]
        assert frozenset(probe(variant)) == frozenset(probe(variant))


class TestConflictMatrix:
    """Every target exposes at least one conflicting pair — the signal
    the quantifier maps to 'no edge'."""

    _CONFLICTS = {
        "mosquitto": {"require_certificate": True},
        "libcoap": {"qblock": True},
        "cyclonedds": {"Domain.Internal.WhcLow": 9999},
        "openssl": {"cipher": "PSK-AES128-CBC-SHA"},
        "qpid": {"max-frame-size": 0},
        "dnsmasq": {"min-port": 60000, "max-port": 10},
        "restapi": {"tls_enabled": True},
        "modbus": {"unit_id": 0},
        "randtarget": {"strict_mode": True},
    }

    @pytest.mark.parametrize("name", sorted(_CONFLICTS))
    def test_conflict_raises_startup_error(self, name):
        target_cls = get_target(name).target_cls
        probe = startup_probe_for(target_cls)
        with pytest.raises(StartupError):
            probe(self._CONFLICTS[name])
