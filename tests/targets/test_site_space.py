"""Branch-site space invariants.

Coverage sites must form a *bounded* space: a site name must never embed
attacker-controlled data (topic strings, random ids), or coverage counts
inflate without meaning. These sweeps fuzz each target hard and assert
the discovered site space stays bounded and well-formed.
"""

import pytest

from repro.fuzzing.engine import DirectTransport, FuzzEngine
from repro.targets import get_target

#: Generous per-target ceilings (roughly 3x what campaigns reach).
_SITE_CEILINGS = {
    "mosquitto": 700,
    "libcoap": 500,
    "cyclonedds": 500,
    "openssl": 400,
    "qpid": 400,
    "dnsmasq": 450,
    "restapi": 400,
    "modbus": 300,
    "randtarget": 250,
}

_RICH_CONFIGS = {
    "mosquitto": {"persistence": True, "bridge_enabled": True, "log_type": "all",
                  "queue_qos0_messages": True, "tls_enabled": True,
                  "listener_ws": True},
    "libcoap": {"block-transfer": True, "qblock": True, "observe": True,
                "dtls": True, "psk": "k", "multicast": True},
    "cyclonedds": {"Domain.Tracing.Verbosity": "finest",
                   "Domain.Internal.RetransmitMerging": "adaptive"},
    "openssl": {"cookie-exchange": True, "session-cache": True, "dtls1_2": True},
    "qpid": {"auth": True, "durable": True, "mech-list": "ANONYMOUS PLAIN"},
    "dnsmasq": {"log-queries": True, "dnssec": True, "stop-dns-rebind": True,
                "filterwin2k": True, "bogus-priv": True, "domain-needed": True},
    "restapi": {"auth_required": True, "auth_token": "secret",
                "cors_enabled": True, "debug_endpoints": True,
                "keepalive": True, "url_decode": True, "rate_limit": 4,
                "firmware_upload": True, "compress_responses": True},
    "modbus": {"diagnostics": True, "broadcast_enabled": True,
               "trace_frames": True, "exception_verbose": True,
               "accept_any_unit": True, "strict_length": False,
               "word_order": "little"},
    "randtarget": {"telemetry": True, "checksums": True, "batch_mode": True,
                   "compat_shim": True, "legacy_frames": True, "paranoia": 1},
}


def _hammer(name, config, iterations=3000, seed=0):
    target = get_target(name).target_cls()
    target.startup(config)
    engine = FuzzEngine(get_target(name).state_model(), DirectTransport(target),
                        target.cov, seed=seed)
    for _ in range(iterations):
        result = engine.run_iteration()
        if result.fault:
            target.reset_session()
    return target


@pytest.mark.parametrize("name", sorted(_SITE_CEILINGS))
class TestSiteSpace:
    def test_site_space_bounded(self, name):
        target = _hammer(name, _RICH_CONFIGS[name], seed=1)
        assert len(target.cov.total) < _SITE_CEILINGS[name], len(target.cov.total)

    def test_sites_are_component_prefixed(self, name):
        target = _hammer(name, {}, iterations=500, seed=2)
        prefix = target.NAME + ":"
        for site in target.cov.total:
            assert site.startswith(prefix), site

    def test_site_names_have_no_whitespace_or_binary(self, name):
        target = _hammer(name, _RICH_CONFIGS[name], iterations=1500, seed=3)
        for site in target.cov.total:
            assert site == site.strip()
            assert all(32 < ord(ch) < 127 for ch in site), site
