"""Dnsmasq-style DNS server target."""

from repro.targets.dns.pit import state_model
from repro.targets.dns.server import DnsmasqTarget
from repro.targets.registry import load_manifest, register_target

MANIFEST = load_manifest(__file__)
register_target(MANIFEST.name, DnsmasqTarget, state_model, MANIFEST)

__all__ = ["DnsmasqTarget", "MANIFEST"]
