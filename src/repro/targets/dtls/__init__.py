"""OpenSSL-style DTLS server target."""

from repro.targets.dtls.pit import state_model
from repro.targets.dtls.server import OpenSslDtlsTarget
from repro.targets.registry import load_manifest, register_target

MANIFEST = load_manifest(__file__)
register_target(MANIFEST.name, OpenSslDtlsTarget, state_model, MANIFEST)

__all__ = ["MANIFEST", "OpenSslDtlsTarget"]
