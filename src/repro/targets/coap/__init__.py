"""libcoap-style CoAP server target."""

from repro.targets.coap.pit import state_model
from repro.targets.coap.server import LibcoapTarget
from repro.targets.registry import load_manifest, register_target

MANIFEST = load_manifest(__file__)
register_target(MANIFEST.name, LibcoapTarget, state_model, MANIFEST)

__all__ = ["LibcoapTarget", "MANIFEST"]
