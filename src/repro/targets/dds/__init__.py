"""CycloneDDS-style DDS/RTPS target."""

from repro.targets.dds.pit import state_model
from repro.targets.dds.server import CycloneDdsTarget
from repro.targets.registry import load_manifest, register_target

MANIFEST = load_manifest(__file__)
register_target(MANIFEST.name, CycloneDdsTarget, state_model, MANIFEST)

__all__ = ["CycloneDdsTarget", "MANIFEST"]
