"""Mosquitto-style MQTT broker target."""

from repro.targets.mqtt.pit import state_model
from repro.targets.mqtt.server import MosquittoTarget
from repro.targets.registry import load_manifest, register_target

MANIFEST = load_manifest(__file__)
register_target(MANIFEST.name, MosquittoTarget, state_model, MANIFEST)

__all__ = ["MANIFEST", "MosquittoTarget"]
