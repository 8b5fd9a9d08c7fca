"""Qpid-style AMQP 1.0 broker target."""

from repro.targets.amqp.pit import state_model
from repro.targets.amqp.server import QpidTarget
from repro.targets.registry import load_manifest, register_target

MANIFEST = load_manifest(__file__)
register_target(MANIFEST.name, QpidTarget, state_model, MANIFEST)

__all__ = ["MANIFEST", "QpidTarget"]
