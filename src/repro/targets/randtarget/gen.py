"""A seeded, property-generated target family.

``make_random_target(seed)`` derives a complete protocol target — opcode
table, configuration surface, coverage sites and injected-bug triggers —
from a single integer seed. All randomness happens at *generation* time
(``random.Random(seed)``); the generated target itself is fully
deterministic, so campaigns over family members reproduce byte-for-byte
like any hand-written target.

Generated classes are anchored in this module's globals under a
deterministic qualified name (``RandTarget_<seed>``) so they pickle by
reference across worker processes and checkpoints. ``state_model``
factories are :func:`functools.partial` applications of the module-level
:func:`build_state_model`, which pickle the same way.
"""

from __future__ import annotations

import functools
import random
from typing import Any, Dict, Tuple

from repro.core.entity import Flag
from repro.core.extraction import ConfigSources
from repro.errors import StartupError
from repro.fuzzing.datamodel import Blob, DataModel, Number
from repro.fuzzing.statemodel import Action, State, StateModel
from repro.targets.base import ProtocolTarget
from repro.targets.faults import FaultKind, SanitizerFault

DEFAULT_SEED = 77

#: Fixed vocabularies — site names are always drawn from these pools, so
#: the coverage site space of every family member stays bounded.
_FEATURE_POOL = ("checksums", "compat_shim", "fast_scan", "deep_recurse",
                 "mirror_mode", "legacy_frames", "batch_mode", "telemetry")
_OP_POOL = ("ping", "query", "store", "fetch", "walk", "batch",
            "reset", "stat", "echo", "probe")
_BEHAVIOR_POOL = ("echo", "sum", "store", "fetch")


def generate_spec(seed: int) -> Dict[str, Any]:
    """Derive the full target specification for ``seed`` (pure function)."""
    rng = random.Random(seed)
    magic = rng.randrange(1, 255)
    features = tuple(sorted(rng.sample(_FEATURE_POOL, rng.randint(4, 6))))
    count = rng.randint(5, 8)
    codes = rng.sample(range(1, 240), count)
    names = rng.sample(_OP_POOL, count)
    ops: Dict[int, Tuple[str, str]] = {}
    for index, (code, name) in enumerate(zip(codes, names)):
        if index == 0:
            behavior = "scan"
        elif index == 1:
            behavior = "recurse"
        else:
            behavior = rng.choice(_BEHAVIOR_POOL)
        ops[code] = (name, behavior)
    ghost = rng.choice([c for c in range(1, 240) if c not in ops])
    spec = {
        "seed": seed,
        "magic": magic,
        "ops": ops,
        "features": features,
        "scan_window": rng.choice((32, 48, 64)),
        "max_depth": rng.choice((4, 6, 8)),
        # Bug gates: each fixed bug hides behind one seed-chosen feature.
        "ghost_opcode": ghost,
        "dispatch_feature": rng.choice(features),
        "dispatch_byte": rng.randrange(0, 256),
        "scan_feature": rng.choice(features),
        "recurse_feature": rng.choice(features),
        "port": 9000 + seed % 1000,
    }
    return spec


def _config_file(spec: Dict[str, Any]) -> str:
    lines = ["# randtarget.conf - generated surface (seed %d)" % spec["seed"],
             "port %d" % spec["port"],
             "strict_mode false",
             "paranoia 0",
             "scan_window %d" % spec["scan_window"],
             "max_depth %d" % spec["max_depth"]]
    lines += ["%s false" % feature for feature in spec["features"]]
    return "\n".join(lines) + "\n"


def _default_config(spec: Dict[str, Any]) -> Dict[str, Any]:
    config = {
        "port": spec["port"],
        "strict_mode": False,
        "paranoia": 0,
        "scan_window": spec["scan_window"],
        "max_depth": spec["max_depth"],
    }
    for feature in spec["features"]:
        config[feature] = False
    return config


def config_key_count(seed: int) -> int:
    """Number of configuration keys a family member exposes."""
    return len(_default_config(generate_spec(seed)))


class _RandTargetBase(ProtocolTarget):
    """Shared machinery; concrete members carry a ``SPEC`` class attr."""

    SPEC: Dict[str, Any] = {}

    @classmethod
    def config_sources(cls) -> ConfigSources:
        return ConfigSources(
            files=(("randtarget.conf", _config_file(cls.SPEC)),))

    @classmethod
    def entity_overrides(cls):
        spec = cls.SPEC
        return {
            "scan_window": {"values": (spec["scan_window"], 16),
                            "flag": Flag.MUTABLE},
            "max_depth": {"values": (spec["max_depth"], 2),
                          "flag": Flag.MUTABLE},
        }

    @classmethod
    def default_config(cls) -> Dict[str, Any]:
        return _default_config(cls.SPEC)

    # -- lifecycle -------------------------------------------------------

    def _startup_impl(self) -> None:
        cov = self.cov
        cov.hit("startup.enter")
        if self.enabled("strict_mode") and int(self.cfg("paranoia")) < 1:
            cov.hit("startup.conflict.strict_mode")
            raise StartupError("strict_mode requires paranoia >= 1",
                               ("strict_mode", "paranoia"))
        if int(self.cfg("scan_window")) <= 0:
            cov.hit("startup.conflict.scan_window")
            raise StartupError("scan_window must be positive",
                               ("scan_window",))
        if int(self.cfg("max_depth")) <= 0:
            cov.hit("startup.conflict.max_depth")
            raise StartupError("max_depth must be positive", ("max_depth",))
        for feature in self.SPEC["features"]:
            if cov.branch("startup.%s" % feature, self.enabled(feature)):
                cov.hit("startup.%s_armed" % feature)
        if cov.branch("startup.paranoid", int(self.cfg("paranoia")) > 0):
            cov.hit("startup.paranoia_checks")
        self._store: Dict[int, bytes] = {}
        cov.hit("startup.complete")

    def reset_session(self) -> None:
        pass

    # -- protocol --------------------------------------------------------

    def handle_packet(self, data: bytes) -> bytes:
        self.require_started()
        cov = self.cov
        spec = self.SPEC
        if cov.branch("frame.short", len(data) < 3):
            cov.hit("frame.malformed")
            return b"\xff\x01"
        if cov.branch("frame.bad_magic", data[0] != spec["magic"]):
            cov.hit("frame.malformed")
            return b"\xff\x02"
        opcode, declared = data[1], data[2]
        payload = data[3:]
        if cov.branch("frame.length_mismatch", declared != len(payload)):
            if not self.enabled("legacy_frames") or "legacy_frames" not in spec["features"]:
                cov.hit("frame.malformed")
                return b"\xff\x03"
            cov.hit("frame.legacy_length")
        entry = spec["ops"].get(opcode)
        if entry is None:
            return self._unknown(opcode, payload)
        name, behavior = entry
        cov.hit("op.%s" % name)
        return getattr(self, "_op_" + behavior)(name, payload)

    def _unknown(self, opcode: int, payload: bytes) -> bytes:
        cov = self.cov
        spec = self.SPEC
        cov.hit("op.unknown")
        if cov.branch("op.ghost_slot", opcode == spec["ghost_opcode"]):
            if (self.enabled(spec["dispatch_feature"]) and payload
                    and payload[0] == spec["dispatch_byte"]):
                # Bug #1: the ghost opcode's handler was removed but its
                # jump-table slot survives; dispatching through it jumps
                # to a stale pointer.
                raise SanitizerFault(
                    FaultKind.SEGV,
                    "rt_dispatch",
                    "stale jump-table slot for opcode 0x%02x" % opcode,
                )
            cov.hit("op.ghost_probe")
        return b"\xff\x04"

    # -- behaviors -------------------------------------------------------

    def _op_echo(self, name: str, payload: bytes) -> bytes:
        if payload:
            self.cov.hit("op.%s.nonempty" % name)
        return b"\x00" + payload[:64]

    def _op_sum(self, name: str, payload: bytes) -> bytes:
        total = sum(payload) & 0xFFFF
        if self.cov.branch("op.%s.overflow16" % name, sum(payload) > 0xFFFF):
            self.cov.hit("op.%s.wrapped" % name)
        return b"\x00" + total.to_bytes(2, "big")

    def _op_store(self, name: str, payload: bytes) -> bytes:
        cov = self.cov
        if cov.branch("op.%s.empty" % name, len(payload) < 2):
            return b"\xff\x05"
        self._store[payload[0]] = payload[1:17]
        if cov.branch("op.%s.full" % name, len(self._store) > 32):
            self._store.clear()
            cov.hit("op.%s.evicted" % name)
        return b"\x00\x01"

    def _op_fetch(self, name: str, payload: bytes) -> bytes:
        cov = self.cov
        if cov.branch("op.%s.empty" % name, not payload):
            return b"\xff\x05"
        value = self._store.get(payload[0])
        if cov.branch("op.%s.miss" % name, value is None):
            return b"\x00\x00"
        return b"\x00" + value

    def _op_scan(self, name: str, payload: bytes) -> bytes:
        cov = self.cov
        spec = self.SPEC
        window = int(self.cfg("scan_window"))
        if cov.branch("op.%s.window_exceeded" % name, len(payload) > window):
            if self.enabled(spec["scan_feature"]):
                # Bug #2: the vectorised fast-scan path rounds the scan
                # length up to the window size and reads past the buffer.
                raise SanitizerFault(
                    FaultKind.HEAP_BUFFER_OVERFLOW,
                    "rt_scan_window",
                    "%d-byte scan over a %d-byte window"
                    % (len(payload), window),
                )
            cov.hit("op.%s.window_clamped" % name)
            payload = payload[:window]
        matches = payload.count(b"\x00")
        if matches:
            cov.hit("op.%s.matched" % name)
        return b"\x00" + bytes([min(matches, 255)])

    def _op_recurse(self, name: str, payload: bytes) -> bytes:
        cov = self.cov
        spec = self.SPEC
        depth = payload[0] if payload else 0
        limit = int(self.cfg("max_depth"))
        if cov.branch("op.%s.deep" % name, depth > limit):
            if self.enabled(spec["recurse_feature"]) and depth > limit * 8:
                # Bug #3: the depth clamp is skipped on the optimised
                # path, and each level pushes a frame-local buffer.
                raise SanitizerFault(
                    FaultKind.STACK_BUFFER_OVERFLOW,
                    "rt_recurse",
                    "recursion depth %d over limit %d" % (depth, limit),
                )
            cov.hit("op.%s.clamped" % name)
            depth = limit
        if cov.branch("op.%s.leaf" % name, depth == 0):
            return b"\x00\x00"
        return b"\x00" + bytes([depth])


def make_random_target(seed: int = DEFAULT_SEED):
    """Build (or return the cached) target class for ``seed``."""
    qualname = "RandTarget_%d" % seed
    existing = globals().get(qualname)
    if existing is not None:
        return existing
    spec = generate_spec(seed)
    cls = type(qualname, (_RandTargetBase,), {
        "NAME": "randtarget" if seed == DEFAULT_SEED else "randtarget_%d" % seed,
        "PROTOCOL": "GEN",
        "PORT": spec["port"],
        "SPEC": spec,
        "__doc__": "Generated protocol target (seed %d)." % seed,
    })
    cls.__module__ = __name__
    cls.__qualname__ = qualname
    globals()[qualname] = cls
    return cls


def build_state_model(seed: int) -> StateModel:
    """Pit for the family member at ``seed`` — one message per opcode."""
    spec = generate_spec(seed)
    magic = spec["magic"]
    data_models = []
    op_names = []
    for code, (name, behavior) in sorted(spec["ops"].items()):
        if behavior == "scan":
            payload = b"\x00scan\x00me\x00"
        elif behavior == "recurse":
            payload = bytes([max(spec["max_depth"] - 1, 1)])
        elif behavior == "store":
            payload = b"\x07stored-value"
        elif behavior == "fetch":
            payload = b"\x07"
        elif behavior == "sum":
            payload = b"\x10\x20\x30\x40"
        else:
            payload = b"hello-generated-world"
        model_name = "Op" + name.capitalize()
        op_names.append(model_name)
        data_models.append(DataModel(model_name, [
            Number("magic", bits=8, default=magic),
            Number("opcode", bits=8, default=code),
            Number("length", bits=8, default=len(payload)),
            Blob("payload", default=payload),
        ]))
    data_models.append(DataModel("Runt", [
        Blob("fragment", default=bytes([magic])),
    ]))
    # Split the opcode messages over two mid states for path diversity.
    half = (len(op_names) + 1) // 2
    states = [
        State("start")
        .add_transition("front", 3.0)
        .add_transition("back", 2.0)
        .add_transition("noise", 0.5),
        State("front", [Action("send", n) for n in op_names[:half]])
        .add_transition("back", 1.0)
        .add_transition("finish", 2.0),
        State("back", [Action("send", n) for n in op_names[half:]])
        .add_transition("finish", 1.0),
        State("noise", [Action("send", "Runt")])
        .add_transition("finish", 1.0),
        State("finish"),
    ]
    return StateModel("randtarget-%d-session" % seed, "start", states,
                      data_models)


def state_model() -> StateModel:
    """The default family member's pit (seed ``DEFAULT_SEED``)."""
    return build_state_model(DEFAULT_SEED)


def register_family_member(seed: int, *, replace: bool = False) -> str:
    """Generate and register the family member for ``seed``.

    Returns the registered target name. The default seed maps to the
    in-tree ``randtarget`` entry; other seeds get ``randtarget_<seed>``.
    """
    from repro.targets.registry import register_target

    cls = make_random_target(seed)
    spec = cls.SPEC
    manifest = {
        "name": cls.NAME,
        "protocol": "GEN",
        "description": "Property-generated protocol target (seed %d): "
                       "%d opcodes, %d feature gates." % (
                           seed, len(spec["ops"]), len(spec["features"])),
        "port": spec["port"],
        "config_surface": {
            "format": "key-value file (randtarget.conf)",
            "keys": config_key_count(seed),
        },
        "bugs": [
            {"id": 1, "kind": FaultKind.SEGV.value, "site": "rt_dispatch",
             "trigger": "stale jump-table slot dispatched with the "
                        "trigger byte under %s" % spec["dispatch_feature"]},
            {"id": 2, "kind": FaultKind.HEAP_BUFFER_OVERFLOW.value,
             "site": "rt_scan_window",
             "trigger": "scan longer than scan_window on the fast path "
                        "under %s" % spec["scan_feature"]},
            {"id": 3, "kind": FaultKind.STACK_BUFFER_OVERFLOW.value,
             "site": "rt_recurse",
             "trigger": "recursion depth 8x over max_depth under "
                        "%s" % spec["recurse_feature"]},
        ],
    }
    register_target(cls.NAME, cls, functools.partial(build_state_model, seed),
                    manifest, replace=replace)
    return cls.NAME


#: The default family member, generated at import time.
RandTarget = make_random_target(DEFAULT_SEED)
