"""The target plugin registry: one place the target catalogue lives.

A target is a *directory with a manifest*: a subpackage carrying a
``target.json`` file (protocol, description, config-surface summary,
injected-bug table) next to its implementation modules and its pit. The
package's ``__init__`` loads and validates the manifest and calls
:func:`register_target` with the target class and the pit's state-model
factory (the one place the pit is declared) — and every consumer derives
its catalogue from here: the CLI's ``--target`` choices and ``python -m repro targets``
table, :func:`repro.api` name resolution, the campaign executor's spec
reconstruction, the probe pool's worker body, the experiment drivers and
the benchmarks. Adding a target therefore requires zero edits outside
its own directory (pinned by ``tests/targets/test_registry.py``).

Discovery runs lazily on the first catalogue query, through the shared
:class:`repro.registry.Registry`:

- every subdirectory of ``repro/targets/`` that carries a ``target.json``
  is imported as ``repro.targets.<dirname>`` (importing the package
  registers its target as a side effect) — dropping a new directory into
  the tree is the whole installation step;
- every module named in the ``CMFUZZ_TARGET_MODULES`` environment
  variable (comma-separated import paths) is imported — the out-of-tree
  path for targets living anywhere on ``sys.path``;
- ``importlib.metadata`` entry points in the ``repro.targets`` group are
  loaded (loading the module registers; a loaded callable is called with
  no arguments so a factory module can finish its own registration).

Registered targets must obey the house invariants: the target class and
the state-model factory are importable module-level objects (campaign
specs cross process boundaries by *name* and checkpoints pickle engine
state whole, so closures cannot be registered), all behaviour is a pure
function of configuration + inbound bytes, and coverage sites never
embed attacker-controlled data. The golden-parity, robustness and storm
suites enumerate every registered target, so a new registration is
automatically held to them.
"""

from __future__ import annotations

import importlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.registry import Registry

#: Environment variable naming extra target modules (comma-separated
#: import paths) to import during discovery.
DISCOVERY_ENV = "CMFUZZ_TARGET_MODULES"

#: ``importlib.metadata`` entry-point group scanned during discovery.
ENTRY_POINT_GROUP = "repro.targets"

#: The manifest file a target directory must carry.
MANIFEST_NAME = "target.json"


class ManifestError(ValueError):
    """A ``target.json`` manifest is missing, unreadable or malformed."""


@dataclass(frozen=True)
class InjectedBug:
    """One row of a target's injected-bug ledger (its Table II slice)."""

    id: int
    kind: str
    site: str
    trigger: str


@dataclass(frozen=True)
class TargetManifest:
    """The validated contents of one ``target.json``.

    Attributes:
        name: Registry name (``"dnsmasq"``).
        protocol: Protocol label as used in crash signatures (``"DNS"``).
        description: One-line summary (catalogue tables show it).
        port: Default listen port.
        config_surface: Summary of the configuration surface — at least
            ``format`` (how the sources are expressed: ``key-value``,
            ``cli-options``, ``custom-directives``, ...) and ``keys``
            (how many configuration items the default surface carries).
        bugs: The injected-bug table.
    """

    name: str
    protocol: str
    description: str
    port: int
    config_surface: Dict[str, Any]
    bugs: Tuple[InjectedBug, ...] = ()


_REQUIRED_KEYS = ("name", "protocol", "description", "port",
                  "config_surface")
_ALLOWED_KEYS = frozenset(_REQUIRED_KEYS) | {"bugs"}
_BUG_KEYS = ("id", "kind", "site", "trigger")


def _manifest_error(origin: str, message: str) -> ManifestError:
    return ManifestError("%s: %s" % (origin, message))


def validate_manifest(raw: Any, origin: str = MANIFEST_NAME) -> TargetManifest:
    """Schema-validate a decoded manifest and freeze it.

    Raises :class:`ManifestError` naming the offending field; the origin
    (usually the manifest path) prefixes every message.
    """
    if not isinstance(raw, dict):
        raise _manifest_error(origin, "manifest must be a JSON object, got %s"
                              % type(raw).__name__)
    unknown = sorted(set(raw) - _ALLOWED_KEYS)
    if unknown:
        raise _manifest_error(origin, "unknown manifest keys: %s"
                              % ", ".join(unknown))
    missing = [key for key in _REQUIRED_KEYS if key not in raw]
    if missing:
        raise _manifest_error(origin, "missing manifest keys: %s"
                              % ", ".join(missing))
    for key in ("name", "protocol", "description"):
        value = raw[key]
        if not isinstance(value, str) or not value.strip():
            raise _manifest_error(origin, "%r must be a non-empty string, "
                                  "got %r" % (key, value))
    name = raw["name"]
    if not name.replace("-", "_").isidentifier():
        raise _manifest_error(origin, "'name' must be an identifier-like "
                              "token, got %r" % name)
    port = raw["port"]
    if isinstance(port, bool) or not isinstance(port, int) or \
            not 0 < port < 65536:
        raise _manifest_error(origin, "'port' must be an int in (0, 65536), "
                              "got %r" % (port,))
    surface = raw["config_surface"]
    if not isinstance(surface, dict):
        raise _manifest_error(origin, "'config_surface' must be an object, "
                              "got %r" % (surface,))
    if not isinstance(surface.get("format"), str) or not surface["format"]:
        raise _manifest_error(origin, "'config_surface.format' must be a "
                              "non-empty string, got %r"
                              % (surface.get("format"),))
    keys = surface.get("keys")
    if isinstance(keys, bool) or not isinstance(keys, int) or keys <= 0:
        raise _manifest_error(origin, "'config_surface.keys' must be a "
                              "positive int, got %r" % (keys,))
    bugs = []
    for index, entry in enumerate(raw.get("bugs", ())):
        if not isinstance(entry, dict) or \
                sorted(entry) != sorted(_BUG_KEYS):
            raise _manifest_error(origin, "bugs[%d] must be an object with "
                                  "exactly the keys %s, got %r"
                                  % (index, "/".join(_BUG_KEYS), entry))
        if isinstance(entry["id"], bool) or not isinstance(entry["id"], int):
            raise _manifest_error(origin, "bugs[%d].id must be an int, got "
                                  "%r" % (index, entry["id"]))
        for key in ("kind", "site", "trigger"):
            if not isinstance(entry[key], str) or not entry[key]:
                raise _manifest_error(origin, "bugs[%d].%s must be a "
                                      "non-empty string, got %r"
                                      % (index, key, entry[key]))
        bugs.append(InjectedBug(id=entry["id"], kind=entry["kind"],
                                site=entry["site"], trigger=entry["trigger"]))
    return TargetManifest(
        name=name, protocol=raw["protocol"],
        description=" ".join(raw["description"].split()), port=port,
        config_surface=dict(surface), bugs=tuple(bugs),
    )


def load_manifest(where: str) -> TargetManifest:
    """Load and validate the ``target.json`` next to ``where``.

    ``where`` is a directory or any file inside it (pass ``__file__``
    from the target package's ``__init__``).
    """
    directory = where if os.path.isdir(where) else os.path.dirname(
        os.path.abspath(where))
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as error:
        raise _manifest_error(path, "cannot read manifest: %s" % error)
    except ValueError as error:
        raise _manifest_error(path, "invalid JSON: %s" % error)
    return validate_manifest(raw, origin=path)


@dataclass(frozen=True)
class TargetEntry:
    """One registered target: class, state-model factory and manifest."""

    name: str
    target_cls: Callable
    state_model: Callable
    manifest: TargetManifest
    description: str = ""

    @property
    def protocol(self) -> str:
        return self.manifest.protocol

    @property
    def port(self) -> int:
        return self.manifest.port


def register_target(name: str, target_cls: Callable,
                    state_model: Callable,
                    manifest: TargetManifest,
                    replace: bool = False) -> TargetEntry:
    """Register a protocol target under ``name``.

    Re-registering the *same* class/state-model pair is a no-op (module
    re-imports are harmless); registering a different implementation
    under a taken name raises unless ``replace=True``. The manifest is
    cross-checked against the class (name, protocol, port must agree) so
    a stale ``target.json`` fails loudly at registration, not mid-
    campaign. Returns the :class:`TargetEntry`.
    """
    REGISTRY.check_name(name)
    if not callable(target_cls):
        raise TypeError("target class for %r must be callable, got %r"
                        % (name, type(target_cls).__name__))
    if not callable(state_model):
        raise TypeError("state-model factory for %r must be callable, got %r"
                        % (name, type(state_model).__name__))
    if isinstance(manifest, dict):
        manifest = validate_manifest(manifest, origin="<manifest for %s>" % name)
    if not isinstance(manifest, TargetManifest):
        raise TypeError("manifest for %r must be a TargetManifest or dict, "
                        "got %r" % (name, type(manifest).__name__))
    if manifest.name != name:
        raise ManifestError("manifest names %r but is being registered as %r"
                            % (manifest.name, name))
    cls_protocol = getattr(target_cls, "PROTOCOL", manifest.protocol)
    if cls_protocol != manifest.protocol:
        raise ManifestError(
            "manifest for %r declares protocol %r but the class carries %r"
            % (name, manifest.protocol, cls_protocol))
    cls_port = getattr(target_cls, "PORT", manifest.port)
    if cls_port != manifest.port:
        raise ManifestError(
            "manifest for %r declares port %r but the class carries %r"
            % (name, manifest.port, cls_port))
    entry = TargetEntry(name=name, target_cls=target_cls,
                        state_model=state_model, manifest=manifest,
                        description=manifest.description)
    return REGISTRY.add(name, entry, same=("target_cls", "state_model"),
                        replace=replace)


def unregister_target(name: str) -> None:
    """Remove a registration (test hygiene for throwaway targets)."""
    REGISTRY.remove(name)


def _package_directory_targets() -> Tuple[str, ...]:
    """Subpackages of ``repro.targets`` carrying a ``target.json``."""
    root = os.path.dirname(os.path.abspath(__file__))
    found = []
    try:
        entries = sorted(os.listdir(root))
    except OSError:  # pragma: no cover - a broken install
        return ()
    for entry in entries:
        if os.path.isfile(os.path.join(root, entry, MANIFEST_NAME)):
            found.append(entry)
    return tuple(found)


def _import_package_directories() -> None:
    for subdir in _package_directory_targets():
        importlib.import_module("repro.targets.%s" % subdir)


def _load_entry_point(point) -> None:
    loaded = point.load()
    # Loading the module usually registers as a side effect; a callable
    # entry point gets to finish its own registration.
    if callable(loaded) and not isinstance(loaded, type):
        loaded()


#: The target catalogue.
REGISTRY = Registry("target", DISCOVERY_ENV, ENTRY_POINT_GROUP,
                    _load_entry_point,
                    before_discovery=_import_package_directories)


def get_target(name: str) -> TargetEntry:
    """Look up one registration; raises ``KeyError`` naming the catalogue."""
    return REGISTRY.get(name)


def create_target(name: str, **kwargs):
    """Instantiate the target registered under ``name``."""
    return get_target(name).target_cls(**kwargs)


def target_names() -> Tuple[str, ...]:
    """All registered target names, sorted."""
    return REGISTRY.names()


def target_entries() -> Tuple[TargetEntry, ...]:
    """All registrations, sorted by name."""
    return REGISTRY.entries()


def render_target_table() -> str:
    """The target catalogue as a markdown table (README regenerates from
    this via ``python -m repro targets``)."""
    rows = [
        ("`%s`" % entry.name, entry.protocol, str(entry.port),
         str(entry.manifest.config_surface.get("keys", "")),
         str(len(entry.manifest.bugs)), entry.description)
        for entry in target_entries()
    ]
    headers = ("Target", "Protocol", "Port", "Config keys", "Bugs",
               "Description")
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells):
        return "| %s |" % " | ".join(
            "%-*s" % (widths[i], cells[i]) for i in range(len(headers)))

    out = [line(headers),
           "|%s|" % "|".join("-" * (width + 2) for width in widths)]
    out.extend(line(row) for row in rows)
    return "\n".join(out)
