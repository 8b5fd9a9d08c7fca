"""The parallel-mode registry: one place the mode catalogue lives.

Every scheduler (``peach``, ``spfuzz``, ``cmfuzz``, ``hybrid``,
``plateau``, ``statemap``, …) registers itself from its own module via
:func:`register_mode`; the CLI's ``--mode`` choices,
:func:`repro.api.compare_modes`, the campaign executor and the ablation
benchmarks all derive their mode catalogue from here instead of
enumerating classes by hand. Registering a new mode therefore requires
zero edits outside the mode's module: define the class, call
``register_mode`` at the bottom of the file, and make the file
importable (built-in modules are imported by ``repro.parallel``;
out-of-tree modules load through discovery, below).

Discovery (entry-point style) runs lazily on the first catalogue query:

- every module named in the ``CMFUZZ_MODE_MODULES`` environment variable
  (comma-separated import paths) is imported; importing a mode module
  registers its modes as a side effect;
- ``importlib.metadata`` entry points in the ``repro.modes`` group are
  loaded and registered under their entry-point name.

Registered factories must obey the house invariants: instances they
create carry *picklable* engine factories (checkpoints pickle the whole
loop state as one object graph — closures cannot cross that boundary),
all randomness derives from ``ctx.seed``, and all time from
``ctx.clock`` — so campaigns stay byte-identical across kill-and-resume,
the fault plane, and ``workers=N``.
"""

from __future__ import annotations

import importlib
import os
import threading
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Tuple

#: Environment variable naming extra mode modules (comma-separated
#: import paths) to import during discovery.
DISCOVERY_ENV = "CMFUZZ_MODE_MODULES"

#: ``importlib.metadata`` entry-point group scanned during discovery.
ENTRY_POINT_GROUP = "repro.modes"


@dataclass(frozen=True)
class ModeEntry:
    """One registered scheduler: its name, factory and a one-liner."""

    name: str
    factory: Callable
    description: str = ""


_REGISTRY: Dict[str, ModeEntry] = {}
_discovered = False
_discovering = False
_discover_lock = threading.RLock()


def register_mode(name: str, factory: Callable,
                  description: str = "", replace: bool = False) -> ModeEntry:
    """Register a parallel mode under ``name``.

    Re-registering the *same* factory is a no-op (module re-imports are
    harmless); registering a different factory under a taken name raises
    unless ``replace=True``. Returns the :class:`ModeEntry`.
    """
    if not name or not name.replace("-", "_").isidentifier():
        raise ValueError("mode name must be a non-empty identifier, got %r"
                         % (name,))
    if not callable(factory):
        raise TypeError("mode factory for %r must be callable, got %r"
                        % (name, type(factory).__name__))
    existing = _REGISTRY.get(name)
    if existing is not None and not replace:
        if existing.factory is factory:
            return existing
        raise ValueError(
            "mode %r is already registered to %r (pass replace=True to "
            "override)" % (name, existing.factory))
    if not description:
        description = (getattr(factory, "__doc__", None) or "").strip()
        description = description.splitlines()[0] if description else ""
    entry = ModeEntry(name=name, factory=factory, description=description)
    _REGISTRY[name] = entry
    return entry


def unregister_mode(name: str) -> None:
    """Remove a registration (test hygiene for throwaway modes)."""
    _REGISTRY.pop(name, None)


def _discover() -> None:
    """Import out-of-tree mode modules once (env var + entry points).

    Thread-safe: concurrent catalogue queries (fleet agent threads all
    hitting ``get_mode`` at once) serialize on a lock, and
    ``_discovered`` is only published after the scan completes, so no
    thread can observe a half-populated registry. A mode module that
    calls back into the registry during its own import re-enters on the
    same thread and returns immediately (``_discovering``).
    """
    global _discovered, _discovering
    if _discovered:
        return
    with _discover_lock:
        if _discovered or _discovering:
            return
        _discovering = True
        try:
            _discover_locked()
        finally:
            _discovering = False
            _discovered = True


def _discover_locked() -> None:
    for module_name in os.environ.get(DISCOVERY_ENV, "").split(","):
        module_name = module_name.strip()
        if module_name:
            importlib.import_module(module_name)
    try:
        from importlib import metadata
    except ImportError:  # pragma: no cover - py<3.8 has no importlib.metadata
        return
    try:
        points = metadata.entry_points()
    except Exception:  # pragma: no cover - broken site metadata must not
        return         # take the built-in catalogue down with it
    if hasattr(points, "select"):  # py3.10+
        group = points.select(group=ENTRY_POINT_GROUP)
    else:  # py3.9 returns a plain dict
        group = points.get(ENTRY_POINT_GROUP, ())
    for point in group:
        register_mode(point.name, point.load())


def get_mode(name: str) -> ModeEntry:
    """Look up one registration; raises ``KeyError`` naming the catalogue."""
    _discover()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError("unknown mode %r; registered modes: %s"
                       % (name, ", ".join(sorted(_REGISTRY)) or "<none>"))


def create_mode(name: str, **kwargs):
    """Instantiate the mode registered under ``name``."""
    return get_mode(name).factory(**kwargs)


def mode_names() -> Tuple[str, ...]:
    """All registered mode names, sorted."""
    _discover()
    return tuple(sorted(_REGISTRY))


def mode_entries() -> Tuple[ModeEntry, ...]:
    """All registrations, sorted by name."""
    _discover()
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def render_mode_table() -> str:
    """The mode catalogue as a markdown table (README regenerates from
    this via ``python -m repro modes``)."""
    rows = [("`%s`" % entry.name, entry.description)
            for entry in mode_entries()]
    width = max(len("Mode"), *(len(name) for name, _ in rows)) if rows else 4
    lines = ["| %-*s | Description |" % (width, "Mode"),
             "|%s|-------------|" % ("-" * (width + 2))]
    lines.extend("| %-*s | %s |" % (width, name, description)
                 for name, description in rows)
    return "\n".join(lines)


class _ModesView(Mapping):
    """Live read-only ``name -> factory`` view over the registry.

    Exported as ``repro.parallel.MODES`` so every pre-registry call site
    (``MODES[name](**kwargs)``, ``name in MODES``, ``sorted(MODES)``)
    keeps working while drawing from the single catalogue.
    """

    def __getitem__(self, name: str) -> Callable:
        return get_mode(name).factory

    def __iter__(self) -> Iterator[str]:
        return iter(mode_names())

    def __len__(self) -> int:
        _discover()
        return len(_REGISTRY)

    def __repr__(self) -> str:
        return "MODES(%s)" % ", ".join(mode_names())


#: The single shared mapping view (``repro.parallel.MODES``).
MODES = _ModesView()
