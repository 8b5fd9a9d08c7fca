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

Discovery (entry-point style) runs lazily on the first catalogue query,
through the shared :class:`repro.registry.Registry`:

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

from dataclasses import dataclass
from typing import Callable, Tuple

from repro.registry import Registry

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


def _load_entry_point(point) -> None:
    register_mode(point.name, point.load())


#: The mode catalogue.
REGISTRY = Registry("mode", DISCOVERY_ENV, ENTRY_POINT_GROUP,
                    _load_entry_point)


def register_mode(name: str, factory: Callable,
                  description: str = "", replace: bool = False) -> ModeEntry:
    """Register a parallel mode under ``name``.

    Re-registering the *same* factory is a no-op (module re-imports are
    harmless); registering a different factory under a taken name raises
    unless ``replace=True``. Returns the :class:`ModeEntry`.
    """
    REGISTRY.check_name(name)
    if not callable(factory):
        raise TypeError("mode factory for %r must be callable, got %r"
                        % (name, type(factory).__name__))
    if not description:
        description = (getattr(factory, "__doc__", None) or "").strip()
        description = description.splitlines()[0] if description else ""
    entry = ModeEntry(name=name, factory=factory, description=description)
    return REGISTRY.add(name, entry, same=("factory",), replace=replace)


def unregister_mode(name: str) -> None:
    """Remove a registration (test hygiene for throwaway modes)."""
    REGISTRY.remove(name)


def get_mode(name: str) -> ModeEntry:
    """Look up one registration; raises ``KeyError`` naming the catalogue."""
    return REGISTRY.get(name)


def create_mode(name: str, **kwargs):
    """Instantiate the mode registered under ``name``."""
    return get_mode(name).factory(**kwargs)


def mode_names() -> Tuple[str, ...]:
    """All registered mode names, sorted."""
    return REGISTRY.names()


def mode_entries() -> Tuple[ModeEntry, ...]:
    """All registrations, sorted by name."""
    return REGISTRY.entries()


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
