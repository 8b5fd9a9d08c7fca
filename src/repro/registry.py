"""One catalogue mechanism for every plugin kind (modes, targets).

A :class:`Registry` maps names to frozen entries and discovers
out-of-tree registrations lazily, on the first catalogue query:

1. the optional ``before_discovery`` hook runs (the target catalogue
   imports its in-tree plugin directories here);
2. every module named in the registry's environment variable
   (comma-separated import paths) is imported; importing a plugin module
   registers its entries as a side effect;
3. every ``importlib.metadata`` entry point in the registry's group is
   handed to its ``load_point`` rule.

Discovery is thread-safe. Concurrent queries (fleet agent threads all
looking up a mode at once) serialize on one lock, and the discovered
flag is only published after the scan completes, so no thread observes
a half-populated catalogue. A plugin module that calls back into the
registry during its own import re-enters on the same thread and returns
immediately.

Re-registering the same implementation is a no-op, so module re-imports
are harmless; a different implementation under a taken name raises
unless the caller passes ``replace=True``.
"""

from __future__ import annotations

import importlib
import os
import threading
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple


def _entry_points(group: str) -> Iterable[Any]:
    try:
        from importlib import metadata
    except ImportError:  # pragma: no cover - py<3.8 has no importlib.metadata
        return ()
    try:
        points = metadata.entry_points()
    except Exception:  # noqa: BLE001 - broken site metadata must not  # pragma: no cover
        return ()      # take the built-in catalogue down with it
    if hasattr(points, "select"):  # py3.10+
        return points.select(group=group)
    return points.get(group, ())  # py3.9 returns a plain dict


class Registry:
    """A thread-safe, lazily discovered ``name -> entry`` catalogue.

    Args:
        kind: What the catalogue holds (``"mode"``), used in messages.
        env_var: Environment variable naming extra modules to import.
        group: ``importlib.metadata`` entry-point group to scan.
        load_point: Called with each entry point found in ``group``.
        before_discovery: Called first during discovery, if given.
    """

    def __init__(self, kind: str, env_var: str, group: str,
                 load_point: Callable[[Any], None],
                 before_discovery: Optional[Callable[[], None]] = None):
        self.kind = kind
        self.env_var = env_var
        self.group = group
        self._load_point = load_point
        self._before_discovery = before_discovery
        self._entries: Dict[str, Any] = {}
        self._discovered = False
        self._discovering = False
        self._lock = threading.RLock()

    def check_name(self, name: str) -> None:
        if not name or not name.replace("-", "_").isidentifier():
            raise ValueError("%s name must be a non-empty identifier, got %r"
                             % (self.kind, name))

    def add(self, name: str, entry: Any, same: Sequence[str],
            replace: bool = False) -> Any:
        """Register ``entry`` under ``name`` and return the live entry.

        ``same`` names the entry fields whose identity makes a
        re-registration a no-op; the first names the holder in the
        conflict message.
        """
        existing = self._entries.get(name)
        if existing is not None and not replace:
            if all(getattr(existing, key) is getattr(entry, key)
                   for key in same):
                return existing
            raise ValueError(
                "%s %r is already registered to %r (pass replace=True to "
                "override)" % (self.kind, name, getattr(existing, same[0])))
        self._entries[name] = entry
        return entry

    def remove(self, name: str) -> None:
        self._entries.pop(name, None)

    def discover(self) -> None:
        """Import out-of-tree plugins once (see the module docstring)."""
        if self._discovered:
            return
        with self._lock:
            if self._discovered or self._discovering:
                return
            self._discovering = True
            try:
                if self._before_discovery is not None:
                    self._before_discovery()
                for module_name in os.environ.get(self.env_var, "").split(","):
                    module_name = module_name.strip()
                    if module_name:
                        importlib.import_module(module_name)
                for point in _entry_points(self.group):
                    self._load_point(point)
            finally:
                self._discovering = False
                self._discovered = True

    def get(self, name: str) -> Any:
        """Look up one entry; raises ``KeyError`` naming the catalogue."""
        self.discover()
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError("unknown %s %r; registered %ss: %s"
                           % (self.kind, name, self.kind,
                              ", ".join(sorted(self._entries)) or "<none>"))

    def names(self) -> Tuple[str, ...]:
        """All registered names, sorted."""
        self.discover()
        return tuple(sorted(self._entries))

    def entries(self) -> Tuple[Any, ...]:
        """All entries, sorted by name."""
        self.discover()
        return tuple(self._entries[name] for name in sorted(self._entries))
