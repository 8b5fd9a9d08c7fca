"""Shared on-disk cache plumbing for the result and probe caches.

Both caches live under one root — ``$CMFUZZ_CACHE_DIR`` or
``.cmfuzz-cache/`` — and share the same failure contract: an unusable
cache directory fails fast at construction with
:class:`~repro.errors.CacheUnavailableError` instead of surfacing an
opaque ``OSError`` mid-campaign. Once a campaign is running, cache I/O
goes through :class:`FaultTolerantStore`: transient errors are retried
on the fault plane's backoff schedule, persistent failure degrades the
store to an in-memory passthrough (``cache.degraded``) instead of
aborting, and a corrupt entry is quarantined (``cache.corrupt``)
rather than silently counted as a miss.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import logging
import os
import pickle
import tempfile
import uuid
from typing import Any, Dict, Optional, Set

from repro.errors import CacheUnavailableError
from repro.faultplane import (
    FAULT_CORRUPT,
    FAULT_SLOW,
    FAULT_TRANSIENT,
    NULL_INJECTOR,
    IoGiveUp,
)
from repro.telemetry import NULL_TELEMETRY

logger = logging.getLogger(__name__)

#: Everything ``pickle.loads`` raises on a damaged or stale payload.
#: ``AttributeError``/``ImportError`` cover entries pickled against
#: renamed classes; ``Index``/``Value``/``TypeError`` cover truncated or
#: protocol-mangled streams reaching ``__setstate__``.
UNPICKLE_ERRORS = (pickle.PickleError, EOFError, AttributeError,
                   ImportError, IndexError, ValueError, TypeError)

#: Quarantined paths already logged, so a hot loop warns once per file.
_corrupt_logged: Set[str] = set()

#: Default on-disk cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".cmfuzz-cache"


def canonical_payload(value: Any) -> Any:
    """Reduce ``value`` to a JSON-stable shape for cache-key hashing.

    Dict key order never matters (``json.dumps(sort_keys=True)`` on the
    stringified keys), callables hash by qualified name, dataclasses by
    field dict. Shared by the result-cache spec keys and the checkpoint
    campaign keys so both derive identity the same way.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.value]
    if isinstance(value, (list, tuple)):
        return [canonical_payload(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(
            json.dumps(canonical_payload(v), sort_keys=True) for v in value
        )
    if isinstance(value, dict):
        return {str(k): canonical_payload(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical_payload(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if callable(value):
        return "%s:%s" % (
            getattr(value, "__module__", "?"),
            getattr(value, "__qualname__", repr(value)),
        )
    return repr(value)


def default_cache_dir() -> str:
    """The cache root: ``$CMFUZZ_CACHE_DIR`` or ``.cmfuzz-cache/``."""
    return os.environ.get("CMFUZZ_CACHE_DIR") or DEFAULT_CACHE_DIR


def validate_cache_dir(root: str) -> str:
    """Ensure ``root`` exists and is writable, or fail fast.

    Creates the directory if needed and verifies a file can actually be
    written there (covers read-only mounts and permission problems that
    ``makedirs`` alone would miss).

    Returns:
        The validated root, for chaining.

    Raises:
        CacheUnavailableError: With the underlying OS error and a
            ``--no-cache`` hint.
    """
    probe_path = os.path.join(root, ".write-probe-%s" % uuid.uuid4().hex)
    try:
        os.makedirs(root, exist_ok=True)
        with open(probe_path, "wb") as handle:
            handle.write(b"ok")
        os.remove(probe_path)
    except OSError as exc:
        raise CacheUnavailableError(
            "cache directory %r is not writable (%s); pass --no-cache "
            "(or cache=False / unset CMFUZZ_CACHE_DIR) to run without the "
            "on-disk cache" % (root, exc)
        )
    return root


def atomic_write(path: str, data: bytes, replace: bool = True) -> bool:
    """Write ``data`` to ``path`` atomically: a temp file, then a rename.

    The temp file is unique (``tempfile.mkstemp`` in the target
    directory, named ``<file>.<random>.tmp``), so writers in other
    threads or processes never share one, and a reader sees either the
    old file or the whole new one. With ``replace=False`` the rename is
    a hard link that never clobbers: when ``path`` already exists it is
    left alone and the call returns ``False``.
    """
    directory, name = os.path.split(path)
    fd, temp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp",
                                dir=directory or None)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        if replace:
            os.replace(temp, path)
            temp = None
            return True
        try:
            os.link(temp, path)
        except FileExistsError:
            return False
        return True
    finally:
        if temp is not None:
            try:
                os.remove(temp)
            except OSError:
                pass


def read_bytes(path: str) -> Optional[bytes]:
    """Read a file, treating absence (a plain cache miss) as ``None``.

    ``FileNotFoundError`` is handled *inside* the closure so the fault
    plane never burns retries on an entry that simply does not exist.
    """
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


class FaultTolerantStore:
    """Pickle-on-disk store that retries, quarantines, and degrades.

    The shared I/O engine behind the result and probe caches. Reads and
    writes run under the campaign's fault injector at the sites
    ``cache.<name>.read`` / ``cache.<name>.write``; the policies are:

    - Transient ``OSError`` (real or injected): bounded retry with
      backoff; on exhaustion the store **degrades** to an in-memory
      passthrough for the rest of the campaign — one ``cache.degraded``
      event, never an abort. (With ``--strict-io`` exhaustion re-raises
      instead, restoring fail-fast.)
    - Injected corrupt-on-read: the payload is dropped (a miss). The
      on-disk file is healthy, so it is *not* quarantined.
    - Real corruption (the bytes on disk do not unpickle): the entry is
      renamed to ``<path>.corrupt``, a ``cache.corrupt`` counter fires,
      and the path is logged once — a damaged entry must never be
      silently indistinguishable from a miss.
    """

    def __init__(self, name: str, telemetry=None, injector=None):
        self.name = name
        self.telemetry = telemetry or NULL_TELEMETRY
        self.injector = injector or NULL_INJECTOR
        self.degraded = False
        self._memory: Dict[str, Any] = {}

    def load(self, path: str) -> Optional[Any]:
        """The payload at ``path``, or ``None`` for a miss."""
        if self.degraded:
            return self._memory.get(path)
        blob: Optional[bytes]
        try:
            blob = self.injector.run(
                "cache.%s.read" % self.name,
                lambda: read_bytes(path),
                kinds=(FAULT_TRANSIENT, FAULT_SLOW, FAULT_CORRUPT),
                on_corrupt=lambda _blob: None,
            )
        except IoGiveUp as exc:
            self._degrade("read", exc)
            return self._memory.get(path)
        if blob is None:
            return None
        try:
            return pickle.loads(blob)
        except UNPICKLE_ERRORS as exc:
            self._quarantine(path, exc)
            return None

    def store(self, path: str, payload: Any) -> None:
        """Persist ``payload`` at ``path`` (or in memory once degraded)."""
        if self.degraded:
            self._memory[path] = payload
            return
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            self.injector.run(
                "cache.%s.write" % self.name,
                lambda: atomic_write(path, blob),
                kinds=(FAULT_TRANSIENT, FAULT_SLOW),
            )
        except IoGiveUp as exc:
            self._degrade("write", exc)
            self._memory[path] = payload

    def _degrade(self, op: str, exc: IoGiveUp) -> None:
        self.degraded = True
        self.telemetry.counter("cache.degraded", cache=self.name).inc()
        self.telemetry.event("cache.degraded", cache=self.name, op=op,
                             error=str(exc.original))
        logger.warning(
            "%s cache degraded to in-memory passthrough after a failed "
            "%s (%s); campaign continues without the on-disk cache",
            self.name, op, exc.original)

    def _quarantine(self, path: str, exc: BaseException) -> None:
        quarantined = path + ".corrupt"
        try:
            os.replace(path, quarantined)
        except OSError:
            quarantined = None
        self.telemetry.counter("cache.corrupt", cache=self.name).inc()
        if path not in _corrupt_logged:
            _corrupt_logged.add(path)
            logger.warning(
                "corrupt %s cache entry at %s (%s: %s); %s",
                self.name, path, type(exc).__name__, exc,
                "quarantined to %s" % quarantined if quarantined
                else "quarantine rename failed, entry left in place")


class KeyedCache:
    """One ``{version, key, outcome}`` pickle per key under ``root``.

    The shared get/put of the result and probe caches. An entry counts
    only when its stamped ``version`` and ``key`` match the lookup and
    its outcome is an ``outcome_type``; anything else is a miss. The
    root is validated at construction (see :func:`validate_cache_dir`)
    and I/O runs through a :class:`FaultTolerantStore` named ``name``.
    Subclasses set ``outcome_type`` and :attr:`version`.
    """

    #: The type every stored outcome must have.
    outcome_type: type = object

    def __init__(self, root: str, name: str, telemetry=None, injector=None):
        self.root = validate_cache_dir(root)
        self.store = FaultTolerantStore(name, telemetry=telemetry,
                                        injector=injector)

    @property
    def version(self) -> int:
        """The entry version; a bump invalidates every stored entry."""
        raise NotImplementedError

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + ".pkl")

    def get(self, key: str) -> Optional[Any]:
        payload = self.store.load(self._path(key))
        if (not isinstance(payload, dict)
                or payload.get("version") != self.version
                or payload.get("key") != key):
            return None
        outcome = payload.get("outcome")
        return outcome if isinstance(outcome, self.outcome_type) else None

    def put(self, key: str, outcome: Any) -> None:
        self.store.store(
            self._path(key),
            {"version": self.version, "key": key, "outcome": outcome},
        )
