"""Crash-safe campaign checkpoints: periodic, atomic, versioned.

The paper's headline experiments are 24-hour campaigns; a worker crash
or preemption should continue the cell, not rerun it. This module
persists the *entire* live loop state — engine RNG streams, sim-clock,
per-instance corpus and coverage maps, scheduler/allocation state
(CMFuzz entity groups and mutation cursors, SPFuzz path partitions),
seed-sync outboxes, supervisor circuit-breaker state, the bug ledger
and the telemetry registry — as one pickled object graph, so shared
references survive and a resumed campaign is *byte-identical* to an
uninterrupted one.

Layout, under ``.cmfuzz-cache/checkpoints/<campaign-key>/``::

    ckpt-000001.pkl     one pickled _LoopState per save
    ckpt-000002.pkl
    MANIFEST.json       schema_version, campaign key, sha256 per file

Durability contract:

- every write is temp-file + ``os.replace`` (both blob and manifest),
  so a kill mid-save can never tear an entry;
- :meth:`CheckpointStore.load_latest` verifies each blob against its
  manifest sha256 and falls back newest → oldest on any corruption;
  a corrupt manifest degrades to a directory scan — resume never
  crashes on damaged state, it just loses at most the damaged saves;
- the manifest and every blob carry
  :data:`CHECKPOINT_SCHEMA_VERSION`; a mismatch raises
  :class:`~repro.errors.SchemaVersionError` instead of
  mis-deserializing an old layout.

The campaign key hashes everything that determines the run (target,
mode, config, seed) *except* the checkpoint/resume knobs themselves,
so ``--resume`` finds the state no matter how checkpointing was
spelled on the interrupted invocation.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import shutil
from dataclasses import dataclass
from typing import Any, List, Optional

from repro.cache import UNPICKLE_ERRORS, canonical_payload, default_cache_dir
from repro.errors import CheckpointError, SchemaVersionError
from repro.faultplane import (
    FAULT_CORRUPT,
    FAULT_SLOW,
    FAULT_TRANSIENT,
    NULL_INJECTOR,
    IoGiveUp,
    corrupt_bytes,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointPayload",
    "CheckpointStore",
    "campaign_key",
    "default_checkpoint_root",
]

#: Bumped whenever the checkpoint blob or manifest layout changes; old
#: artifacts are rejected with :class:`SchemaVersionError`, not guessed at.
#: 2: the pickled campaign context gained the fault-plane injector.
#: 3: the quantification report pickles its probe log as plain
#: ``(assignment, branches, failed, sites)`` rows with shared site sets.
CHECKPOINT_SCHEMA_VERSION = 3

_MANIFEST_NAME = "MANIFEST.json"
_BLOB_PATTERN = re.compile(r"^ckpt-(\d+)\.pkl$")

#: Config fields excluded from the campaign key: they select *whether*
#: and *where* to checkpoint — or which infrastructure faults to
#: inject — not what the campaign computes. (The fault plane's headline
#: invariant is exactly that io-chaos never changes results.)
_KEY_EXCLUDED_FIELDS = frozenset(
    ["checkpoint_every", "checkpoint_dir", "checkpoint_keep", "resume",
     "io_chaos_level", "io_chaos_seed", "strict_io"]
)


def default_checkpoint_root() -> str:
    """Checkpoints live beside the result/probe caches."""
    return os.path.join(default_cache_dir(), "checkpoints")


def campaign_key(target: str, mode: str, config: Any) -> str:
    """Stable content hash identifying one campaign's checkpoint stream.

    Derived from the target, mode and every config field that shapes
    the run; the checkpoint/resume knobs themselves are excluded so an
    interrupted ``--checkpoint-every 600`` run and its ``--resume``
    rerun agree on the key.
    """
    payload = canonical_payload(config)
    if isinstance(payload, dict):
        payload = {k: v for k, v in payload.items()
                   if k not in _KEY_EXCLUDED_FIELDS}
    digest = hashlib.sha256(json.dumps(
        {
            "version": CHECKPOINT_SCHEMA_VERSION,
            "target": target,
            "mode": mode,
            "config": payload,
        },
        sort_keys=True,
    ).encode("utf-8"))
    return digest.hexdigest()


@dataclass
class CheckpointPayload:
    """One restored checkpoint: the loop state plus its provenance."""

    schema_version: int
    key: str
    sequence: int
    sim_time: float
    iterations: int
    state: Any


class CheckpointStore:
    """Atomic keep-N checkpoint stream for one campaign key.

    Writes are temp + rename (blob first, then manifest), loads verify
    sha256 digests and degrade newest → oldest; ``clear()`` removes the
    stream once the campaign completes, so a surviving directory always
    means "interrupted, resumable".
    """

    def __init__(self, key: str, root: Optional[str] = None, keep: int = 3,
                 target: str = "", mode: str = "", injector=None):
        if keep < 1:
            raise CheckpointError("need to keep at least one checkpoint")
        self.key = key
        self.root = root or default_checkpoint_root()
        self.directory = os.path.join(self.root, key)
        self.keep = keep
        self.target = target
        self.mode = mode
        self.injector = injector or NULL_INJECTOR

    # -- paths ---------------------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.directory, _MANIFEST_NAME)

    def _blob_path(self, sequence: int) -> str:
        return os.path.join(self.directory, "ckpt-%06d.pkl" % sequence)

    # -- manifest ------------------------------------------------------------

    def _read_manifest(self) -> Optional[dict]:
        """The parsed manifest, ``None`` when absent or unreadable."""
        try:
            with open(self._manifest_path(), "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(manifest, dict):
            return None
        version = manifest.get("schema_version")
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise SchemaVersionError(
                "checkpoint manifest %r" % self._manifest_path(),
                version, CHECKPOINT_SCHEMA_VERSION,
            )
        return manifest

    def _write_manifest(self, entries: List[dict]) -> None:
        manifest = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "campaign_key": self.key,
            "target": self.target,
            "mode": self.mode,
            "checkpoints": entries,
        }
        path = self._manifest_path()
        temp = "%s.tmp.%d" % (path, os.getpid())
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
        os.replace(temp, path)

    # -- save ----------------------------------------------------------------

    def save(self, state: Any, sim_time: float, iterations: int) -> str:
        """Persist one checkpoint atomically; returns the blob path."""
        os.makedirs(self.directory, exist_ok=True)
        try:
            manifest = self._read_manifest()
        except SchemaVersionError:
            # An old-layout stream cannot be extended; start it over.
            manifest = None
        entries = list(manifest.get("checkpoints", [])) if manifest else []
        sequence = 1 + max(
            [e.get("sequence", 0) for e in entries] + [self._scan_top()]
        )
        payload = CheckpointPayload(
            schema_version=CHECKPOINT_SCHEMA_VERSION,
            key=self.key,
            sequence=sequence,
            sim_time=sim_time,
            iterations=iterations,
            state=state,
        )
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        path = self._blob_path(sequence)
        temp = "%s.tmp.%d" % (path, os.getpid())
        entries = entries + [{
            "file": os.path.basename(path),
            "sha256": hashlib.sha256(blob).hexdigest(),
            "sequence": sequence,
            "sim_time": sim_time,
            "iterations": iterations,
        }]
        entries = entries[-self.keep:]

        def write() -> None:
            # Idempotent under retry: both writes are temp + rename.
            with open(temp, "wb") as handle:
                handle.write(blob)
            os.replace(temp, path)
            self._write_manifest(entries)

        try:
            self.injector.run("checkpoint.save", write,
                              kinds=(FAULT_TRANSIENT, FAULT_SLOW))
        except (IoGiveUp, OSError) as exc:
            raise CheckpointError(
                "cannot write checkpoint %r (%s)" % (path, exc)
            )
        self._prune(entries)
        return path

    def _scan_top(self) -> int:
        """Highest sequence present on disk (manifest-independent)."""
        top = 0
        try:
            names = os.listdir(self.directory)
        except OSError:
            return top
        for name in names:
            match = _BLOB_PATTERN.match(name)
            if match:
                top = max(top, int(match.group(1)))
        return top

    def _prune(self, entries: List[dict]) -> None:
        """Delete blobs that fell out of the keep-N manifest window."""
        kept = {entry["file"] for entry in entries}
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if _BLOB_PATTERN.match(name) and name not in kept:
                try:
                    os.remove(os.path.join(self.directory, name))
                except OSError:
                    pass

    # -- load ----------------------------------------------------------------

    def _load_blob(self, path: str,
                   expect_sha: Optional[str]) -> Optional[CheckpointPayload]:
        """One verified payload, or ``None`` on any corruption."""

        def read() -> Optional[bytes]:
            try:
                with open(path, "rb") as handle:
                    return handle.read()
            except FileNotFoundError:
                return None

        # A read that fails verification is re-read before the blob is
        # written off: the file on disk may be healthy even when one
        # read of it was damaged (an injected corrupt-on-read, a torn
        # page). Only bytes that stay bad across the retry budget fall
        # back to the next-older save.
        payload = None
        for _ in range(self.injector.backoff.max_attempts):
            try:
                blob = self.injector.run(
                    "checkpoint.load", read,
                    kinds=(FAULT_TRANSIENT, FAULT_SLOW, FAULT_CORRUPT),
                    on_corrupt=corrupt_bytes,
                )
            except (IoGiveUp, OSError):
                return None
            if blob is None:
                return None
            if expect_sha is not None:
                if hashlib.sha256(blob).hexdigest() != expect_sha:
                    continue
            try:
                payload = pickle.loads(blob)
            except UNPICKLE_ERRORS:
                # The concrete unpickling error set (see repro.cache);
                # a failure that survives every re-read means a damaged
                # blob, and load_latest falls back to an older save.
                continue
            break
        if payload is None:
            return None
        if not isinstance(payload, CheckpointPayload):
            return None
        if payload.schema_version != CHECKPOINT_SCHEMA_VERSION:
            raise SchemaVersionError("checkpoint %r" % path,
                                     payload.schema_version,
                                     CHECKPOINT_SCHEMA_VERSION)
        if payload.key != self.key:
            return None
        return payload

    def load_latest(self) -> Optional[CheckpointPayload]:
        """The newest intact checkpoint, or ``None`` when there is none.

        Tries manifest entries newest → oldest, skipping any blob whose
        sha256 or unpickling fails; when the manifest itself is damaged
        falls back to scanning the directory. Only a schema-version
        mismatch raises — every corruption mode degrades silently to an
        older save (or a fresh start).
        """
        manifest = self._read_manifest()
        if manifest is not None:
            for entry in reversed(manifest.get("checkpoints", [])):
                if not isinstance(entry, dict):
                    continue
                path = os.path.join(self.directory, str(entry.get("file")))
                payload = self._load_blob(path, entry.get("sha256"))
                if payload is not None:
                    return payload
            return None
        # Manifest missing/corrupt: recover what the blobs themselves hold.
        try:
            names = os.listdir(self.directory)
        except OSError:
            return None
        candidates = sorted(
            (int(m.group(1)), name)
            for name in names
            for m in [_BLOB_PATTERN.match(name)] if m
        )
        for _, name in reversed(candidates):
            payload = self._load_blob(os.path.join(self.directory, name), None)
            if payload is not None:
                return payload
        return None

    # -- lifecycle -----------------------------------------------------------

    def clear(self) -> None:
        """Drop the stream (the campaign completed; nothing to resume)."""
        shutil.rmtree(self.directory, ignore_errors=True)
