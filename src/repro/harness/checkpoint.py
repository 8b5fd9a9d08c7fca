"""Crash-safe campaign checkpoints: periodic, atomic, versioned, incremental.

The paper's headline experiments are 24-hour campaigns; a worker crash
or preemption should continue the cell, not rerun it. This module
persists the *entire* live loop state — engine RNG streams, sim-clock,
per-instance corpus and coverage maps, scheduler/allocation state
(CMFuzz entity groups and mutation cursors, SPFuzz path partitions),
seed-sync outboxes, supervisor circuit-breaker state, the bug ledger
and the telemetry registry — so a resumed campaign is *byte-identical*
to an uninterrupted one.

Most of that state never changes once written, so a save writes each
immutable object once per stream:

- the **base** — the set-up graph the loop never mutates (state model
  and data models, CMFuzz's configuration and relation models,
  allocation and quantification report) — at the stream's first save;
- each retained corpus **seed** in the save that first sees it, one
  seeds file per save holding that save's new seeds;
- a **loop blob** per save holding the rest, with small references
  into the base and the seeds files instead of their contents.

Layout, under ``.cmfuzz-cache/checkpoints/<campaign-key>/``::

    base-000001.pkl     the set-up graph, written once per stream
    seeds-000001.pkl    the seeds first seen by save 1
    seeds-000002.pkl    the seeds first seen by save 2 (if any)
    ckpt-000001.pkl     header (sequence, sim time, files needed and
    ckpt-000002.pkl       their sha256) + the loop state, by reference
    MANIFEST.json       schema_version, campaign key, and per save the
                        sha256 of its loop blob and of every file it needs

References are written by a per-pickler ``dispatch_table`` that turns
a base object or an already-written seed into a call of
:func:`_base_ref` / :func:`_seed_ref`; loading resolves those names in
``Unpickler.find_class`` against the files the header names. Every
file is a local pickle whose sha256 is pinned by the manifest (and,
for the base and seeds files, by the loop blob's own header): it is
trusted exactly as far as the directory it lives in.

Durability contract:

- every write is temp-file + ``os.replace`` (base, seeds, blob and
  manifest), so a kill mid-save can never tear an entry; a save that
  fails part-way leaves only unreferenced files, which the next save's
  pruning removes;
- :meth:`CheckpointStore.load_latest` verifies the loop blob and every
  file it needs against their sha256 and falls back newest → oldest
  when any of them is damaged; a corrupt manifest degrades to a
  directory scan, which works because each loop blob names the files
  it needs — resume never crashes on damaged state, it just loses at
  most the damaged saves;
- keep-N pruning deletes a base or seeds file once no kept save needs
  it;
- the manifest and every loop blob carry
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
import io
import json
import os
import pickle
import re
import shutil
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

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
#: 4: the engine, its mutation strategy and each fuzzing instance no
#: longer pickle a flag choosing between two engine loops.
#: 5: the set-up graph and each corpus seed are written once per stream
#: (base and seeds files); a loop blob is a header plus the loop state,
#: referencing them.
CHECKPOINT_SCHEMA_VERSION = 5

_MANIFEST_NAME = "MANIFEST.json"
#: Every file a stream writes besides the manifest: kind and sequence.
_FILE_PATTERN = re.compile(r"^(ckpt|base|seeds)-(\d+)\.pkl$")
_PROTOCOL = pickle.HIGHEST_PROTOCOL
_READ_KINDS = (FAULT_TRANSIENT, FAULT_SLOW, FAULT_CORRUPT)
_WRITE_KINDS = (FAULT_TRANSIENT, FAULT_SLOW)

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
    """One restored checkpoint: the loop state plus its provenance.

    On disk the same object, with ``state=None``, is a loop blob's
    header; ``requires`` maps each base or seeds file the loop state
    references to its sha256.
    """

    schema_version: int
    key: str
    sequence: int
    sim_time: float
    iterations: int
    state: Any
    requires: Dict[str, str] = field(default_factory=dict)


def _base_ref(index: int):
    """Pickled stand-in for base object ``index``; only
    :class:`_RefUnpickler` can resolve it."""
    raise pickle.UnpicklingError("unresolved checkpoint base reference")


def _seed_ref(sequence: int, index: int):
    """Pickled stand-in for seed ``index`` of seeds file ``sequence``;
    only :class:`_RefUnpickler` can resolve it."""
    raise pickle.UnpicklingError("unresolved checkpoint seed reference")


def _dumps(obj: Any, refs: Dict[int, tuple], types: Iterable[type]) -> bytes:
    """Pickle ``obj``, writing each object in ``refs`` as its reference.

    ``refs`` maps ``id(target)`` to the reduction that stands in for
    ``target``: a call of :func:`_base_ref` or :func:`_seed_ref`. The
    dispatch table is consulted only for ``types``, the exact types of
    those targets, so every other object pickles at C speed; an object
    of such a type that is not in ``refs`` pickles normally.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=_PROTOCOL)
    get = refs.get

    def reduce(target):
        ref = get(id(target))
        if ref is None:
            return target.__reduce_ex__(_PROTOCOL)
        return ref

    pickler.dispatch_table = dict.fromkeys(types, reduce)
    pickler.dump(obj)
    return buffer.getvalue()


class _RefUnpickler(pickle.Unpickler):
    """Resolves :func:`_base_ref` / :func:`_seed_ref` against loaded files."""

    def __init__(self, stream, base: List[Any],
                 seeds: Dict[int, List[Any]]):
        super().__init__(stream)
        self._base = base
        self._seeds = seeds

    def _resolve_base(self, index: int) -> Any:
        try:
            return self._base[index]
        except (IndexError, TypeError):
            raise pickle.UnpicklingError("dangling base reference %r" % index)

    def _resolve_seed(self, sequence: int, index: int) -> Any:
        try:
            return self._seeds[sequence][index]
        except (KeyError, IndexError, TypeError):
            raise pickle.UnpicklingError(
                "dangling seed reference %r/%r" % (sequence, index))

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__:
            if name == "_base_ref":
                return self._resolve_base
            if name == "_seed_ref":
                return self._resolve_seed
        return super().find_class(module, name)


def _loads(stream, base: List[Any], seeds: Dict[int, List[Any]]) -> Any:
    return _RefUnpickler(stream, base, seeds).load()


class CheckpointStore:
    """Atomic keep-N checkpoint stream for one campaign key.

    Writes are temp + rename (base and seeds files, then the loop blob,
    then the manifest), loads verify sha256 digests and degrade newest
    → oldest; ``clear()`` removes the stream once the campaign
    completes, so a surviving directory always means "interrupted,
    resumable".

    The store remembers what it has written: the base objects (by
    identity) and, through weak references, every live seed's file and
    position. A store that restored a checkpoint remembers what it
    loaded the same way, so the next save writes neither again.
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
        #: The written base: its objects, file name and sha256.
        self._base: List[Any] = []
        self._base_file: Optional[tuple] = None
        #: id(seed) -> (weak reference to the seed, the reduction that
        #: stands in for it), for every seed the last save saw. The weak
        #: reference tells a written seed from a new object on a
        #: recycled id without keeping evicted seeds alive.
        self._seeds: Dict[int, tuple] = {}
        #: seeds-file sequence -> (name, sha256), for files still needed.
        self._seed_files: Dict[int, tuple] = {}

    # -- paths ---------------------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.directory, _MANIFEST_NAME)

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

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
        # Unindented: ``json.dumps`` then encodes in C; the manifest
        # grows with the seeds files every kept save pins.
        text = json.dumps(manifest, sort_keys=True)
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp, path)

    # -- save ----------------------------------------------------------------

    def save(self, state: Any, sim_time: float, iterations: int,
             base: Iterable[Any] = (), seeds: Iterable[Any] = ()) -> str:
        """Persist one checkpoint atomically; returns the loop blob path.

        ``base`` lists objects the caller never mutates again; they are
        written once per stream and referenced from then on. ``seeds``
        lists immutable, weak-referenceable objects (corpus seeds), each
        written once, by the first save that sees it. Everything else
        reachable from ``state`` is pickled into the loop blob.
        """
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
        writes = []

        base = list(base)
        base_file = self._base_file
        if len(base) != len(self._base) or any(
                a is not b for a, b in zip(base, self._base)):
            base_file = None
            if base:
                blob = pickle.dumps(base, protocol=_PROTOCOL)
                base_file = ("base-%06d.pkl" % sequence,
                             hashlib.sha256(blob).hexdigest())
                writes.append(("checkpoint.base.save", base_file[0], blob))
        refs = {id(obj): (_base_ref, (index,))
                for index, obj in enumerate(base)}
        base_types = {type(obj) for obj in base}

        # Seeds this save sees: an already written one keeps its place,
        # the rest go to this save's seeds file.
        known = self._seeds
        tracked: Dict[int, tuple] = {}
        fresh: List[Any] = []
        types = set(base_types)
        for seed in seeds:
            key = id(seed)
            entry = known.get(key)
            if entry is None or entry[0]() is not seed:
                if key in tracked:
                    continue
                entry = (weakref.ref(seed),
                         (_seed_ref, (sequence, len(fresh))))
                fresh.append(seed)
            tracked[key] = entry
            types.add(type(seed))
        # A reduction's first argument is the sequence of the seeds file
        # holding the seed; this save needs every such file.
        seed_files = {seq: self._seed_files[seq]
                      for seq in {reduction[1][0]
                                  for _, reduction in tracked.values()}
                      if seq != sequence}
        if fresh:
            # Seeds reference base objects (their data models) only.
            blob = _dumps(fresh, refs, base_types)
            seed_files[sequence] = ("seeds-%06d.pkl" % sequence,
                                    hashlib.sha256(blob).hexdigest())
            writes.append(("checkpoint.seeds.save", seed_files[sequence][0],
                           blob))
        refs.update({key: reduction
                     for key, (_, reduction) in tracked.items()})

        requires = {}
        if base_file is not None:
            requires[base_file[0]] = base_file[1]
        requires.update(seed_files[seq] for seq in sorted(seed_files))
        header = CheckpointPayload(
            schema_version=CHECKPOINT_SCHEMA_VERSION,
            key=self.key,
            sequence=sequence,
            sim_time=sim_time,
            iterations=iterations,
            state=None,
            requires=requires,
        )
        blob = (pickle.dumps(header, protocol=_PROTOCOL)
                + _dumps(state, refs, types))
        name = "ckpt-%06d.pkl" % sequence
        path = self._path(name)
        entries = entries + [{
            "file": name,
            "sha256": hashlib.sha256(blob).hexdigest(),
            "sequence": sequence,
            "sim_time": sim_time,
            "iterations": iterations,
            "requires": requires,
        }]
        entries = entries[-self.keep:]

        try:
            for site, file_name, data in writes:
                self._write(site, self._path(file_name), data)
            self._write("checkpoint.save", path, blob,
                        then=lambda: self._write_manifest(entries))
        except (IoGiveUp, OSError) as exc:
            raise CheckpointError(
                "cannot write checkpoint %r (%s)" % (path, exc)
            )
        # Only a save that reached the manifest counts as written.
        self._base = base
        self._base_file = base_file
        self._seeds = tracked
        self._seed_files = seed_files
        self._prune(entries)
        return path

    def _write(self, site: str, path: str, blob: bytes,
               then: Optional[Callable[[], None]] = None) -> None:
        """Write one file under the fault plane, temp + rename."""
        temp = "%s.tmp.%d" % (path, os.getpid())

        def write() -> None:
            # Idempotent under retry: every write is temp + rename.
            with open(temp, "wb") as handle:
                handle.write(blob)
            os.replace(temp, path)
            if then is not None:
                then()

        self.injector.run(site, write, kinds=_WRITE_KINDS)

    def _scan_top(self) -> int:
        """Highest sequence present on disk (manifest-independent)."""
        top = 0
        try:
            names = os.listdir(self.directory)
        except OSError:
            return top
        for name in names:
            match = _FILE_PATTERN.match(name)
            if match:
                top = max(top, int(match.group(2)))
        return top

    def _prune(self, entries: List[dict]) -> None:
        """Delete files no save in the keep-N manifest window needs."""
        kept = set()
        for entry in entries:
            kept.add(entry["file"])
            kept.update(entry.get("requires", ()))
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if _FILE_PATTERN.match(name) and name not in kept:
                try:
                    os.remove(self._path(name))
                except OSError:
                    pass

    # -- load ----------------------------------------------------------------

    def _read(self, site: str, path: str, expect_sha: Optional[str],
              parse: Callable[[bytes], Any]) -> Any:
        """``parse`` of one verified file, or ``None`` on any corruption."""

        def read() -> Optional[bytes]:
            try:
                with open(path, "rb") as handle:
                    return handle.read()
            except FileNotFoundError:
                return None

        # A read that fails verification is re-read before the file is
        # written off: the file on disk may be healthy even when one
        # read of it was damaged (an injected corrupt-on-read, a torn
        # page). Only bytes that stay bad across the retry budget fall
        # back to the next-older save.
        for _ in range(self.injector.backoff.max_attempts):
            try:
                blob = self.injector.run(site, read, kinds=_READ_KINDS,
                                         on_corrupt=corrupt_bytes)
            except (IoGiveUp, OSError):
                return None
            if blob is None:
                return None
            if expect_sha is not None:
                if hashlib.sha256(blob).hexdigest() != expect_sha:
                    continue
            try:
                return parse(blob)
            except UNPICKLE_ERRORS:
                # The concrete unpickling error set (see repro.cache); a
                # failure that survives every re-read means a damaged
                # file, and load_latest falls back to an older save.
                continue
        return None

    def _load_entry(self, name: str,
                    expect_sha: Optional[str]) -> Optional[CheckpointPayload]:
        """One verified checkpoint with everything it needs, or ``None``."""

        def parse_header(blob: bytes):
            stream = io.BytesIO(blob)
            return pickle.load(stream), stream

        loaded = self._read("checkpoint.load", self._path(name), expect_sha,
                            parse_header)
        if loaded is None:
            return None
        header, stream = loaded
        if not isinstance(header, CheckpointPayload):
            return None
        if header.schema_version != CHECKPOINT_SCHEMA_VERSION:
            raise SchemaVersionError("checkpoint %r" % self._path(name),
                                     header.schema_version,
                                     CHECKPOINT_SCHEMA_VERSION)
        if header.key != self.key or not isinstance(header.requires, dict):
            return None
        base_file = None
        seed_files: Dict[int, tuple] = {}
        for file_name, sha in header.requires.items():
            match = _FILE_PATTERN.match(str(file_name))
            if match is None or not isinstance(sha, str):
                return None
            kind, sequence = match.group(1), int(match.group(2))
            if kind == "base" and base_file is None:
                base_file = (file_name, sha)
            elif kind == "seeds":
                seed_files[sequence] = (file_name, sha)
            else:
                return None
        base: List[Any] = []
        if base_file is not None:
            base = self._read(
                "checkpoint.base.load", self._path(base_file[0]), base_file[1],
                pickle.loads)
            if not isinstance(base, list):
                return None
        seeds: Dict[int, List[Any]] = {}
        for sequence, (file_name, sha) in sorted(seed_files.items()):
            seeds[sequence] = self._read(
                "checkpoint.seeds.load", self._path(file_name), sha,
                lambda blob: _loads(io.BytesIO(blob), base, {}))
            if not isinstance(seeds[sequence], list):
                return None
        try:
            state = _loads(stream, base, seeds)
        except UNPICKLE_ERRORS:
            return None
        # Register what was restored as already written, so the next
        # save references it instead of writing it again.
        self._base = base
        self._base_file = base_file
        self._seeds = {
            id(seed): (weakref.ref(seed), (_seed_ref, (sequence, index)))
            for sequence, listed in seeds.items()
            for index, seed in enumerate(listed)
        }
        self._seed_files = seed_files
        header.state = state
        return header

    def load_latest(self) -> Optional[CheckpointPayload]:
        """The newest intact checkpoint, or ``None`` when there is none.

        Tries manifest entries newest → oldest, skipping any save whose
        loop blob, base file or seeds files fail their sha256 or
        unpickling; when the manifest itself is damaged falls back to
        scanning the directory, taking each loop blob's own list of the
        files it needs. Only a schema-version mismatch raises — every
        corruption mode degrades silently to an older save (or a fresh
        start).
        """
        manifest = self._read_manifest()
        if manifest is not None:
            for entry in reversed(manifest.get("checkpoints", [])):
                if not isinstance(entry, dict):
                    continue
                payload = self._load_entry(str(entry.get("file")),
                                           entry.get("sha256"))
                if payload is not None:
                    return payload
            return None
        # Manifest missing/corrupt: recover what the blobs themselves hold.
        try:
            names = os.listdir(self.directory)
        except OSError:
            return None
        candidates = sorted(
            (int(m.group(2)), name)
            for name in names
            for m in [_FILE_PATTERN.match(name)] if m and m.group(1) == "ckpt"
        )
        for _, name in reversed(candidates):
            payload = self._load_entry(name, None)
            if payload is not None:
                return payload
        return None

    # -- lifecycle -----------------------------------------------------------

    def clear(self) -> None:
        """Drop the stream (the campaign completed; nothing to resume)."""
        shutil.rmtree(self.directory, ignore_errors=True)
