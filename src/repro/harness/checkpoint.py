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
    ckpt-000001.pkl     header (schema version, campaign key, sequence,
    ckpt-000002.pkl       sim time, each file it needs and that file's
                          sha256) + the loop state, by reference
                          + the sha256 of all the bytes before it

There is no index file: the loop blobs are the stream. References are
written by a per-pickler ``dispatch_table`` that turns a base object or
an already-written seed into a call of :func:`_base_ref` /
:func:`_seed_ref`; loading resolves those names in
``Unpickler.find_class`` against the files the header names. Each file
is a local pickle, verified before it is unpickled: the loop blob by its
trailer, a base or seeds file by the digest its loop blob pins. DESIGN.md
("Checkpoint & resume", Trust) states how far a stream is trusted.

Durability contract:

- every file is written to a unique temp file and linked into place
  without clobbering, so a kill mid-save never tears a file and two
  writers of one key never overwrite each other; the loop blob is
  written last, and its link is the save's commit point — a save that
  fails before it removes what it wrote;
- :meth:`CheckpointStore.load_latest` scans the loop blobs newest →
  oldest, verifies each with everything it needs, and falls back to the
  next-older one when any of it is damaged — resume never crashes on
  damaged state, it just loses at most the damaged saves;
- the store keeps its keep-N window in memory: a steady-state save
  pickles the loop state, writes the loop blob (and a seeds file when
  it saw new seeds) and removes the files leaving its window — it lists
  and reads nothing;
- every loop blob carries :data:`CHECKPOINT_SCHEMA_VERSION`; a mismatch
  (an older layout included) raises
  :class:`~repro.errors.SchemaVersionError` instead of
  mis-deserializing it.

The campaign key hashes everything that determines the run (target,
mode, config, seed) *except* the checkpoint/resume knobs themselves
and the schema version, so ``--resume`` finds the state no matter how
checkpointing was spelled on the interrupted invocation, and refuses
a stream an older layout wrote instead of starting over beside it.
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
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.cache import (
    UNPICKLE_ERRORS,
    atomic_write,
    canonical_payload,
    default_cache_dir,
    read_bytes,
)
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

#: Bumped whenever the checkpoint layout changes; old artifacts are
#: rejected with :class:`SchemaVersionError`, not guessed at.
#: 2: the pickled campaign context gained the fault-plane injector.
#: 3: the quantification report pickles its probe log as plain
#: ``(assignment, branches, failed, sites)`` rows with shared site sets.
#: 4: the engine, its mutation strategy and each fuzzing instance no
#: longer pickle a flag choosing between two engine loops.
#: 5: the set-up graph and each corpus seed are written once per stream
#: (base and seeds files); a loop blob is a header plus the loop state,
#: referencing them.
#: 6: no stream index file; each loop blob ends with the sha256 of its
#: own bytes.
#: 7: coverage collectors pickle plain site sets (no interner, no
#: per-site counters).
#: 8: instances pickle no loopback channel; a namespace pickles its
#: bound ports as a plain set.
CHECKPOINT_SCHEMA_VERSION = 8

#: Every file a stream writes: kind, sequence, and for a temp file
#: (see :func:`repro.cache.atomic_write`) its unique suffix.
_FILE_PATTERN = re.compile(r"^(ckpt|base|seeds)-(\d+)\.pkl(\.\w+\.tmp)?$")
_DIGEST_SIZE = hashlib.sha256().digest_size
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
    rerun agree on the key. The schema version is left out too: a
    stream written under an older layout keeps its key, so resuming it
    raises :class:`~repro.errors.SchemaVersionError` rather than
    silently starting a fresh stream beside it.
    """
    payload = canonical_payload(config)
    if isinstance(payload, dict):
        payload = {k: v for k, v in payload.items()
                   if k not in _KEY_EXCLUDED_FIELDS}
    digest = hashlib.sha256(json.dumps(
        {
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

    ``refs`` maps ``id(target)`` to a pair whose second item is the
    reduction that stands in for ``target``: a call of :func:`_base_ref`
    or :func:`_seed_ref`. The dispatch table is consulted only for
    ``types``, the exact types of those targets, so every other object
    pickles at C speed; an object of such a type that is not in ``refs``
    pickles normally.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=_PROTOCOL)
    get = refs.get

    def reduce(target):
        ref = get(id(target))
        if ref is None:
            return target.__reduce_ex__(_PROTOCOL)
        return ref[1]

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


def _pinned(sha: str, parse: Callable[[bytes], Any]) -> Callable[[bytes], Any]:
    """``parse``, run only on bytes whose sha256 is ``sha``."""

    def check(blob: bytes) -> Any:
        if hashlib.sha256(blob).hexdigest() != sha:
            raise pickle.UnpicklingError("sha256 mismatch")
        return parse(blob)

    return check


class CheckpointStore:
    """Atomic keep-N checkpoint stream for one campaign key.

    A save writes its new seeds file (if any), then its loop blob, each
    through a unique temp file and a no-clobber link; the blob's link
    commits the save. Loads scan the loop blobs newest → oldest and
    verify every byte before trusting it; ``clear()`` removes the
    stream once the campaign completes, so a surviving directory always
    means "interrupted, resumable".

    The store keeps its stream in memory: the base objects it wrote (by
    identity) and, through weak references, every live seed's file and
    position; the keep-N window of its saves with the files each needs;
    and the next sequence. A store that restored a checkpoint remembers
    what it loaded the same way, so the next save writes neither again.
    Only the first save after construction or :meth:`load_latest` lists
    the directory; it sweeps the older files it found that its window
    does not need. Every later save removes only the files leaving its
    window.
    """

    def __init__(self, key: str, root: Optional[str] = None, keep: int = 3,
                 injector=None):
        if keep < 1:
            raise CheckpointError("need to keep at least one checkpoint")
        self.key = key
        self.root = root or default_checkpoint_root()
        self.directory = os.path.join(self.root, key)
        self.keep = keep
        self.injector = injector or NULL_INJECTOR
        self._forget()

    def _forget(self) -> None:
        """Drop everything the store knows about its stream."""
        #: The written base: its objects and ``(file name, sha256)``.
        self._base: List[Any] = []
        self._base_file: Optional[tuple] = None
        #: id(seed) -> (weak reference to the seed, the reduction that
        #: stands in for it), for every seed the last save saw. The weak
        #: reference tells a written seed from a new object on a
        #: recycled id without keeping evicted seeds alive.
        self._seeds: Dict[int, tuple] = {}
        #: seeds-file sequence -> (name, sha256), for files still needed.
        self._seed_files: Dict[int, tuple] = {}
        #: The keep-N window, oldest first: (loop blob, files it needs).
        self._window: List[Tuple[str, Tuple[str, ...]]] = []
        #: The next sequence to claim; ``None`` until a save lists the
        #: directory.
        self._next: Optional[int] = None
        #: The highest sequence :meth:`load_latest` saw on disk; the
        #: first save sweeps only files up to it, so it never touches
        #: what another writer of the key wrote since.
        self._horizon: Optional[int] = None
        #: Files the first save found and removes unless its window
        #: needs them.
        self._sweep: List[str] = []

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

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
        base, seeds = list(base), list(seeds)
        try:
            if self._next is None:
                self._open_stream()
            while True:
                sequence = self._next
                writes, requires, base_file, tracked, seed_files = \
                    self._prepare(state, sim_time, iterations, sequence,
                                  base, seeds)
                if self._commit(writes):
                    break
                # Another writer of this key holds the sequence.
                self._next = sequence + 1
        except (IoGiveUp, OSError) as exc:
            raise CheckpointError("cannot write checkpoint %d under %r (%s)"
                                  % (self._next or 0, self.directory, exc))
        # Only a save whose loop blob is on disk counts as written.
        self._base = base
        self._base_file = base_file
        self._seeds = tracked
        self._seed_files = seed_files
        self._next = sequence + 1
        name = writes[-1][1]
        self._window.append((name, tuple(requires)))
        leaving = self._window[:-self.keep]
        if leaving or self._sweep:
            del self._window[:-self.keep]
            needed = {file for blob, files in self._window
                      for file in (blob,) + files}
            doomed = set(self._sweep)
            for blob, files in leaving:
                doomed.add(blob)
                doomed.update(files)
            self._sweep = []
            for file in doomed - needed:
                try:
                    os.remove(self._path(file))
                except OSError:
                    pass
        return self._path(name)

    def _open_stream(self) -> None:
        """First save of the store: list the directory once.

        Sets the next sequence past everything on disk and queues for
        the sweep each file up to the horizon: everything found, or
        after a load only what that load saw.
        """
        os.makedirs(self.directory, exist_ok=True)
        found = {}
        for name in os.listdir(self.directory):
            match = _FILE_PATTERN.match(name)
            if match:
                found[name] = int(match.group(2))
        top = max(found.values(), default=0)
        horizon = top if self._horizon is None else self._horizon
        self._sweep = [name for name, sequence in found.items()
                       if sequence <= horizon]
        self._next = top + 1

    def _prepare(self, state: Any, sim_time: float, iterations: int,
                 sequence: int, base: List[Any], seeds: List[Any]) -> tuple:
        """The files save ``sequence`` writes, and what it registers."""
        writes = []
        base_file = self._base_file
        if len(base) != len(self._base) or any(
                a is not b for a, b in zip(base, self._base)):
            base_file = None
            if base:
                blob = pickle.dumps(base, protocol=_PROTOCOL)
                base_file = ("base-%06d.pkl" % sequence,
                             hashlib.sha256(blob).hexdigest())
                writes.append(("checkpoint.base.save", base_file[0], blob))
        base_refs = {id(obj): (obj, (_base_ref, (index,)))
                     for index, obj in enumerate(base)}
        base_types = {type(obj) for obj in base}

        # Seeds this save sees: an already written one keeps its place,
        # the rest go to this save's seeds file.
        known = self._seeds
        tracked: Dict[int, tuple] = {}
        fresh: List[Any] = []
        for seed in seeds:
            key = id(seed)
            entry = known.get(key)
            if entry is not None and entry[0]() is seed:
                tracked[key] = entry
            elif key not in tracked:
                tracked[key] = (weakref.ref(seed),
                                (_seed_ref, (sequence, len(fresh))))
                fresh.append(seed)
        # A reduction's first argument is the sequence of the seeds file
        # holding the seed; this save needs every such file.
        seed_files = {seq: self._seed_files[seq]
                      for seq in {reduction[1][0]
                                  for _, reduction in tracked.values()}
                      if seq != sequence}
        if fresh:
            # Seeds reference base objects (their data models) only.
            blob = _dumps(fresh, base_refs, base_types)
            seed_files[sequence] = ("seeds-%06d.pkl" % sequence,
                                    hashlib.sha256(blob).hexdigest())
            writes.append(("checkpoint.seeds.save", seed_files[sequence][0],
                           blob))
        refs = dict(tracked)
        refs.update(base_refs)
        types = base_types.union(map(type, seeds))

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
        blob += hashlib.sha256(blob).digest()
        writes.append(("checkpoint.save", "ckpt-%06d.pkl" % sequence, blob))
        return writes, requires, base_file, tracked, seed_files

    def _commit(self, writes: List[tuple]) -> bool:
        """Write new files in order, the loop blob last, under the fault
        plane; ``False`` (having removed what it wrote) when one of the
        names is already taken."""
        written = []
        try:
            for site, name, data in writes:
                if not self.injector.run(
                        site,
                        lambda: atomic_write(self._path(name), data,
                                             replace=False),
                        kinds=_WRITE_KINDS):
                    return False
                written.append(name)
            written = []
            return True
        finally:
            # A save that did not commit leaves nothing behind.
            for name in written:
                try:
                    os.remove(self._path(name))
                except OSError:
                    pass

    # -- load ----------------------------------------------------------------

    def _read(self, site: str, name: str,
              parse: Callable[[bytes], Any]) -> Any:
        """``parse`` of one file, or ``None`` when it stays unreadable.

        ``parse`` verifies the bytes and raises one of
        :data:`~repro.cache.UNPICKLE_ERRORS` on any damage.
        """
        path = self._path(name)
        # A read that fails verification is re-read before the file is
        # written off: the file on disk may be healthy even when one
        # read of it was damaged (an injected corrupt-on-read, a torn
        # page). Only bytes that stay bad across the retry budget fall
        # back to the next-older save.
        for _ in range(self.injector.backoff.max_attempts):
            try:
                blob = self.injector.run(site, lambda: read_bytes(path),
                                         kinds=_READ_KINDS,
                                         on_corrupt=corrupt_bytes)
            except (IoGiveUp, OSError):
                return None
            if blob is None:
                return None
            try:
                return parse(blob)
            except UNPICKLE_ERRORS:
                # The concrete unpickling error set (see repro.cache); a
                # failure that survives every re-read means a damaged
                # file, and load_latest falls back to an older save.
                continue
        return None

    def _parse_blob(self, name: str, blob: bytes) -> tuple:
        """A loop blob's header and the stream positioned at its state.

        The trailing sha256 is checked before anything is unpickled. A
        blob that fails it is damaged, unless its header names another
        schema: a stream written by an older layout (which had no
        trailer) raises :class:`SchemaVersionError` instead.
        """
        body = blob[:-_DIGEST_SIZE]
        if hashlib.sha256(body).digest() != blob[-_DIGEST_SIZE:]:
            try:
                header = pickle.loads(blob)
            except UNPICKLE_ERRORS:
                header = None
            if (isinstance(header, CheckpointPayload)
                    and header.schema_version != CHECKPOINT_SCHEMA_VERSION):
                raise SchemaVersionError("checkpoint %r" % self._path(name),
                                         header.schema_version,
                                         CHECKPOINT_SCHEMA_VERSION)
            raise pickle.UnpicklingError("checkpoint %r fails its sha256"
                                         % name)
        stream = io.BytesIO(body)
        header = pickle.load(stream)
        if not isinstance(header, CheckpointPayload):
            raise pickle.UnpicklingError("checkpoint %r has no header" % name)
        if header.schema_version != CHECKPOINT_SCHEMA_VERSION:
            raise SchemaVersionError("checkpoint %r" % self._path(name),
                                     header.schema_version,
                                     CHECKPOINT_SCHEMA_VERSION)
        return header, stream

    def _load_entry(self, name: str) -> Optional[CheckpointPayload]:
        """One verified checkpoint with everything it needs, or ``None``."""
        loaded = self._read("checkpoint.load", name,
                            lambda blob: self._parse_blob(name, blob))
        if loaded is None:
            return None
        header, stream = loaded
        if header.key != self.key or not isinstance(header.requires, dict):
            return None
        base_file = None
        seed_files: Dict[int, tuple] = {}
        for file_name, sha in header.requires.items():
            match = _FILE_PATTERN.match(str(file_name))
            if match is None or match.group(3) or not isinstance(sha, str):
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
            base = self._read("checkpoint.base.load", base_file[0],
                              _pinned(base_file[1], pickle.loads))
            if not isinstance(base, list):
                return None
        seeds: Dict[int, List[Any]] = {}
        for sequence, (file_name, sha) in sorted(seed_files.items()):
            seeds[sequence] = self._read(
                "checkpoint.seeds.load", file_name,
                _pinned(sha, lambda blob: _loads(io.BytesIO(blob), base, {})))
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
        self._window = [(name, tuple(header.requires))]
        header.state = state
        return header

    def load_latest(self) -> Optional[CheckpointPayload]:
        """The newest intact checkpoint, or ``None`` when there is none.

        Tries the loop blobs on disk newest → oldest, skipping any save
        whose loop blob, base file or seeds files fail their sha256 or
        unpickling. Only a schema-version mismatch raises — every
        corruption mode degrades silently to an older save (or a fresh
        start). The store then continues the stream from what it
        loaded.
        """
        self._forget()
        try:
            names = os.listdir(self.directory)
        except OSError:
            names = []
        blobs = []
        self._horizon = 0
        for name in names:
            match = _FILE_PATTERN.match(name)
            if match:
                sequence = int(match.group(2))
                self._horizon = max(self._horizon, sequence)
                if match.group(1) == "ckpt" and not match.group(3):
                    blobs.append((sequence, name))
        for _, name in sorted(blobs, reverse=True):
            payload = self._load_entry(name)
            if payload is not None:
                return payload
        return None

    # -- lifecycle -----------------------------------------------------------

    def clear(self) -> None:
        """Drop the stream (the campaign completed; nothing to resume)."""
        shutil.rmtree(self.directory, ignore_errors=True)
        self._forget()
