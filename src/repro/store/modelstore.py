"""Content-addressed on-disk cache of reduction artifacts.

The offline/online split of the paper's method only becomes a *serving*
architecture once reductions survive the process: :class:`ModelStore`
keys each artifact by a structural fingerprint of the system (shapes,
dtypes, sparsity pattern and data digests) combined with the reducer
configuration, so ``store.reduce(system, reducer)`` on an already-seen
pair is a disk hit — across runs, processes and machines sharing the
store directory.

Design points:

* **Content addressing** — the key is a SHA-256 over the system's
  numerical content and the reducer's identity-defining parameters.
  Renaming a system does not fork the cache; changing one matrix entry
  or one tolerance does.
* **Atomic writes** — artifacts and metadata go through temp-file +
  ``os.replace`` in the entry directory, so concurrent writers race
  benignly (last writer wins with a complete file) and a crash can
  never publish a torn artifact.
* **Versioned schema** — every entry records the artifact schema;
  entries from an incompatible schema read as misses and are
  recomputed, never migrated in place.
* **Corruption-safe loads** — any load failure (truncated zip, bad
  JSON, failed basis-hash check) is quarantined and treated as a miss:
  the caller recomputes and overwrites.  A broken cache can cost time,
  never correctness.
"""

import contextlib
import hashlib
import inspect
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

try:
    import fcntl
except ImportError:  # non-POSIX: entry locking degrades to best-effort
    fcntl = None

import numpy as np

from ..errors import ValidationError
from ..memory import parse_budget
from ..serialize import durable_write, json_safe, update_digest
from ..systems.exponential import ExponentialODE
from ..systems.lti import StateSpace
from ..systems.polynomial import PolynomialODE
from ..testing.faults import fault_point
from .artifact import (
    SCHEMA_VERSION,
    ReductionArtifact,
    SchemaMismatchError,
    reducer_provenance,
)

__all__ = [
    "ModelStore",
    "artifact_key",
    "fingerprint_system",
    "parse_ttl",
    "reducer_fingerprint",
]

#: Fingerprint-format tag; bump when the hashed field set changes so old
#: store entries age out instead of colliding.
_FINGERPRINT_TAG = b"repro-fingerprint-v1"


@contextlib.contextmanager
def _entry_lock(entry_dir):
    """Hold the per-entry ``flock`` for a metadata read-modify-write.

    ``meta.json`` is written whole by :meth:`ModelStore.store` and
    patched in place by the last-access touch on reads; without mutual
    exclusion a touch that read the *old* metadata could republish it
    over a concurrent writer's fresh provenance.  The lock is kernel-
    owned (dies with the holder, like ``perf_log``'s trajectory lock)
    and best-effort: where ``fcntl`` is unavailable the writers fall
    back to bare atomic replaces, whose race loses only an access-time
    update.
    """
    if fcntl is None:
        yield
        return
    handle = open(os.path.join(entry_dir, ".lock"), "a+")
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        handle.close()


def _identity(path):
    info = os.stat(path)
    return info.st_dev, info.st_ino


_TTL_SUFFIXES = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def parse_ttl(value):
    """Parse a TTL spec to seconds, or ``None`` for "no TTL".

    Accepts ``None``/``""``/``"none"``/``0`` (no TTL), a plain second
    count, or a count with an s/m/h/d suffix (case-insensitive):
    ``"90s"``, ``"15m"``, ``"12h"``, ``"7d"``.
    """
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        seconds = float(value)
    else:
        text = str(value).strip().lower()
        if text in ("", "none", "0"):
            return None
        scale = 1.0
        if text[-1] in _TTL_SUFFIXES:
            scale = _TTL_SUFFIXES[text[-1]]
            text = text[:-1]
        try:
            seconds = float(text) * scale
        except ValueError as exc:
            raise ValidationError(
                f"ttl must look like '7d', '12h' or a second count, "
                f"got {value!r}"
            ) from exc
    if seconds < 0:
        raise ValidationError(f"ttl must be >= 0, got {value!r}")
    return seconds or None


def fingerprint_system(system):
    """Hex SHA-256 structural fingerprint of a system.

    Hashes the class name plus every kernel-defining matrix — shapes,
    dtypes, sparsity structure (CSR indptr/indices) and data bytes —
    so two systems fingerprint equal iff they are numerically the same
    model.  The human-readable ``name`` is deliberately excluded.

    Supports the serializable system families (:class:`StateSpace`,
    the :class:`PolynomialODE` hierarchy) plus :class:`ExponentialODE`
    (hashing its exponential terms), covering everything
    MNA assembly can produce.
    """
    digest = hashlib.sha256()
    digest.update(_FINGERPRINT_TAG)
    digest.update(type(system).__name__.encode())
    if isinstance(system, StateSpace):
        fields = ("a", "b", "c", "d")
    elif isinstance(system, (PolynomialODE, ExponentialODE)):
        fields = ("g1", "b", "g2", "g3", "mass", "output")
    else:
        raise ValidationError(
            f"cannot fingerprint a {type(system).__name__}; supported: "
            "StateSpace, PolynomialODE/QLDAE/CubicODE, ExponentialODE"
        )
    for field in fields:
        digest.update(field.encode())
        update_digest(digest, getattr(system, field, None))
    d1 = getattr(system, "d1", None)
    digest.update(b"d1")
    if d1 is None:
        update_digest(digest, None)
    else:
        for mat in d1:
            update_digest(digest, mat)
    for term in getattr(system, "exp_terms", ()):
        digest.update(b"exp_term")
        update_digest(digest, np.asarray(term.coefficient))
        update_digest(digest, np.asarray(term.exponent))
    return digest.hexdigest()


def reducer_fingerprint(reducer):
    """Hex SHA-256 of a reducer's identity-defining configuration."""
    desc = reducer_provenance(reducer)
    encoded = json.dumps(desc, sort_keys=True, default=repr)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def artifact_key(system, reducer, system_fingerprint=None):
    """Content-addressed key for (*system*, *reducer*).

    The same structural × reducer fingerprint the store shards entries
    by; exposed at module level so other layers (checkpoints, the
    serving daemon) can key state identically without holding a
    :class:`ModelStore`.  *system_fingerprint*, when given, must be the
    value :func:`fingerprint_system` would return for *system* — callers
    that already hold it (a served process fingerprints each loaded spec
    once) skip the re-hash of every system matrix.
    """
    digest = hashlib.sha256()
    digest.update(f"schema-{SCHEMA_VERSION}".encode())
    if system_fingerprint is None:
        system_fingerprint = fingerprint_system(system)
    digest.update(str(system_fingerprint).encode())
    digest.update(reducer_fingerprint(reducer).encode())
    return digest.hexdigest()


def _accepts_checkpoint(reducer):
    """True when ``reducer.reduce`` takes a ``checkpoint`` keyword."""
    try:
        signature = inspect.signature(reducer.reduce)
    except (TypeError, ValueError):
        return False
    return "checkpoint" in signature.parameters


class ModelStore:
    """Content-addressed artifact store rooted at one directory.

    Parameters
    ----------
    root : str or Path
        Store directory (created if absent).  Layout:
        ``objects/<key[:2]>/<key>/artifact.npz`` + ``meta.json`` per
        entry; quarantined corrupt files get a ``.corrupt`` suffix.

    The instance keeps hit/miss/corruption counters
    (:meth:`stats`, in the spirit of ``sparse_lu_stats``) so serving
    layers can report cache effectiveness.
    """

    def __init__(self, root):
        self.root = Path(root)
        (self.root / "objects").mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.quarantine_collisions = 0
        self.touches = 0
        self.evictions = 0

    # -- keys ----------------------------------------------------------------

    def key_for(self, system, reducer, system_fingerprint=None):
        """Content-addressed key for (*system*, *reducer*)."""
        return artifact_key(
            system, reducer, system_fingerprint=system_fingerprint
        )

    def _entry_dir(self, key):
        return self.root / "objects" / key[:2] / key

    def artifact_path(self, key):
        """Path the artifact for *key* lives at (whether or not present)."""
        return self._entry_dir(key) / "artifact.npz"

    def keys(self):
        """Keys of all entries currently on disk (sorted)."""
        objects = self.root / "objects"
        return sorted(
            entry.name
            for shard in objects.iterdir() if shard.is_dir()
            for entry in shard.iterdir()
            if entry.is_dir() and (entry / "artifact.npz").exists()
        )

    def __len__(self):
        return len(self.keys())

    def __contains__(self, key):
        return self.artifact_path(key).exists()

    # -- load / store --------------------------------------------------------

    def _quarantine(self, path, identity=None):
        """Move a broken file aside so it is not re-parsed every query.

        With *identity* (the ``(st_dev, st_ino)`` of the file that
        failed) only that file is moved: the check and the rename run
        under the entry lock, which :meth:`store` also holds to publish
        an artifact, so a fresh artifact a concurrent writer published
        after the failed read is never quarantined in its place.

        Repeated corruption of the same entry must not overwrite the
        evidence: when ``<path>.corrupt`` already exists the quarantine
        file gets a unique numeric suffix instead, and the collision is
        counted (:meth:`stats`) so operators notice a store that keeps
        re-corrupting.
        """
        try:
            with _entry_lock(os.path.dirname(path)):
                if identity is not None and _identity(path) != identity:
                    return
                target = f"{path}.corrupt"
                if os.path.exists(target):
                    self.quarantine_collisions += 1
                    suffix = 1
                    while os.path.exists(f"{target}.{suffix}"):
                        suffix += 1
                    target = f"{target}.{suffix}"
                os.replace(path, target)
        except OSError:
            pass  # entry gone, or FS refuses: still a miss

    @staticmethod
    def _read(path):
        """One load attempt: ``(artifact, identity, error)``.

        *identity* is the ``(st_dev, st_ino)`` of the file actually
        read, so a failure can be told apart from a concurrent
        overwrite.  Raises :class:`OSError` when the file cannot be
        opened at all.
        """
        with open(path, "rb") as handle:
            info = os.fstat(handle.fileno())
            identity = (info.st_dev, info.st_ino)
            try:
                artifact = ReductionArtifact.load(handle, verify=True)
            except Exception as exc:
                return None, identity, exc
        return artifact, identity, None

    def load(self, key, touch=True):
        """Artifact for *key*, or ``None`` on miss/corruption/schema skew.

        Never raises for a bad entry: a file that fails to load twice
        in a row (unreadable archive, failed basis-hash verification)
        is quarantined, bumps the ``corrupt`` counter and reads as a
        miss so the caller recomputes.  A failure on a file that a
        concurrent :meth:`store` has replaced since is retried on the
        new file, so readers never see a miss while a key is
        overwritten.

        Successful loads record a last-access timestamp in the entry's
        ``meta.json`` (atomic, best-effort; *touch=False* skips it) —
        the signal eviction/GC policies and the serving layer's
        hot-cache warm start key on.
        """
        path = self.artifact_path(key)
        failed = None
        for _ in range(3):
            try:
                artifact, identity, error = self._read(path)
            except OSError:
                return None  # absent (or unreadable): a plain miss
            if error is None:
                if touch:
                    self._touch_meta(key)
                return artifact
            if isinstance(error, SchemaMismatchError):
                # Incompatible-but-intact entry written by another
                # library version: recompute-and-overwrite, don't
                # quarantine what that version can still read.
                return None
            if identity == failed:
                self.corrupt += 1
                self._quarantine(path, identity)
                return None
            failed = identity
        return None

    def _touch_meta(self, key):
        """Record "now" as *key*'s last access in ``meta.json``.

        Atomic (temp file + ``os.replace`` under the entry flock, so a
        concurrent :meth:`store` overwrite can never be resurrected with
        stale provenance) and best-effort: losing an access-time update
        to a crash or a read-only store directory costs nothing but
        eviction-ordering precision, so failures are swallowed.  No
        fsync — an access time is not worth a disk flush per read.
        """
        entry = self._entry_dir(key)
        meta_path = entry / "meta.json"
        try:
            with _entry_lock(entry):
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
                if not isinstance(meta, dict):
                    return False
                meta["last_access_unix"] = float(time.time())
                fd, tmp_path = tempfile.mkstemp(
                    prefix="meta.json.tmp", dir=entry
                )
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as handle:
                        handle.write(
                            json.dumps(meta, indent=2, default=repr) + "\n"
                        )
                    os.replace(tmp_path, meta_path)
                except BaseException:
                    with contextlib.suppress(OSError):
                        os.unlink(tmp_path)
                    raise
        except (OSError, ValueError):
            return False
        self.touches += 1
        return True

    def read_meta(self, key):
        """The entry's ``meta.json`` dict, or ``None`` when unreadable."""
        try:
            meta = json.loads(
                (self._entry_dir(key) / "meta.json").read_text(
                    encoding="utf-8"
                )
            )
        except (OSError, ValueError):
            return None
        return meta if isinstance(meta, dict) else None

    def last_access(self, key):
        """Unix time of *key*'s last recorded access (or ``None``).

        Falls back to the artifact's creation time for entries written
        before access recording existed (or whose meta was lost).
        """
        meta = self.read_meta(key)
        if meta is None:
            return None
        value = meta.get("last_access_unix")
        if value is None:
            provenance = meta.get("provenance")
            if isinstance(provenance, dict):
                value = provenance.get("created_unix")
        try:
            return float(value)
        except (TypeError, ValueError):
            return None

    def recent_keys(self, limit=None):
        """Keys ordered most-recently-accessed first.

        The ordering eviction/GC reads, and what
        :meth:`repro.serve.HotROMCache.warm_start` uses to pre-load the
        hottest ROMs into a fresh serving process.  Entries without any
        recorded time sort last (oldest).
        """
        keys = self.keys()
        decorated = sorted(
            ((self.last_access(key) or 0.0, key) for key in keys),
            key=lambda pair: (-pair[0], pair[1]),
        )
        keys = [key for _, key in decorated]
        return keys if limit is None else keys[: max(0, int(limit))]

    def store(self, key, artifact):
        """Write *artifact* under *key* (atomic; overwrites).

        Returns the artifact path.  ``meta.json`` carries the
        JSON-queryable summary (schema, provenance) so tooling can list
        a store without decompressing any arrays.
        """
        entry = self._entry_dir(key)
        entry.mkdir(parents=True, exist_ok=True)
        path = entry / "artifact.npz"
        meta = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "provenance": json_safe(artifact.provenance),
            "last_access_unix": float(time.time()),
        }
        # The archive is written (and fsync'd) under a private name and
        # published under the entry lock, where a reader's quarantine
        # checks which file failed (see _quarantine).
        fd, staged = tempfile.mkstemp(prefix="artifact.npz.staged", dir=entry)
        os.close(fd)
        try:
            artifact.save(staged)
            with _entry_lock(entry):
                os.replace(staged, path)
                fault_point("store.before_meta")
                durable_write(
                    entry / "meta.json",
                    json.dumps(meta, indent=2, default=repr) + "\n",
                )
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(staged)
            raise
        return path

    # -- the serving entry point ---------------------------------------------

    def reduce(self, system, reducer, checkpoint=None,
               system_fingerprint=None):
        """Reduce *system* with *reducer*, served from the store if seen.

        Returns ``(artifact, hit)`` — *hit* is True when the artifact
        came off disk.  On a miss (including a corrupt or
        schema-incompatible entry) the reduction runs in-process and
        the store entry is (re)written.

        *checkpoint* (a :class:`~repro.checkpoint.JobState`) is passed
        through to reducers whose ``reduce`` accepts one, so a killed
        miss-path build resumes from its last committed stage instead of
        restarting; reducers without checkpoint support run unchanged.

        *system_fingerprint* — the precomputed
        :func:`fingerprint_system` value — lets a serving process that
        fingerprints each loaded spec once skip re-hashing the system
        here (twice, historically: once for the key and once for the
        miss-path provenance).
        """
        if system_fingerprint is None:
            system_fingerprint = fingerprint_system(system)
        key = self.key_for(
            system, reducer, system_fingerprint=system_fingerprint
        )
        artifact = self.load(key)
        if artifact is not None:
            self.hits += 1
            return artifact, True
        self.misses += 1
        if checkpoint is not None and _accepts_checkpoint(reducer):
            rom = reducer.reduce(system, checkpoint=checkpoint)
        else:
            rom = reducer.reduce(system)
        artifact = ReductionArtifact.from_reduction(
            rom,
            system=system,
            reducer=reducer,
            system_fingerprint=system_fingerprint,
        )
        self.store(key, artifact)
        return artifact, False

    # -- maintenance ---------------------------------------------------------

    def verify(self, quarantine=True):
        """Re-check every entry end to end (``store verify``).

        Loads each artifact with its basis SHA-256 digest re-computed
        and compared against the recorded ``basis_hash``.  Failing
        entries are quarantined (unless *quarantine* is false) and
        counted as corrupt.  Returns a JSON-safe report::

            {"checked": N, "ok": N_ok, "corrupt": N_bad,
             "entries": [{"key", "ok", "error"?}, ...]}
        """
        entries = []
        bad = 0
        for key in self.keys():
            path = self.artifact_path(key)
            try:
                _, identity, error = self._read(path)
            except OSError as exc:
                identity, error = None, exc
            if error is None:
                entries.append({"key": key, "ok": True})
                continue
            bad += 1
            self.corrupt += 1
            if quarantine:
                self._quarantine(path, identity)
            entries.append({"key": key, "ok": False, "error": str(error)})
        return {
            "checked": len(entries),
            "ok": len(entries) - bad,
            "corrupt": bad,
            "entries": entries,
        }

    def entry_bytes(self, key):
        """On-disk bytes of *key*'s entry directory (0 when absent)."""
        total = 0
        with contextlib.suppress(OSError):
            for child in self._entry_dir(key).iterdir():
                with contextlib.suppress(OSError):
                    if child.is_file():
                        total += child.stat().st_size
        return total

    def ls(self):
        """JSON-safe listing (``store ls``): one row per entry, most
        recently accessed first, plus totals."""
        rows = []
        total = 0
        for key in self.recent_keys():
            size = self.entry_bytes(key)
            total += size
            rows.append({
                "key": key,
                "bytes": int(size),
                "last_access_unix": self.last_access(key),
            })
        return {
            "entries": rows,
            "count": len(rows),
            "total_bytes": int(total),
        }

    def _evict(self, key):
        """Remove *key*'s entry under its flock; True when it is gone.

        The artifact is unlinked first while the entry lock is held, so
        a concurrent :meth:`load` observes a plain miss (and a racing
        :meth:`store` that re-creates the entry after we release the
        lock simply wins — eviction of a just-rewritten entry is not
        worth fencing against).
        """
        entry = self._entry_dir(key)
        if not entry.exists():
            return False
        try:
            with _entry_lock(entry):
                with contextlib.suppress(OSError):
                    (entry / "artifact.npz").unlink()
                with contextlib.suppress(OSError):
                    (entry / "meta.json").unlink()
        except OSError:
            return False
        shutil.rmtree(entry, ignore_errors=True)
        self.evictions += 1
        return True

    def gc(self, max_bytes=None, ttl=None, now=None):
        """Size/TTL-budgeted eviction (``store gc``).

        Two policies compose, both keyed on the ``last_access_unix``
        stamps reads record in ``meta.json``: entries idle longer than
        *ttl* (see :func:`parse_ttl`) are dropped unconditionally, then
        further entries go oldest-first until the store's on-disk size
        is at most *max_bytes* (see
        :func:`repro.memory.parse_budget`).  Entries without any
        recorded access sort oldest.  Each eviction holds the entry
        flock (concurrent readers see a clean miss) and an eviction is
        atomic per entry — GC never leaves a half-deleted artifact
        behind.  Returns a JSON-safe report.
        """
        max_bytes = parse_budget(max_bytes)
        ttl_seconds = parse_ttl(ttl)
        now = float(now if now is not None else time.time())
        oldest_first = list(reversed(self.recent_keys()))
        sizes = {key: self.entry_bytes(key) for key in oldest_first}
        total = sum(sizes.values())
        evicted = []

        def drop(key, reason):
            nonlocal total
            if self._evict(key):
                evicted.append({
                    "key": key,
                    "bytes": int(sizes[key]),
                    "reason": reason,
                })
                total -= sizes[key]
                return True
            return False

        if ttl_seconds is not None:
            for key in list(oldest_first):
                last = self.last_access(key)
                if last is None or now - last > ttl_seconds:
                    if drop(key, "ttl"):
                        oldest_first.remove(key)
        if max_bytes is not None:
            for key in list(oldest_first):
                if total <= max_bytes:
                    break
                drop(key, "size")
        return {
            "evicted": evicted,
            "evicted_count": len(evicted),
            "evicted_bytes": int(sum(e["bytes"] for e in evicted)),
            "remaining_entries": len(self),
            "remaining_bytes": int(total),
            "max_bytes": max_bytes,
            "ttl_seconds": ttl_seconds,
        }

    def stats(self):
        """Counters + entry count, ``sparse_lu_stats``-style."""
        return {
            "hits": int(self.hits),
            "misses": int(self.misses),
            "corrupt": int(self.corrupt),
            "quarantine_collisions": int(self.quarantine_collisions),
            "touches": int(self.touches),
            "evictions": int(self.evictions),
            "entries": len(self),
        }

    def __repr__(self):
        return f"ModelStore(root={str(self.root)!r}, entries={len(self)})"
