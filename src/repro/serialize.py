"""Serialization substrate: nested payload trees ↔ ``.npz`` files.

The offline/online split of the paper's NMOR workflow (reduce once,
query many times) only pays off if the reduction *survives the process*:
systems, ROMs and reduction artifacts must round-trip through disk.
This module is the shared codec every ``to_dict``/``from_dict`` +
``save``/``load`` pair in the library builds on.

A *payload tree* is a nested structure of

* JSON scalars (``None``, ``bool``, ``int``, ``float``, ``str``),
* complex scalars,
* lists/tuples (tuples normalize to lists on decode),
* string-keyed dicts,
* numpy ndarrays (any dtype numpy stores natively), and
* scipy sparse matrices (normalized to CSR — sparsity is **preserved**:
  a CSR matrix written to disk comes back as CSR, never densified).

``save_payload`` flattens the tree into one ``.npz`` archive: every
array/CSR block becomes an npz member, the remaining structure becomes a
JSON manifest stored as a ``uint8`` member.  Loads use
``allow_pickle=False`` throughout, so a payload file can never execute
code — a corrupt or malicious file fails with an exception, which the
:mod:`repro.store` layer treats as a cache miss.

Writes are atomic *and durable*: the archive is assembled in a temp file
in the target directory, ``fsync``'d, moved into place with
``os.replace``, and the parent directory is ``fsync``'d — so neither a
crash mid-write nor a power loss right after the rename can lose or
tear a file under its final name.  :func:`durable_write` exposes the
same discipline for small text files (store metadata, reports), and
both paths carry named :func:`~repro.testing.faults.fault_point` crash
sites so the guarantee is testable.
"""

import hashlib
import json
import os
import tempfile

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .testing.faults import fault_point

__all__ = [
    "array_digest",
    "durable_write",
    "fsync_directory",
    "json_safe",
    "load_payload",
    "save_payload",
    "update_digest",
]

#: Reserved marker keys — payload dicts must not use them as plain keys.
_MARKERS = ("__ndarray__", "__csr__", "__complex__", "__manifest__")


# ---------------------------------------------------------------------------
# encoding / decoding
# ---------------------------------------------------------------------------


def _encode(node, arrays, path):
    """Encode one tree node into its JSON form, collecting arrays."""
    if node is None or isinstance(node, (bool, str)):
        return node
    if isinstance(node, (int, np.integer)):
        return int(node)
    if isinstance(node, (float, np.floating)):
        return float(node)
    if isinstance(node, (complex, np.complexfloating)):
        node = complex(node)
        return {"__complex__": [node.real, node.imag]}
    if isinstance(node, np.ndarray):
        key = f"a{len(arrays)}"
        arrays[key] = node
        return {"__ndarray__": key}
    if sp.issparse(node):
        csr = sp.csr_matrix(node)
        key = f"a{len(arrays)}"
        arrays[f"{key}.data"] = csr.data
        arrays[f"{key}.indices"] = csr.indices
        arrays[f"{key}.indptr"] = csr.indptr
        return {"__csr__": {"key": key, "shape": list(csr.shape)}}
    if isinstance(node, (list, tuple)):
        return [
            _encode(item, arrays, f"{path}[{idx}]")
            for idx, item in enumerate(node)
        ]
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if not isinstance(key, str):
                raise ValidationError(
                    f"payload dict keys must be strings, got {key!r} "
                    f"at {path}"
                )
            if key in _MARKERS:
                raise ValidationError(
                    f"payload key {key!r} is reserved (at {path})"
                )
            out[key] = _encode(value, arrays, f"{path}.{key}")
        return out
    raise ValidationError(
        f"cannot serialize object of type {type(node).__name__} at {path}"
    )


def _decode(node, arrays):
    if isinstance(node, dict):
        if "__complex__" in node:
            re_part, im_part = node["__complex__"]
            return complex(re_part, im_part)
        if "__ndarray__" in node:
            return arrays[node["__ndarray__"]]
        if "__csr__" in node:
            meta = node["__csr__"]
            key = meta["key"]
            return sp.csr_matrix(
                (
                    arrays[f"{key}.data"],
                    arrays[f"{key}.indices"],
                    arrays[f"{key}.indptr"],
                ),
                shape=tuple(meta["shape"]),
            )
        return {key: _decode(value, arrays) for key, value in node.items()}
    if isinstance(node, list):
        return [_decode(item, arrays) for item in node]
    return node


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def fsync_directory(directory):
    """Best-effort ``fsync`` of a directory, making a rename durable.

    ``os.replace`` is atomic but the new directory entry lives in the
    page cache until the directory inode is flushed; a power loss in
    that window can forget the rename.  Failures are swallowed —
    some filesystems refuse directory fsync, and losing durability
    there is no worse than the pre-fsync behaviour.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def durable_write(path, data, encoding="utf-8"):
    """Atomically and durably write *data* (str or bytes) at *path*.

    Temp file in the destination directory → ``fsync`` → ``os.replace``
    → parent-directory ``fsync``.  Crash sites:
    ``durable.before_replace`` / ``durable.after_replace``.
    """
    path = os.fspath(path)
    if isinstance(data, str):
        data = data.encode(encoding)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        fault_point("durable.before_replace")
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    fault_point("durable.after_replace")
    fsync_directory(directory)
    return path


def save_payload(path, tree, compress=True, durable=True):
    """Write a payload tree to *path* as one ``.npz`` archive, atomically.

    The archive is assembled in a temp file in the destination directory
    and moved into place with ``os.replace``, so concurrent readers see
    either the old file or the new one — never a torn write.  With
    *durable* (default) the temp file is ``fsync``'d before the rename
    and the directory after it, so the write also survives power loss.
    *compress* selects ``np.savez_compressed`` (default) vs plain
    ``np.savez`` — checkpoint blocks pass ``compress=False`` to keep the
    incremental-snapshot overhead small.  Crash sites:
    ``serialize.before_replace`` / ``serialize.after_replace``.
    """
    path = os.fspath(path)
    arrays = {}
    manifest = _encode(tree, arrays, path="$")
    manifest_bytes = json.dumps(manifest).encode("utf-8")
    arrays["__manifest__"] = np.frombuffer(manifest_bytes, dtype=np.uint8)
    directory = os.path.dirname(path) or "."
    writer = np.savez_compressed if compress else np.savez
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            writer(handle, **arrays)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        fault_point("serialize.before_replace")
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    fault_point("serialize.after_replace")
    if durable:
        fsync_directory(directory)
    return path


def load_payload(path):
    """Load a payload tree written by :func:`save_payload`.

    *path* may also be an open binary file (the store reads through its
    own handle to know which file it read).

    Raises on any structural problem (missing manifest, bad JSON, missing
    array members, truncated zip) — callers that need corruption
    *tolerance* catch and treat it as absence, as :mod:`repro.store`
    does.  ``allow_pickle=False``: payload files cannot execute code.
    """
    source = path if hasattr(path, "read") else os.fspath(path)
    with np.load(source, allow_pickle=False) as archive:
        if "__manifest__" not in archive.files:
            raise ValidationError(
                f"{path} is not a repro payload file (no manifest)"
            )
        manifest = json.loads(bytes(archive["__manifest__"]).decode("utf-8"))
        arrays = {
            name: archive[name]
            for name in archive.files
            if name != "__manifest__"
        }
    return _decode(manifest, arrays)


# ---------------------------------------------------------------------------
# hashing / sanitizing helpers
# ---------------------------------------------------------------------------


def update_digest(digest, value):
    """Feed one payload value (scalar, ndarray or sparse) into *digest*.

    Dense arrays hash their shape, dtype and C-contiguous bytes; sparse
    matrices hash the CSR structure (indptr/indices) *and* data, so two
    systems with the same sparsity pattern but different entries — or
    the same entries in a different pattern — fingerprint differently.
    """
    if value is None:
        digest.update(b"<none>")
    elif sp.issparse(value):
        csr = sp.csr_matrix(value)
        digest.update(b"csr")
        digest.update(repr(csr.shape).encode())
        digest.update(str(csr.dtype).encode())
        digest.update(np.ascontiguousarray(csr.indptr).tobytes())
        digest.update(np.ascontiguousarray(csr.indices).tobytes())
        digest.update(np.ascontiguousarray(csr.data).tobytes())
    elif isinstance(value, np.ndarray):
        digest.update(b"dense")
        digest.update(repr(value.shape).encode())
        digest.update(str(value.dtype).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    else:
        digest.update(repr(value).encode())
    return digest


def array_digest(value):
    """Hex SHA-256 of one array/sparse matrix (shape + dtype + data)."""
    return update_digest(hashlib.sha256(), value).hexdigest()


def json_safe(value):
    """Coerce diagnostics (e.g. ``ReducedOrderModel.details``) to the
    payload-scalar subset: numpy scalars unwrap, complex numbers stay
    complex (the codec encodes them), small arrays become lists, and
    anything unrecognized degrades to ``str(value)`` — diagnostics must
    never make an artifact unsaveable.

    Non-finite floats become the strings ``"inf"``/``"-inf"``/``"nan"``:
    strict RFC-8259 JSON has no tokens for them, and the pipeline/CLI
    reports built on this helper promise machine-parseable output
    (``json.dumps(..., allow_nan=False)`` downstream enforces it).
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if np.isfinite(value) else repr(value)
    if isinstance(value, (complex, np.complexfloating)):
        return complex(value)
    if isinstance(value, np.ndarray):
        return json_safe(value.tolist())
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): json_safe(val) for key, val in value.items()}
    return str(value)
