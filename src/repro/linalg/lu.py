"""Shared one-shot LU helpers (sparse-aware).

:func:`sparse_lu` is the one home of the SuperLU wrapper (error mapping
plus the near-singular pivot guard shared with
:class:`~repro.linalg.resolvent.ResolventFactory`'s sparse branch);
:func:`factorized_solver` layers the sparse/dense dispatch on top for
callers that just need a ``solve`` callable — the shift-invert Krylov
chains (:mod:`repro.mor.krylov`, :mod:`repro.mor.norm`) and the
variational integrator (:mod:`repro.volterra.response`).  Chord-Newton
(:mod:`repro.simulation.newton`) wraps :func:`sparse_lu` in its own
cache-facing factorization objects instead, because the chord cache
tracks which storage form it holds.
"""

import hashlib
import threading
from collections import OrderedDict

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import NumericalError

__all__ = [
    "ShiftRefactor",
    "csc_pattern_digest",
    "factorized_solver",
    "shifted_matrix",
    "sparse_lu",
    "symbolic_cache_stats",
]

#: A sparse-LU U-pivot smaller than this multiple of the largest pivot
#: marks the matrix numerically singular (mirrors the dense Schur
#: eigenvalue-gap threshold in the resolvent factory).
_PIVOT_RTOL = 1e-13

#: Distinct sparsity patterns whose fill-reducing column orderings are
#: kept alive for :class:`ShiftRefactor`.  A parametric corner sweep
#: uses exactly one pattern; the bound only matters when many unrelated
#: systems interleave.
_SYMBOLIC_CACHE_CAP = 32

_SYMBOLIC_LOCK = threading.Lock()
_SYMBOLIC_CACHE = OrderedDict()  # pattern digest -> perm_c ndarray


def _guard_pivots(lu):
    pivots = np.abs(lu.U.diagonal())
    if pivots.size and pivots.min() <= _PIVOT_RTOL * pivots.max():
        raise NumericalError(
            "matrix is numerically singular (sparse LU pivot ratio "
            f"{pivots.min() / max(pivots.max(), 1e-300):.3e})"
        )


def _splu(csc, guard, **options):
    try:
        lu = spla.splu(csc, **options)
    except RuntimeError as exc:
        raise NumericalError(f"sparse LU failed: {exc}") from exc
    if guard:
        _guard_pivots(lu)
    return lu


def sparse_lu(mat, guard=True):
    """SuperLU factorization of a sparse square matrix.

    With *guard* (the default) a vanishing U pivot raises
    :class:`~repro.errors.NumericalError` instead of letting the
    backsolve return garbage silently.  Chord-Newton passes
    ``guard=False``: its near-singular iteration matrices are recovered
    by backtracking/refresh, matching the dense LAPACK behavior.
    """
    return _splu(sp.csc_matrix(mat), guard)


def csc_pattern_digest(mat):
    """Content digest of a sparse matrix's CSC sparsity pattern.

    Hashes shape + ``indptr`` + ``indices`` (never the data), so two
    matrices with the same structure — e.g. every corner of a parameter
    sweep — share one digest regardless of their numeric values.
    """
    csc = mat if sp.issparse(mat) and mat.format == "csc" \
        else sp.csc_matrix(mat)
    digest = hashlib.sha256()
    digest.update(repr(csc.shape).encode())
    digest.update(np.ascontiguousarray(csc.indptr).tobytes())
    digest.update(np.ascontiguousarray(csc.indices).tobytes())
    return digest.hexdigest()


class _PermutedLU:
    """SuperLU factorization of a column-pre-permuted matrix.

    Wraps ``splu(A[:, perm])`` so callers see solves in the original
    column order: ``A x = b`` with ``x = Π y`` where ``A[:, perm] y = b``
    (and the transposed/adjoint variants permute the right-hand side
    instead).  Exposes ``.U``/``.L`` of the underlying factorization for
    the pivot guard.
    """

    __slots__ = ("_lu", "_perm")

    def __init__(self, lu, perm):
        self._lu = lu
        self._perm = perm

    @property
    def U(self):
        return self._lu.U

    @property
    def L(self):
        return self._lu.L

    def solve(self, rhs, trans="N"):
        if trans == "N":
            y = self._lu.solve(np.ascontiguousarray(rhs))
            out = np.empty_like(y)
            out[self._perm] = y
            return out
        if trans in ("T", "H"):
            permuted = np.ascontiguousarray(np.asarray(rhs)[self._perm])
            return self._lu.solve(permuted, trans=trans)
        raise ValueError(f"unsupported trans {trans!r}")


def _cached_ordering(pattern):
    with _SYMBOLIC_LOCK:
        perm = _SYMBOLIC_CACHE.get(pattern)
        if perm is not None:
            _SYMBOLIC_CACHE.move_to_end(pattern)
        return perm


def _remember_ordering(pattern, perm):
    with _SYMBOLIC_LOCK:
        _SYMBOLIC_CACHE[pattern] = perm
        while len(_SYMBOLIC_CACHE) > _SYMBOLIC_CACHE_CAP:
            _SYMBOLIC_CACHE.popitem(last=False)


class ShiftRefactor:
    """Factor ``s·I − A`` for many shifts ``s`` on one sparsity pattern.

    The pattern is that of ``A + I`` (a diagonal entry ``A`` lacks
    structurally still needs a slot for the shift), stored with the
    values of ``−A`` and the positions of its diagonal slots in
    ``data``.  Each shift copies those values, adds ``s`` at the slots
    and hands the arrays straight to SuperLU — no sparse arithmetic.

    SuperLU has no public symbolic/numeric split, but its expensive
    structural work — the fill-reducing column ordering — depends only
    on the pattern.  The first factorization of a pattern runs the full
    analysis and caches ``perm_c`` module-wide under the pattern's
    :func:`csc_pattern_digest`; from then on the pattern is stored
    column-permuted and every shift (and every other refactor over the
    same pattern: the corners of a parameter sweep) factors with
    ``permc_spec="NATURAL"``, a numeric-only refactorization under the
    shared ordering.  Row (partial) pivoting still runs per matrix, so
    the numerics are those of a fresh factorization.

    *dtype* is the arithmetic kind (``float`` or ``complex``); complex
    shifts need a complex refactor.
    """

    def __init__(self, a, dtype):
        a = sp.coo_matrix(a)
        n = a.shape[0]
        diag = np.arange(n)
        rows = np.concatenate([a.row, diag])
        cols = np.concatenate([a.col, diag])
        values = np.concatenate([-a.data.astype(dtype), np.zeros(n, dtype)])
        # COO → CSC sums duplicates without dropping zeros, so no
        # structural entry of A + I is lost to cancellation.
        csc = sp.csc_matrix((values, (rows, cols)), shape=a.shape)
        csc.sum_duplicates()
        self.shape = a.shape
        self.pattern = csc_pattern_digest(csc)
        # (indptr, indices, −A values, diagonal slots, column ordering),
        # swapped as one tuple so a concurrent factor never mixes the
        # unpermuted and the permuted layout.
        self._state = self._layout(csc, diag, None)

    @staticmethod
    def _layout(csc, diag_rows, perm):
        column = np.repeat(diag_rows, np.diff(csc.indptr))
        slots = np.flatnonzero(csc.indices == column)
        return csc.indptr, csc.indices, csc.data, slots, perm

    def _matrix(self, state, shift):
        indptr, indices, neg, slots, _ = state
        data = neg.copy()
        data[slots] += shift
        return sp.csc_matrix((data, indices, indptr), shape=self.shape)

    def _permuted(self, state, perm):
        indptr, indices, neg, _, _ = state
        csc = sp.csc_matrix((neg, indices, indptr), shape=self.shape)
        self._state = self._layout(csc[:, perm], perm, perm)
        return self._state

    def factor(self, shift, guard=True):
        """SuperLU of ``shift·I − A``; returns ``(lu, reused)`` where
        *reused* tells whether a cached column ordering served it.

        With *guard* a vanishing U pivot raises
        :class:`~repro.errors.NumericalError` (see :func:`sparse_lu`).
        """
        state = self._state
        if state[4] is None:
            perm = _cached_ordering(self.pattern)
            if perm is None:
                lu = _splu(self._matrix(state, shift), guard)
                perm = np.asarray(lu.perm_c).copy()
                _remember_ordering(self.pattern, perm)
                self._permuted(state, perm)
                return lu, False
            state = self._permuted(state, perm)
        lu = _splu(
            self._matrix(state, shift), guard, permc_spec="NATURAL"
        )
        return _PermutedLU(lu, state[4]), True


def symbolic_cache_stats():
    """Size snapshot of the shared symbolic-analysis cache (tests)."""
    with _SYMBOLIC_LOCK:
        return {"patterns": len(_SYMBOLIC_CACHE)}


def shifted_matrix(a, shift):
    """``A − shift·I`` in storage and dtype matching *a* and *shift*.

    Sparse input stays sparse (CSC, ready for ``splu``); dense input
    relies on numpy's dtype promotion for complex shifts.
    """
    n = a.shape[0]
    if sp.issparse(a):
        complex_shift = (
            np.iscomplexobj(np.asarray(shift)) and np.imag(shift) != 0.0
        )
        dtype = complex if complex_shift or a.dtype.kind == "c" else float
        return sp.csc_matrix(
            a.astype(dtype)
            - shift * sp.identity(n, dtype=dtype, format="csc")
        )
    return np.asarray(a) - shift * np.eye(n)


def factorized_solver(mat):
    """Factor *mat* once and return a ``solve(rhs)`` callable.

    Sparse matrices go through SuperLU with a pivot-ratio singularity
    guard (raising :class:`~repro.errors.NumericalError`); dense ones
    through LAPACK ``lu_factor`` with its native error behavior.
    """
    if sp.issparse(mat):
        return sparse_lu(mat).solve
    lu = sla.lu_factor(mat)

    def solve(rhs):
        return sla.lu_solve(lu, rhs)

    return solve
