"""Factorization-reuse resolvent solves — the library's solve substrate.

The paper's cost argument (§2.3) is that the associated-transform method
wins because *every* shifted solve reuses one factorization of the system
matrix.  This module is the reusable embodiment of that idea for the
plain resolvent ``(s I − G1)^{-1}``:

* :class:`ResolventFactory` factors ``G1`` **once** (complex Schur form
  for dense input, sparse LU per shift for sparse input) and then serves
  ``(s I − G1)^{-1} RHS`` for *any* shift ``s`` at ``O(n²)`` per solve
  (dense path) instead of the ``O(n³)`` of a fresh ``np.linalg.solve``.
* :meth:`ResolventFactory.solve_many` batches whole shift grids: the
  right-hand side is rotated into the Schur basis once, each shift costs
  one triangular substitution, and the back-rotation is a single GEMM
  over all shifts — the primitive behind the batched frequency sweeps in
  :mod:`repro.analysis.distortion` and :mod:`repro.volterra.response`.
* :meth:`ResolventFactory.for_system` memoizes one factory per system
  object (invalidated when the state matrix is replaced), so distortion
  analysis, Volterra kernel evaluation and MOR basis construction on the
  same system all share a single factorization.

Everything caches *factorizations*, never answers: results are always
recomputed from the factored form, so cached and direct paths agree to
rounding.
"""

import threading
from collections import OrderedDict

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .._validation import as_square_matrix
from ..engine import SolvePlan
from ..errors import NumericalError, ValidationError
from .lu import ShiftRefactor
from .schur import SchurForm

__all__ = ["ResolventFactory"]

#: Relative threshold below which ``s I − G1`` is considered singular.
_SINGULAR_RTOL = 1e-13

#: Maximum number of per-shift sparse LU factorizations kept alive.
_SPARSE_LU_CACHE = 64

#: Serializes :meth:`ResolventFactory.for_system` so that concurrent
#: callers hammering the same system always observe exactly one factory.
_FOR_SYSTEM_LOCK = threading.RLock()


class _RealSparseLU:
    """Real SuperLU factorization serving complex right-hand sides.

    Real shifts on real matrices (DC moments, real H1 chains) factor in
    real arithmetic — roughly half the flops and memory of the complex
    factorization they previously paid — and complex right-hand sides
    are served by two real backsolves (still cheaper than one complex
    backsolve on a complex factorization).
    """

    __slots__ = ("_lu",)

    def __init__(self, lu):
        self._lu = lu

    def solve(self, rhs, trans="N"):
        if np.iscomplexobj(rhs):
            real = self._lu.solve(np.ascontiguousarray(rhs.real), trans=trans)
            if np.any(rhs.imag):
                imag = self._lu.solve(
                    np.ascontiguousarray(rhs.imag), trans=trans
                )
                return real + 1j * imag
            return real.astype(complex)
        return self._lu.solve(np.ascontiguousarray(rhs), trans=trans)


class ResolventFactory:
    """Serve ``(s I − A)^{-1} RHS`` for arbitrary shifts from one setup.

    Parameters
    ----------
    a : (n, n) array_like or sparse
        System matrix.  Dense input is Schur-factored once (``A = Q T Qᴴ``,
        so ``(s I − A)^{-1} = Q (s I − T)^{-1} Qᴴ`` and every shift costs
        one triangular substitution).  Sparse input keeps its CSC form and
        caches one sparse LU per distinct shift (bounded LRU); **real**
        sparse input additionally keeps the matrix real, so real shifts
        (DC moments, real H1 chains) factor in real arithmetic — about
        half the flops and memory — and only complex shifts pay the
        complex cast (see :class:`_RealSparseLU`).
    schur : SchurForm, optional
        Precomputed factorization of a dense ``a`` to share (e.g. from an
        :class:`~repro.volterra.associated.AssociatedWorkspace`).

    Attributes
    ----------
    matrix : the matrix handed in (identity is used for cache checks).
    schur : SchurForm or None (dense path only).
    solve_count : number of resolvent applications served so far.
    """

    def __init__(self, a, schur=None):
        self._lock = threading.RLock()
        if sp.issparse(a):
            if a.shape[0] != a.shape[1]:
                raise ValidationError(
                    f"a must be square, got shape {a.shape}"
                )
            self.matrix = a
            self.n = a.shape[0]
            self.schur = None
            # Real input keeps a real CSC: real shifts then factor in
            # real arithmetic (see _RealSparseLU); the complex refactor
            # is built lazily only when a complex shift actually arrives.
            dtype = complex if a.dtype.kind == "c" else float
            self._csc = sp.csc_matrix(a, copy=False).astype(dtype)
            self._real = dtype is float
            self._lu_cache = OrderedDict()
            # One ShiftRefactor per arithmetic kind: the permuted
            # pattern of (sI − A) is built once and every shift only
            # writes values into it.
            self._refactors = {}
            self.sparse_lu_stats = {
                "real": 0,
                "complex": 0,
                "symbolic_analyses": 0,
                "symbolic_reuses": 0,
            }
        else:
            dense = as_square_matrix(a, "a")
            self.matrix = a if isinstance(a, np.ndarray) else dense
            self.n = dense.shape[0]
            if schur is not None and schur.n != dense.shape[0]:
                raise ValidationError(
                    "precomputed Schur form has mismatching dimension"
                )
            self.schur = schur if schur is not None else SchurForm(dense)
            # Work matrix for (s I − T): off-diagonals are fixed at −T,
            # only the diagonal changes per shift.  One copy per thread,
            # so concurrent per-shift tasks never trample each other.
            self._neg_t = -self.schur.t
            self._work = threading.local()
            self._diag = self.schur.eigenvalues
            self._scale = max(np.abs(self._diag).max(), 1.0)
        self.solve_count = 0

    # -- cache management ----------------------------------------------------

    @classmethod
    def for_system(cls, system, attr="_resolvent_factory"):
        """One factory per system object, keyed on the state matrix.

        Works for anything exposing ``.g1`` (polynomial systems) or ``.a``
        (LTI state spaces).  The cache is invalidated when the state
        matrix attribute is rebound to a different array; callers that
        mutate matrices *in place* must drop the cached attribute
        themselves.
        """
        mat = getattr(system, "g1", None)
        if mat is None:
            mat = getattr(system, "a", None)
        if mat is None:
            raise ValidationError(
                "system exposes neither .g1 nor .a; cannot build a "
                "resolvent factory"
            )
        def _lookup():
            cached = getattr(system, attr, None)
            if cached is not None and cached.matrix is mat:
                return cached
            return None

        # Compute-outside-lock, first-insert-wins: concurrent callers
        # racing on one cold system may factor G1 twice (identical
        # results, the first insert is what everyone returns), but the
        # global lock is never held across the O(n³) factorization — a
        # cold build on one system cannot stall lookups on others.
        with _FOR_SYSTEM_LOCK:
            cached = _lookup()
            if cached is not None:
                return cached
        factory = cls(mat)
        with _FOR_SYSTEM_LOCK:
            cached = _lookup()
            if cached is not None:
                return cached
            try:
                setattr(system, attr, factory)
            except AttributeError:
                pass
            return factory

    # -- internals -----------------------------------------------------------

    def _check_shift(self, s):
        gap = np.abs(s - self._diag).min()
        if gap <= _SINGULAR_RTOL * max(self._scale, abs(s)):
            raise NumericalError(
                f"resolvent shift s = {s} is numerically an eigenvalue "
                f"(smallest |s - lambda| = {gap:.3e})"
            )

    def _refactor(self, kind):
        with self._lock:
            refactor = self._refactors.get(kind)
            if refactor is None:
                dtype = float if kind == "real" else complex
                refactor = ShiftRefactor(self._csc, dtype)
                self._refactors[kind] = refactor
            return refactor

    def _factor_shift(self, key):
        """Factor ``(key I − A)`` — real arithmetic for real shifts on
        real matrices, complex otherwise."""
        # The pivot guard mirrors the dense path's eigenvalue-gap check:
        # a shift numerically on the spectrum raises instead of
        # returning a garbage backsolve silently.  The fill-reducing
        # column ordering is shared module-wide per sparsity pattern
        # (parametric corners with identical CSR structure share it),
        # so later shifts/corners pay a numeric-only refactorization.
        kind = "real" if self._real and key.imag == 0.0 else "complex"
        try:
            lu, reused = self._refactor(kind).factor(
                key.real if kind == "real" else key
            )
        except NumericalError as exc:
            raise NumericalError(
                f"sparse LU of (sI - A) at s = {key}: {exc}"
            ) from exc
        if kind == "real":
            lu = _RealSparseLU(lu)
        with self._lock:
            self.sparse_lu_stats[kind] += 1
            self.sparse_lu_stats[
                "symbolic_reuses" if reused else "symbolic_analyses"
            ] += 1
        return lu

    def _sparse_lu(self, s):
        key = complex(s)
        with self._lock:
            lu = self._lu_cache.get(key)
            if lu is not None:
                # True LRU: a hit refreshes recency so hot shifts survive
                # long sweeps over many other shifts.
                self._lu_cache.move_to_end(key)
                return lu
        # Factor outside the lock so concurrent distinct shifts overlap;
        # two threads racing on the *same* cold shift duplicate the
        # factorization (identical results) and the first insert wins.
        lu = self._factor_shift(key)
        with self._lock:
            existing = self._lu_cache.get(key)
            if existing is not None:
                self._lu_cache.move_to_end(key)
                return existing
            self._lu_cache[key] = lu
            if len(self._lu_cache) > _SPARSE_LU_CACHE:
                self._lu_cache.popitem(last=False)
        return lu

    def _triangular(self, s, w):
        """Solve ``(s I − T) y = w`` on this thread's −T work matrix."""
        self._check_shift(s)
        work = getattr(self._work, "mat", None)
        if work is None:
            work = self._neg_t.copy()
            self._work.mat = work
        np.fill_diagonal(work, s - self._diag)
        return sla.solve_triangular(work, w, lower=False)

    # -- public API ----------------------------------------------------------

    def solve(self, s, rhs):
        """Solve ``(s I − A) x = rhs`` for one shift.

        *rhs* may be a vector or a matrix of stacked right-hand sides;
        the result is complex with the same shape.
        """
        rhs = np.asarray(rhs, dtype=complex)
        squeeze = rhs.ndim == 1
        mat = rhs[:, None] if squeeze else rhs
        if mat.shape[0] != self.n:
            raise ValidationError(
                f"rhs has {mat.shape[0]} rows, expected {self.n}"
            )
        with self._lock:
            self.solve_count += mat.shape[1]
        if self.schur is None:
            x = self._sparse_lu(s).solve(np.ascontiguousarray(mat))
        else:
            w = self.schur.q.conj().T @ mat
            x = self.schur.q @ self._triangular(s, w)
        return x[:, 0] if squeeze else x

    def solve_transpose(self, s, rhs):
        """Solve ``(s I − Aᵀ) x = rhs`` for one shift.

        Reuses the same factorization as :meth:`solve`: the dense path
        runs the transposed triangular substitution on the shared Schur
        form; the sparse path serves ``(s I − A)ᵀ x = rhs`` from the
        cached per-shift sparse LU via a transposed backsolve — no second
        factorization.  This is what lets the low-rank Π Sylvester
        iteration (:mod:`repro.linalg.sylvester`) generate its
        ``G1ᵀ``-sided Krylov directions at circuit scale.
        """
        rhs = np.asarray(rhs, dtype=complex)
        squeeze = rhs.ndim == 1
        mat = rhs[:, None] if squeeze else rhs
        if mat.shape[0] != self.n:
            raise ValidationError(
                f"rhs has {mat.shape[0]} rows, expected {self.n}"
            )
        with self._lock:
            self.solve_count += mat.shape[1]
        if self.schur is None:
            x = self._sparse_lu(s).solve(
                np.ascontiguousarray(mat), trans="T"
            )
        else:
            # (s I − Aᵀ) x = rhs  ⇔  (Aᵀ + (−s) I) x = −rhs.
            x = -self.schur.solve_shifted_transpose(-s, mat)
        return x[:, 0] if squeeze else x

    def solve_many(self, shifts, rhs):
        """Solve ``(s I − A) x = rhs`` for a whole grid of shifts.

        Parameters
        ----------
        shifts : sequence of complex
        rhs : (n,) or (n, m) array_like
            Shared right-hand side (e.g. the input matrix ``B`` for a
            frequency sweep of ``H1``).

        Returns
        -------
        (len(shifts), n) or (len(shifts), n, m) complex ndarray.

        On the dense path the basis rotations are hoisted out of the
        shift loop: one ``Qᴴ RHS`` up front, one ``Q @ [y_1 | y_2 | ...]``
        GEMM at the end, and a single triangular substitution per shift.

        The per-shift solves have no data dependencies; the grid runs as
        one :class:`~repro.engine.SolvePlan` task.
        """
        shifts = np.atleast_1d(np.asarray(shifts, dtype=complex))
        rhs = np.asarray(rhs, dtype=complex)
        squeeze = rhs.ndim == 1
        mat = rhs[:, None] if squeeze else rhs
        if mat.shape[0] != self.n:
            raise ValidationError(
                f"rhs has {mat.shape[0]} rows, expected {self.n}"
            )
        k, m = shifts.size, mat.shape[1]
        with self._lock:
            self.solve_count += k * m
        if self.schur is None:
            dense_rhs = np.ascontiguousarray(mat)
            out = np.empty((k, self.n, m), dtype=complex)

            def _sparse_grid():
                for idx in range(k):
                    out[idx] = self._sparse_lu(shifts[idx]).solve(dense_rhs)

            plan = SolvePlan("resolvent.solve_many[sparse]")
            plan.add(_sparse_grid)
            plan.execute()
        else:
            w = self.schur.q.conj().T @ mat
            ys = np.empty((self.n, k * m), dtype=complex)

            def _dense_grid():
                for idx in range(k):
                    s = shifts[idx]
                    ys[:, idx * m : (idx + 1) * m] = self._triangular(s, w)

            plan = SolvePlan("resolvent.solve_many[dense]")
            plan.add(_dense_grid)
            plan.execute()
            x = self.schur.q @ ys
            out = np.moveaxis(x.reshape(self.n, k, m), 1, 0)
        return out[:, :, 0] if squeeze else out

    def matvec(self, x):
        """Apply ``A @ x`` (testing convenience)."""
        if self.schur is None:
            return self._csc @ np.asarray(x, dtype=complex)
        return self.schur.matvec(x)
