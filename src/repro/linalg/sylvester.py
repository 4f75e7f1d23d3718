"""Sylvester-equation and Kronecker-sum solvers.

These routines implement the computational core of the paper's §2.3:
every Krylov step of the associated-transform method needs solves with
shifted repeated Kronecker sums ``(k© G1 − s I)`` whose dimension is
``n^k``.  Forming those matrices is hopeless for the paper's circuit
sizes; instead, one Schur decomposition of ``G1`` (n × n) turns each solve
into triangular sweeps of total cost ``O(n^{k+1})`` and memory ``O(n^k)``.

Identities used (row-major ``vec``; see :mod:`repro.linalg.kronecker`)::

    (A ⊕ A) vec(X)      = vec(A X + X Aᵀ)
    (A ⊕ A ⊕ A) vec(X)  = vec of summed mode products of the 3-tensor X

The module also solves the paper's eq.-(18) decoupling equation

    G1 Π + G2 = Π (G1 ⊕ G1)

which splits the associated second-order transfer function into two
independent LTI subsystems.
"""

import threading

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .. import memory
from .._validation import as_matrix, as_square_matrix
from ..errors import NumericalError, ValidationError
from ._hotloops import scatter_add_rows
from .kronecker import mode_apply
from .schur import SchurForm

__all__ = [
    "triangular_sylvester_solve",
    "triangular_sylvester_solve_transposed",
    "KronSumSolver",
    "solve_pi_sylvester",
    "pi_sylvester_residual",
    "FactoredTensor",
    "FactoredPi",
    "LowRankKronSolver",
]

_SINGULAR_RTOL = 1e-13

#: Column-block width for the Bartels–Stewart sweeps.  Big enough that
#: the cross-block coupling GEMMs dominate the per-column GEMVs, small
#: enough that a block's RHS panel stays cache-resident.
_SYLVESTER_BLOCK = 64


def _row_spans(n, step):
    """Yield ``(lo, hi)`` row spans of at most *step* rows covering *n*.

    A single span ``(0, n)`` when ``step >= n`` — the streamed code
    paths then execute exactly the historical unblocked operations on
    full-array views, so results are bit-identical to the pre-streaming
    implementation.
    """
    step = max(int(step), 1)
    for lo in range(0, n, step):
        yield lo, min(n, lo + step)


def _check_diag_gap(values, scale):
    gap = np.abs(values).min()
    if gap <= _SINGULAR_RTOL * scale:
        raise NumericalError(
            "Sylvester/Kronecker-sum solve is numerically singular "
            f"(smallest shifted eigenvalue magnitude = {gap:.3e}); "
            "the spectrum pairing lambda_i + lambda_j + shift vanishes"
        )


def triangular_sylvester_solve(t, alpha, w):
    """Solve ``T Y + Y Tᵀ + alpha Y = W`` with upper-triangular ``T``.

    This is the Bartels–Stewart back-substitution specialized to the case
    where both coefficient matrices come from the same (complex) Schur
    factor.  Columns are swept from right to left; each step is one
    shifted triangular solve.

    Parameters
    ----------
    t : (n, n) complex ndarray, upper triangular.
    alpha : complex
        Scalar shift.
    w : (n, m) complex ndarray
        Right-hand side; ``m`` need not equal ``n`` — the general contract
        is ``T Y + Y S + alpha Y = W`` with ``S = Tᵀ[:m, :m]`` when
        ``m <= n``.  In this library it is always called with ``m == n``.

    Returns
    -------
    (n, m) complex ndarray.
    """
    t = np.asarray(t)
    w = np.asarray(w, dtype=complex)
    n, m = w.shape
    diag = np.diag(t)
    pair_sums = diag[:, None] + diag[None, :m] + alpha
    _check_diag_gap(pair_sums, max(np.abs(diag).max(), 1.0))
    y = np.empty((n, m), dtype=complex)
    # One shared work matrix: only the diagonal changes per column, so
    # the O(n²) allocate-and-add of ``T + beta I`` is hoisted out of the
    # sweep (an O(n³)-per-solve saving across the m columns).
    shifted = t.astype(complex, copy=True)
    # Blocked sweep: the coupling from all already-solved columns right
    # of a block lands as one GEMM per block (level-3 BLAS) instead of
    # one GEMV per column over an ever-longer tail — the couplings are
    # half the flops of the whole sweep at m == n.  Within a block the
    # remaining short-range couplings stay per-column.  Summation
    # grouping differs from the historical per-column sweep at rounding
    # level only.
    for hi in range(m, 0, -_SYLVESTER_BLOCK):
        lo = max(0, hi - _SYLVESTER_BLOCK)
        rhs_block = np.ascontiguousarray(w[:, lo:hi], dtype=complex)
        if hi < m:
            # Couplings from Y Tᵀ: columns [lo, hi) receive
            # Y[:, k] * T[j, k] for every solved k >= hi.
            rhs_block -= y[:, hi:] @ t[lo:hi, hi:m].T
        for j in range(hi - 1, lo - 1, -1):
            rhs = rhs_block[:, j - lo]
            if j + 1 < hi:
                rhs = rhs - y[:, j + 1 : hi] @ t[j, j + 1 : hi]
            np.fill_diagonal(shifted, diag + (t[j, j] + alpha))
            y[:, j] = sla.solve_triangular(shifted, rhs, lower=False)
    return y


def triangular_sylvester_solve_transposed(t, alpha, w):
    """Solve ``Tᵀ Y + Y T + alpha Y = W`` with upper-triangular ``T``.

    The transposed counterpart of :func:`triangular_sylvester_solve`;
    columns are swept left to right and each step is one lower-triangular
    (transposed upper) solve.
    """
    t = np.asarray(t)
    w = np.asarray(w, dtype=complex)
    n, m = w.shape
    diag = np.diag(t)
    pair_sums = diag[:, None] + diag[None, :m] + alpha
    _check_diag_gap(pair_sums, max(np.abs(diag).max(), 1.0))
    y = np.empty((n, m), dtype=complex)
    shifted = t.astype(complex, copy=True)
    # Blocked left-to-right sweep, mirroring the forward solve: the
    # coupling from all already-solved columns left of a block is one
    # GEMM; intra-block couplings stay per-column.
    for lo in range(0, m, _SYLVESTER_BLOCK):
        hi = min(m, lo + _SYLVESTER_BLOCK)
        rhs_block = np.ascontiguousarray(w[:, lo:hi], dtype=complex)
        if lo > 0:
            # Couplings from Y T: columns [lo, hi) receive
            # Y[:, k] * T[k, j] for every solved k < lo.
            rhs_block -= y[:, :lo] @ t[:lo, lo:hi]
        for j in range(lo, hi):
            rhs = rhs_block[:, j - lo]
            if j > lo:
                rhs = rhs - y[:, lo:j] @ t[lo:j, j]
            np.fill_diagonal(shifted, diag + (t[j, j] + alpha))
            y[:, j] = sla.solve_triangular(
                shifted, rhs, lower=False, trans="T"
            )
    return y


class KronSumSolver:
    """Shifted solves with repeated Kronecker sums of a fixed matrix.

    Given a square ``A`` (n × n), precomputes its complex Schur form once
    and then solves, matrix-free,

    * ``(A + shift I) x = rhs``                      (``k = 1``),
    * ``((A ⊕ A) + shift I) x = rhs``                (``k = 2``),
    * ``((A ⊕ A ⊕ A) + shift I) x = rhs``            (``k = 3``),

    plus the transposed variants for ``k ∈ {1, 2}``.  This is exactly the
    paper's Schur trick: ``k© A = (Q k©)(k© T)(Q k©)ᴴ`` so each solve is a
    sequence of triangular substitutions.

    Results are complex; use :meth:`solve_real` when the right-hand side
    and operator are real and a real answer is expected.
    """

    def __init__(self, a, schur=None):
        a = as_square_matrix(a, "a")
        self.n = a.shape[0]
        if schur is not None and schur.n != self.n:
            raise ValidationError(
                "precomputed Schur form has mismatching dimension"
            )
        self.schur = schur if schur is not None else SchurForm(a)

    # -- internal transforms ------------------------------------------------

    def _to_schur_basis(self, x_mat, conjugate_right):
        q = self.schur.q
        qh = q.conj().T
        if conjugate_right:
            # Y = Qᴴ X conj(Q)
            return qh @ x_mat @ q.conj()
        # Y = Qᵀ X Q
        return q.T @ x_mat @ q

    def _from_schur_basis(self, y_mat, conjugate_right):
        q = self.schur.q
        if conjugate_right:
            # X = Q Y Qᵀ
            return q @ y_mat @ q.T
        # X = conj(Q) Y Qᴴ
        return q.conj() @ y_mat @ q.conj().T

    # -- public API ---------------------------------------------------------

    def solve(self, rhs, k=2, shift=0.0):
        """Solve ``((k© A) + shift I) x = rhs`` for ``k`` in {1, 2, 3}.

        ``rhs`` is a flat vector of length ``n**k`` in row-major tensor
        ordering.  Returns a complex vector of the same length.
        """
        n = self.n
        rhs = np.asarray(rhs, dtype=complex).reshape(-1)
        if rhs.size != n**k:
            raise ValidationError(
                f"rhs has length {rhs.size}, expected n**k = {n**k}"
            )
        if k == 1:
            return self.schur.solve_shifted(shift, rhs)
        if k == 2:
            v_mat = rhs.reshape(n, n)
            w = self._to_schur_basis(v_mat, conjugate_right=True)
            y = triangular_sylvester_solve(self.schur.t, shift, w)
            return self._from_schur_basis(y, conjugate_right=True).reshape(-1)
        if k == 3:
            return self._solve_three_way(rhs, shift)
        raise ValidationError(f"k must be 1, 2 or 3, got {k}")

    def solve_transpose(self, rhs, k=2, shift=0.0):
        """Solve ``((k© Aᵀ) + shift I) x = rhs`` for ``k`` in {1, 2}."""
        n = self.n
        rhs = np.asarray(rhs, dtype=complex).reshape(-1)
        if rhs.size != n**k:
            raise ValidationError(
                f"rhs has length {rhs.size}, expected n**k = {n**k}"
            )
        if k == 1:
            return self.schur.solve_shifted_transpose(shift, rhs)
        if k == 2:
            v_mat = rhs.reshape(n, n)
            w = self._to_schur_basis(v_mat, conjugate_right=False)
            y = triangular_sylvester_solve_transposed(self.schur.t, shift, w)
            return self._from_schur_basis(
                y, conjugate_right=False
            ).reshape(-1)
        raise ValidationError(f"k must be 1 or 2 for transpose, got {k}")

    def solve_real(self, rhs, k=2, shift=0.0, rtol=1e-8):
        """Like :meth:`solve` but assert and return a real result."""
        x = self.solve(rhs, k=k, shift=shift)
        scale = max(np.abs(x).max(), 1.0)
        if np.abs(x.imag).max() > rtol * scale:
            raise NumericalError(
                "expected a real solution but imaginary residue "
                f"{np.abs(x.imag).max():.3e} exceeds tolerance"
            )
        return x.real.copy()

    def _solve_three_way(self, rhs, shift):
        """Triangular sweep for ``(A ⊕ A ⊕ A + shift I) x = rhs``.

        In the Schur basis the equation for the 3-tensor ``Y`` is

            mode0(T) Y + mode1(T) Y + mode2(T) Y + shift Y = W.

        Sweeping the last index ``r`` from high to low reduces each slab
        to a two-way triangular Sylvester solve with an extra diagonal
        shift ``T[r, r]``.
        """
        n = self.n
        t = self.schur.t
        q = self.schur.q
        qh = q.conj().T
        w = rhs.reshape(n, n, n)
        for axis in range(3):
            w = mode_apply(w, qh, axis)
        diag = np.diag(t)
        triple = (
            diag[:, None, None] + diag[None, :, None] + diag[None, None, :]
        ) + shift
        _check_diag_gap(triple, max(np.abs(diag).max(), 1.0))
        y = np.empty((n, n, n), dtype=complex)
        for r in range(n - 1, -1, -1):
            rhs_slab = w[:, :, r].copy()
            if r + 1 < n:
                # Couplings along the last mode: T[r, p] Y[:, :, p], p > r.
                rhs_slab -= np.tensordot(
                    y[:, :, r + 1 :], t[r, r + 1 :], axes=([2], [0])
                )
            y[:, :, r] = triangular_sylvester_solve(
                t, shift + t[r, r], rhs_slab
            )
        for axis in range(3):
            y = mode_apply(y, q, axis)
        return y.reshape(-1)


def solve_pi_sylvester(g1, g2, solver=None):
    """Solve the paper's eq.-(18) Sylvester equation for ``Π``.

    Finds the ``n × n²`` matrix ``Π`` with::

        G1 Π + G2 = Π (G1 ⊕ G1)

    which exists whenever no eigenvalue of ``G1`` equals the sum of two
    eigenvalues of ``G1`` (always true for stable ``G1``).  ``Π`` realizes
    the similarity transform that block-diagonalizes the lifted
    second-order state matrix (paper eq. 17 → 18).

    Parameters
    ----------
    g1 : (n, n) array_like
    g2 : (n, n²) array_like or sparse
    solver : KronSumSolver, optional
        Reused Schur factorization of ``g1``; computed when omitted.

    Returns
    -------
    (n, n²) float ndarray.

    Notes
    -----
    Writing the unknown as the 3-tensor ``P[i, j, k]`` the equation reads
    ``mode0(G1) P − mode1(G1ᵀ) P − mode2(G1ᵀ) P = −G2`` and is solved by
    triangular sweeps over the trailing two indices in the Schur basis;
    cost ``O(n⁴)``, memory ``O(n³)`` complex.
    """
    g1 = as_square_matrix(g1, "g1")
    n = g1.shape[0]
    g2 = as_matrix(g2, "g2")
    if g2.shape != (n, n * n):
        raise ValidationError(
            f"g2 must have shape (n, n^2) = ({n}, {n * n}), got {g2.shape}"
        )
    if solver is None:
        solver = KronSumSolver(g1)
    pi = _solve_pi_schur(solver.schur, g2)
    scale = max(np.abs(pi).max(), 1.0)
    if np.abs(pi.imag).max() > 1e-8 * scale:
        raise NumericalError(
            "Pi came out complex beyond rounding; inputs may be complex"
        )
    return np.ascontiguousarray(pi.real)


def _solve_pi_schur(schur, g2):
    """Schur-basis triangular sweep for the Π equation (complex output).

    The computational core of :func:`solve_pi_sylvester`, shared with the
    low-rank Galerkin solver (whose projected problem may be complex when
    the shared Krylov basis is).
    """
    n = schur.n
    t = schur.t
    q = schur.q
    qh = q.conj().T
    diag = np.diag(t)
    combo = diag[:, None, None] - diag[None, :, None] - diag[None, None, :]
    _check_diag_gap(combo, max(np.abs(diag).max(), 1.0))

    # Schur-basis right-hand side: C = mode0(Qᴴ) mode1(Qᵀ) mode2(Qᵀ) (−G2).
    c = np.asarray(-g2).reshape(n, n, n).astype(complex)
    c = mode_apply(c, qh, 0)
    c = mode_apply(c, q.T, 1)
    c = mode_apply(c, q.T, 2)

    # Solve mode0(T) Y − mode1(Tᵀ) Y − mode2(Tᵀ) Y = C one slice at a
    # time: with Y_k = Y[:, :, k], the couplings from p < k (mode 2) move
    # to the right-hand side and what is left is one triangular
    # Sylvester equation  T Y_k − Y_k (T + t_kk I) = C_k + Σ_{p<k} Y_p t_pk
    # (LAPACK ztrsyl, isgn = −1).  Slices are stored leading, so the
    # coupling sum is one GEMV over the solved ones.
    ys = np.empty((n, n, n), dtype=complex)
    eye = np.eye(n)
    for k in range(n):
        rhs = c[:, :, k] + np.tensordot(t[:k, k], ys[:k], axes=(0, 0))
        x, scale, info = sla.lapack.ztrsyl(t, t + t[k, k] * eye, rhs, isgn=-1)
        if info != 0:
            raise NumericalError(
                f"triangular Sylvester solve failed (ztrsyl info={info})"
            )
        ys[k] = x / scale
    y = np.moveaxis(ys, 0, 2)

    # Back-transform: Π = mode0(Q) mode1(conj(Q)) mode2(conj(Q)) Y.
    y = mode_apply(y, q, 0)
    y = mode_apply(y, q.conj(), 1)
    y = mode_apply(y, q.conj(), 2)
    return y.reshape(n, n * n)


def pi_sylvester_residual(g1, g2, pi):
    """Residual ``‖G1 Π + G2 − Π (G1 ⊕ G1)‖_F`` (testing helper).

    Accepts a dense ``(n, n²)`` Π (evaluated matrix-free via mode
    products, ``O(n³)`` memory) or a :class:`FactoredPi` (evaluated
    through Gram matrices at ``O(n·r² + nnz·r³)`` — usable at circuit
    sizes where even one dense ``n × n²`` matrix is out of reach).
    ``g1`` may be sparse on the factored path.
    """
    if isinstance(pi, FactoredPi):
        return _factored_pi_residual(g1, g2, pi)
    g1 = as_square_matrix(g1, "g1")
    n = g1.shape[0]
    g2 = as_matrix(g2, "g2")
    p3 = np.asarray(pi).reshape(n, n, n)
    term = mode_apply(p3, g1, 0)
    term = term - mode_apply(p3, g1.T, 1) - mode_apply(p3, g1.T, 2)
    resid = term.reshape(n, n * n) + g2
    return float(np.linalg.norm(resid))


def _g2_coo_parts(g2, n):
    """COO split of a (possibly sparse) ``(n, n²)`` G2 into
    ``(rows, i, j, vals)`` index arrays with duplicates summed."""
    csr = sp.csr_matrix(g2)
    if csr.shape != (n, n * n):
        raise ValidationError(
            f"g2 must have shape (n, n^2) = ({n}, {n * n}), got {csr.shape}"
        )
    csr.sum_duplicates()
    coo = csr.tocoo()
    return coo.row, coo.col // n, coo.col % n, coo.data


def _g2_fiber_blocks(rows, ii, jj, vals, n):
    """Spanning blocks of G2's lifted-side (mode-1/2) tensor fibers.

    Yields ``(fiber_count, block)`` pairs gathered directly from the COO
    data.  Both the Π seed construction and the factored residual use
    *this one* extraction — they must agree exactly for the residual
    identity (fibers seeded into ``U`` ⇒ projection defect ~0) to hold.
    """
    for key, ridx in ((rows * n + jj, ii), (rows * n + ii, jj)):
        uniq, inv = np.unique(key, return_inverse=True)
        block = np.zeros((n, uniq.size))
        np.add.at(block, (ridx, inv), vals)
        yield uniq.size, block


def _factored_pi_residual(g1, g2, pi):
    """``‖G1 Π + G2 − Π (G1 ⊕ G1)‖_F`` for a factored (real) Π.

    With ``Π = L (U⊗U)ᵀ`` (``U`` orthonormal) the residual splits, via
    ``G1ᵀU = U Ht + Su`` with ``Su ⊥ U``, into mutually orthogonal
    pieces that are each evaluated *without* large-term cancellation
    (a naive ``‖·‖²`` expansion would floor the result at √eps·‖G2‖):

    * the in-span coefficient ``G1 L + Ĝ2 − L (Htᵀ⊕Htᵀ)``,
    * the out-of-span defect through the ``SuᵀSu`` Gram,
    * ``G2``'s own projection defect, bounded by its explicit lifted-side
      fiber defects (exactly zero when the fibers span ``U``, as the
      Galerkin solver guarantees) and folded in with a triangle
      inequality — a *tight upper bound*, exact when the defect is zero.

    No ``n²``-sided intermediate is formed; ``g1`` may be sparse.
    """
    n = g1.shape[0]
    if g1.shape[0] != g1.shape[1]:
        raise ValidationError(f"g1 must be square, got shape {g1.shape}")
    u = pi.u
    if u.shape[0] != n:
        raise ValidationError(
            f"factored Pi basis has {u.shape[0]} rows, expected {n}"
        )
    rows, ii, jj, vals = _g2_coo_parts(g2, n)
    g2_sq = float(np.vdot(vals, vals).real)
    r = pi.rank
    if r == 0:
        return float(np.sqrt(g2_sq))
    left = pi.left
    l3 = left.reshape(n, r, r)
    # Ĝ2 = G2 (U ⊗ U) through the COO contraction.
    contrib = np.einsum("e,eb,ec->ebc", vals, u[ii], u[jj], optimize=True)
    g2r = np.zeros((n, r, r), dtype=contrib.dtype)
    scatter_add_rows(g2r, rows, contrib)
    bu = g1.T @ u if sp.issparse(g1) else np.asarray(g1).T @ u
    ht = u.conj().T @ bu
    su = bu - u @ ht
    # In-span coefficient: G1 L + Ĝ2 − L (Htᵀ ⊗ I) − L (I ⊗ Htᵀ).
    m_in = (g1 @ left).reshape(n, r, r) + g2r
    m_in = m_in - np.einsum("pbe,db->pde", l3, ht, optimize=True)
    m_in = m_in - np.einsum("pdc,ec->pde", l3, ht, optimize=True)
    in_span = float(np.real(np.vdot(m_in, m_in)))
    # Out-of-span defect through the Su Gram.
    gs = su.conj().T @ su
    out_sq = max(float(np.real(np.einsum(
        "pbc,bd,pdc->", l3.conj(), gs, l3, optimize=True))), 0.0)
    out_sq += max(float(np.real(np.einsum(
        "pbc,ce,pbe->", l3.conj(), gs, l3, optimize=True))), 0.0)
    # G2's own projection defect via explicit lifted-side fiber blocks.
    delta_sq = 0.0
    for _, block in _g2_fiber_blocks(rows, ii, jj, vals, n):
        defect = block - u @ (u.conj().T @ block)
        delta_sq += float(np.real(np.vdot(defect, defect)))
    # The ΔG2 piece is not orthogonal to the Su pieces; computing their
    # cross term directly would reintroduce an O(√eps·‖G2‖) floor (a
    # large in-span G2 contracted against tiny out-of-span factors), so
    # the two are combined by triangle inequality instead — exact when
    # the fiber defect is zero.
    out = (np.sqrt(out_sq) + np.sqrt(delta_sq)) ** 2
    return float(np.sqrt(max(in_span + out, 0.0)))


# ---------------------------------------------------------------------------
# low-rank (Tucker-factored) Kronecker-sum machinery
# ---------------------------------------------------------------------------


class FactoredTensor:
    """Tucker-factored vector in the lifted space ``⊗ᵏ ℝⁿ``.

    Represents ``x = vec(C ×₀ U₀ ×₁ U₁ ... )`` through a small ``k``-way
    core ``C`` of shape ``(r₀, ..., r_{k−1})`` and one ``(n_t, r_t)``
    factor per tensor mode.  This is the compressed currency of the
    sparse lifted-H2/H3 machinery: an ``n³``-dimensional chain vector
    whose multilinear ranks stay ``O(10)`` costs ``O(n·r + r³)`` memory
    instead of ``n³``.
    """

    __slots__ = ("core", "factors")

    def __init__(self, core, factors):
        core = np.asarray(core)
        factors = [np.asarray(f) for f in factors]
        if core.ndim != len(factors):
            raise ValidationError(
                f"core has {core.ndim} modes but {len(factors)} factors "
                "were given"
            )
        for axis, f in enumerate(factors):
            if f.ndim != 2:
                raise ValidationError(
                    f"factor {axis} must be 2-D, got ndim={f.ndim}"
                )
            if f.shape[1] != core.shape[axis]:
                raise ValidationError(
                    f"factor {axis} has {f.shape[1]} columns, core mode "
                    f"has size {core.shape[axis]}"
                )
        self.core = core
        self.factors = factors

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, dims):
        """The zero tensor over mode sizes *dims* (rank-0 factors)."""
        dims = tuple(int(d) for d in dims)
        core = np.zeros((0,) * len(dims))
        return cls(core, [np.zeros((d, 0)) for d in dims])

    @classmethod
    def rank_one(cls, vectors, weight=1.0):
        """``weight · v₀ ⊗ v₁ ⊗ ...`` from a sequence of vectors."""
        factors = [np.asarray(v).reshape(-1, 1) for v in vectors]
        core = np.full((1,) * len(factors), weight)
        return cls(core, factors)

    # -- shape ---------------------------------------------------------------

    @property
    def order(self):
        return self.core.ndim

    @property
    def shape(self):
        return tuple(f.shape[0] for f in self.factors)

    @property
    def ranks(self):
        return self.core.shape

    @property
    def dim(self):
        return int(np.prod(self.shape))

    # -- algebra -------------------------------------------------------------

    def to_vector(self):
        """Densify to a flat row-major vector (small systems / tests)."""
        if min(self.core.shape, default=0) == 0:
            return np.zeros(self.dim)
        t = self.core
        for axis, f in enumerate(self.factors):
            t = mode_apply(t, f, axis)
        return t.reshape(-1)

    def scaled(self, alpha):
        return FactoredTensor(self.core * alpha, self.factors)

    def add(self, other):
        """Structural sum: concatenated factors, block-embedded cores."""
        if not isinstance(other, FactoredTensor):
            raise ValidationError("can only add another FactoredTensor")
        if self.order != other.order or self.shape != other.shape:
            raise ValidationError(
                f"shape mismatch: {self.shape} vs {other.shape}"
            )
        ranks = tuple(
            a + b for a, b in zip(self.core.shape, other.core.shape)
        )
        dtype = np.result_type(
            self.core, other.core, *self.factors, *other.factors
        )
        core = np.zeros(ranks, dtype=dtype)
        core[tuple(slice(0, s) for s in self.core.shape)] = self.core
        core[tuple(slice(s, None) for s in self.core.shape)] = other.core
        factors = [
            np.hstack([f.astype(dtype, copy=False),
                       g.astype(dtype, copy=False)])
            for f, g in zip(self.factors, other.factors)
        ]
        return FactoredTensor(core, factors)

    def norm(self):
        """Frobenius norm ``‖x‖₂`` via per-mode Gram matrices."""
        if min(self.core.shape, default=0) == 0:
            return 0.0
        t = self.core
        for axis, f in enumerate(self.factors):
            t = mode_apply(t, f.conj().T @ f, axis)
        return float(np.sqrt(max(np.real(np.vdot(self.core, t)), 0.0)))

    def compress(self, tol=1e-12, factors_orthonormal=False):
        """Rank-truncated copy (QR on the factors + sequential HOSVD).

        *tol* is relative to the tensor norm; pass
        ``factors_orthonormal=True`` to skip the QR step when the factors
        are known orthonormal (e.g. a shared Krylov basis).
        """
        core = self.core
        if min(core.shape, default=0) == 0:
            return FactoredTensor.zeros(self.shape)
        qs = []
        if factors_orthonormal:
            qs = list(self.factors)
        else:
            for axis, f in enumerate(self.factors):
                q, r = np.linalg.qr(f)
                qs.append(q)
                core = mode_apply(core, r, axis)
        total = float(np.linalg.norm(core))
        if total == 0.0:
            return FactoredTensor.zeros(self.shape)
        cutoff = (tol * total) ** 2
        new_factors = []
        for axis in range(core.ndim):
            mat = np.moveaxis(core, axis, 0).reshape(core.shape[axis], -1)
            gram = mat @ mat.conj().T
            w, v = np.linalg.eigh(gram)
            keep = w > cutoff
            if not np.any(keep):
                keep[-1] = True
            v = v[:, keep]
            core = mode_apply(core, v.conj().T, axis)
            new_factors.append(qs[axis] @ v)
        return FactoredTensor(core, new_factors)


class FactoredPi:
    """Factored solution ``Π ≈ L · (U ⊗ U)ᵀ`` of the eq.-(18) Sylvester
    equation.

    ``U`` is an orthonormal ``(n, r)`` basis of the *right* (lifted)
    space and ``L`` a dense ``(n, r²)`` left factor — the ``U·Wᵀ``
    factored form with ``W = U ⊗ U`` held implicitly in Kronecker form,
    so the ``n × n²`` matrix (and anything ``n²``-sided) is never
    materialized.  The left factor itself is built and consumed in row
    blocks of at most ``max_block`` rows (see :mod:`repro.memory`): past
    the byte budget it lives in the planner's tile arena as a writable
    memmap from the moment it is produced, so even the ``(n, r²)`` slab
    never has to be resident at once.  The left side carries no rank
    reduction: Π's singular values decay too slowly on realistic
    circuits for a two-sided low-rank form to reach engineering
    residuals, but its *action on the decoupled-H2 chain subspace* —
    all the realization ever needs — is captured exactly by a small
    right basis.

    Acts on dense vectors/matrices over the ``n²`` lifted space and on
    :class:`FactoredTensor` operands (the decoupled-H2 chain vectors).
    """

    __slots__ = ("left", "u", "residual", "rhs_norm")

    def __init__(self, left, u, residual=None, rhs_norm=None):
        # Keep the ndarray subclass: an arena-backed np.memmap from the
        # streamed build must stay recognizably disk-backed.
        self.left = left if isinstance(left, np.ndarray) else np.asarray(left)
        self.u = np.asarray(u)
        r = self.u.shape[1]
        if self.left.shape != (self.u.shape[0], r * r):
            raise ValidationError(
                f"left factor must be (n, r^2) = ({self.u.shape[0]}, "
                f"{r * r}), got {self.left.shape}"
            )
        # The left factor is only ever *read* after construction.  A
        # streamed build hands in an arena-backed memmap (admit passes
        # it through); a RAM-resident factor past the budget is spilled
        # to a read-only memmap here (a no-op while unlimited).
        self.left = memory.admit(self.left, "pi-left")
        self.residual = residual
        self.rhs_norm = rhs_norm

    def state_dict(self):
        """Payload-tree snapshot (checkpoint/resume round trip)."""
        return {
            "left": np.asarray(self.left),
            "u": self.u,
            "residual": self.residual,
            "rhs_norm": self.rhs_norm,
        }

    @classmethod
    def from_state(cls, state):
        """Rebuild from a :meth:`state_dict` payload tree."""
        return cls(
            state["left"], state["u"],
            residual=state.get("residual"),
            rhs_norm=state.get("rhs_norm"),
        )

    @property
    def n(self):
        return self.u.shape[0]

    @property
    def rank(self):
        return self.u.shape[1]

    @property
    def shape(self):
        return (self.n, self.n * self.n)

    def apply(self, rhs):
        """``Π @ rhs`` for a dense ``(n²,)`` vector or ``(n², m)`` matrix."""
        rhs = np.asarray(rhs)
        squeeze = rhs.ndim == 1
        mat = rhs.reshape(self.n, self.n, -1)
        if self.rank == 0:
            out = np.zeros(
                (self.n, mat.shape[2]), dtype=np.result_type(rhs, self.left)
            )
            return out[:, 0] if squeeze else out
        t = np.tensordot(self.u.T, mat, axes=(1, 0))       # (r, n, m)
        t = np.tensordot(t, self.u, axes=(1, 0))           # (r, m, r)
        w = t.transpose(0, 2, 1).reshape(self.rank ** 2, -1)
        out = self.left @ w
        return out[:, 0] if squeeze else out

    def apply_factored(self, tensor):
        """``Π @ vec(X)`` for a 2-mode :class:`FactoredTensor` X."""
        if tensor.order != 2:
            raise ValidationError("apply_factored expects a 2-mode tensor")
        if min(tensor.core.shape, default=0) == 0 or self.rank == 0:
            return np.zeros(self.n, dtype=np.result_type(
                self.left, tensor.core))
        p = self.u.T @ tensor.factors[0]
        q = self.u.T @ tensor.factors[1]
        w = p @ tensor.core @ q.T
        return self.left @ w.reshape(-1)

    def __matmul__(self, other):
        if isinstance(other, FactoredTensor):
            return self.apply_factored(other)
        return self.apply(other)

    def to_dense(self):
        """Materialize Π as ``(n, n²)`` (small systems / tests only)."""
        if self.n ** 3 > 64_000_000:
            raise ValidationError(
                f"refusing to densify a factored Pi with n = {self.n}"
            )
        r = self.rank
        if r == 0:
            return np.zeros((self.n, self.n * self.n))
        t = self.left.reshape(self.n, r, r)
        t = mode_apply(t, self.u, 1)
        t = mode_apply(t, self.u, 2)
        return t.reshape(self.n, self.n * self.n)

# ---------------------------------------------------------------------------
# low-rank Galerkin solver (sparse circuit scale)
# ---------------------------------------------------------------------------


#: Relative column-norm threshold below which a candidate basis direction
#: is considered already spanned and dropped.
_BASIS_DROP_TOL = 1e-10

#: Hard cap on Galerkin refinement rounds (each round extends the basis).
_MAX_GALERKIN_ROUNDS = 80

#: Basis dimension above which the projected 3-way solve switches from
#: the Schur sweep (O(r²) Python-level triangular solves) to the
#: eigenvector fast path (pure GEMMs); the exact residual test guards
#: against eigenbasis ill-conditioning either way.
_EIG_THRESHOLD = 48

#: Eigenbasis condition number beyond which the projected eig fast path
#: is not trusted and the Schur sweep is used instead.
_EIG_COND_LIMIT = 1e10


def _blocked_product(a, b, conjugate=False):
    """``aᴴ b`` (``aᵀ b`` when *conjugate* is false) in row blocks.

    A single block (``max_block >= n``) is one GEMM — bit-identical to
    the unblocked expression; otherwise the accumulation keeps only one
    row block's operands live at a time (summation-order drift across
    block boundaries is within the ≤ 1e-10 streaming parity contract).
    """
    n = a.shape[0]
    width = a.shape[1] + (b.shape[1] if b.ndim > 1 else 1)
    step = memory.block_rows(
        n, row_bytes=width * max(a.itemsize, b.itemsize)
    )
    left = (lambda x: x.conj().T) if conjugate else (lambda x: x.T)
    if step >= n:
        return left(a) @ b
    out = None
    for lo, hi in _row_spans(n, step):
        part = left(a[lo:hi]) @ b[lo:hi]
        out = part if out is None else out + part
    return out


class _KrylovBasis:
    """Growing orthonormal basis of extended-Krylov directions of ``G1``.

    Tracks ``U``, ``A U`` and ``Aᵀ U`` incrementally so the projected
    matrix ``H = Uᴴ A U`` and the *explicit* residual factors
    ``Ru = A U − U H`` / ``Su = (I − UUᴴ) Aᵀ U`` (whose Gram matrices
    give exact residual norms without cancellation) are O(n·r²) updates.
    """

    def __init__(self, g1, max_dim):
        self.g1 = g1
        self.n = g1.shape[0]
        self.max_dim = int(max_dim)
        self.u = np.empty((self.n, 0))
        self.au = np.empty((self.n, 0))
        self.atu = np.empty((self.n, 0))
        self.last = 0  # first column of the newest block
        self._h = None

    @property
    def dim(self):
        return self.u.shape[1]

    def _promote_complex(self):
        if not np.iscomplexobj(self.u):
            self.u = self.u.astype(complex)
            self.au = self.au.astype(complex)
            self.atu = self.atu.astype(complex)
            self._h = None

    def absorb(self, block):
        """Orthonormalize *block* against ``U`` and append what is new.

        Returns True when the basis grew.
        """
        block = np.asarray(block)
        if block.ndim == 1:
            block = block[:, None]
        if block.shape[1] == 0:
            return False
        if np.iscomplexobj(block):
            if not np.any(block.imag):
                block = np.ascontiguousarray(block.real)
            else:
                self._promote_complex()
        norms = np.linalg.norm(block, axis=0)
        bscale = norms.max()
        if bscale == 0.0:
            return False
        room = self.max_dim - self.dim
        if room <= 0:
            return False
        for _ in range(2):  # CGS2 against the existing basis
            if self.dim:
                coeff = _blocked_product(self.u, block, conjugate=True)
                block = block - self.u @ coeff
        q, r, _ = sla.qr(block, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        count = int(np.count_nonzero(diag > _BASIS_DROP_TOL * bscale))
        count = min(count, room)
        if count == 0:
            return False
        new = q[:, :count]
        if np.iscomplexobj(new) and not np.iscomplexobj(self.u):
            self._promote_complex()
        elif np.iscomplexobj(self.u) and not np.iscomplexobj(new):
            new = new.astype(complex)
        self.last = self.dim
        self.u = np.hstack([self.u, new])
        self.au = np.hstack([self.au, self.g1 @ new])
        self.atu = np.hstack([self.atu, self.g1.T @ new])
        self._h = None
        return True

    def state_dict(self):
        """Snapshot of the growth state (checkpoint/resume round trip).

        ``u``/``au``/``atu``/``last`` determine every future
        absorb/extend decision.  The projected-matrix cache ``_h`` is
        mathematically derived but still snapshotted when present: a
        BLAS product is only reproducible down to the last ulp within
        one execution context, so a resumed run recomputing ``H`` from
        bit-identical factors can land one ulp away from the cached
        value the cold run kept using — enough to break bit-identical
        resume at tight solve tolerances.
        """
        return {
            "u": self.u.copy(),
            "au": self.au.copy(),
            "atu": self.atu.copy(),
            "last": int(self.last),
            "max_dim": int(self.max_dim),
            "h": None if self._h is None else self._h.copy(),
        }

    def load_state(self, state):
        """Restore a :meth:`state_dict` snapshot (same ``g1``)."""
        self.u = np.ascontiguousarray(np.asarray(state["u"]))
        self.au = np.ascontiguousarray(np.asarray(state["au"]))
        self.atu = np.ascontiguousarray(np.asarray(state["atu"]))
        self.last = int(state["last"])
        self.max_dim = int(state.get("max_dim", self.max_dim))
        h = state.get("h")
        self._h = None if h is None else np.ascontiguousarray(np.asarray(h))

    def h(self):
        """Projected matrix ``H = Uᴴ G1 U`` (cached per growth step)."""
        if self._h is None or self._h.shape[0] != self.dim:
            self._h = self.u.conj().T @ self.au
        return self._h

    def gram_plain(self):
        """``RuᴴRu`` with ``Ru = G1 U − U H`` (formed explicitly — the
        ``AUᴴAU − HᴴH`` difference would floor the measurable residual
        around √eps through cancellation).  Accumulated in row blocks,
        so no second (n, r) residual slab is resident under tight
        ``max_block`` settings."""
        h = self.h()
        step = memory.block_rows(
            self.n, row_bytes=2 * max(self.dim, 1) * self.au.itemsize
        )
        if step >= self.n:
            ru = self.au - self.u @ h
            gr = ru.conj().T @ ru
        else:
            gr = None
            for lo, hi in _row_spans(self.n, step):
                ru = self.au[lo:hi] - self.u[lo:hi] @ h
                part = ru.conj().T @ ru
                gr = part if gr is None else gr + part
        return 0.5 * (gr + gr.conj().T)

    def gram_transpose(self):
        """``SuᴴSu`` with ``Su = (I − UUᴴ) G1ᵀ U`` (row-blocked like
        :meth:`gram_plain`)."""
        coeff = _blocked_product(self.u, self.atu, conjugate=True)
        step = memory.block_rows(
            self.n, row_bytes=2 * max(self.dim, 1) * self.atu.itemsize
        )
        if step >= self.n:
            su = self.atu - self.u @ coeff
            gs = su.conj().T @ su
        else:
            gs = None
            for lo, hi in _row_spans(self.n, step):
                su = self.atu[lo:hi] - self.u[lo:hi] @ coeff
                part = su.conj().T @ su
                gs = part if gs is None else gs + part
        return 0.5 * (gs + gs.conj().T)


def _pi_extensions_ahead(history, target):
    """Basis extensions to take before the next solved Π round.

    The exact residual of the right-projected Π solve decays about
    geometrically per extension (rational-Krylov convergence), so the
    rate ``ρ`` fitted to the last two solved rounds predicts the first
    extension count at which the residual reaches *target*; the rounds
    in between cannot pass and are not solved.  Without two finite
    residuals on a decaying trend (``ρ < 1``) every round is solved.
    """
    if len(history) < 2:
        return 1
    (e0, r0), (e1, r1) = history[-2:]
    if not (np.isfinite(r0) and np.isfinite(r1) and 0.0 < r1 < r0):
        return 1
    rho = (r1 / r0) ** (1.0 / (e1 - e0))
    ahead = np.log(target / r1) / np.log(rho)
    return max(1, int(np.ceil(ahead))) if np.isfinite(ahead) else 1


class LowRankKronSolver:
    """Matrix-free Galerkin solver for the lifted Kronecker-sum systems.

    Solves ``((k© G1) + shift·I) x = rhs`` for ``k ∈ {2, 3}`` with a
    Tucker-factored right-hand side, and the paper's eq.-(18) Π Sylvester
    equation with a sparse low-rank ``G2`` — **without a Schur form of
    G1**.  All large-``n`` work is shifted solves with ``G1``/``G1ᵀ``
    through the caller-supplied callables, which on the sparse path hit
    the resolvent factory's reusable sparse LU.

    Kronecker-sum solves project onto one growing shared extended-Krylov
    basis (directions ``(G1 + σI)^{-1} w`` and ``G1 w``), where the
    projected problem has the same Kronecker-sum structure at size ``r``
    and is solved densely.  Because the basis only grows, moment-chain
    recursions — whose step-``t+1`` right-hand side lives in the
    step-``t`` basis — converge in a single projection after the first
    few steps.

    Concurrency note: one solver-wide lock guards the shared basis, so
    chain tasks from concurrent callers (e.g. serve handler threads)
    serialize through it.

    The Π equation gets a *right-sided* projection instead (see
    :meth:`solve_pi`): Π's singular values decay too slowly on realistic
    circuits for a two-sided low-rank form, so the left side stays full
    and only the lifted ``n²`` side is compressed.

    Both iterations stop on **exact** residual norms: with the
    right-hand-side factors absorbed into the basis, Galerkin
    orthogonality reduces the true residual to Gram matrices of the
    explicit defect factors ``G1 U − U H`` / ``(I − UUᴴ) G1ᵀ U`` plus an
    in-space term, so the reported residual is the honest
    ``‖(k©G1 + sI)x − rhs‖`` / :func:`pi_sylvester_residual` value, not
    a proxy.

    Parameters
    ----------
    g1 : (n, n) sparse or dense matrix
    solve_shifted : callable ``(shift, rhs) -> (G1 + shift·I)^{-1} rhs``
    solve_shifted_transpose : callable, optional
        Same contract for ``G1ᵀ``; required by :meth:`solve_pi`.
    tol : float
        Default relative residual target.
    tol_floor : float, optional
        Soft acceptance floor: when the basis cap or the Galerkin round
        cap stalls an iteration above *tol* but at or below
        ``tol_floor``, the solve returns the stalled solution (counted
        in ``stats["soft_accepts"]``) instead of raising.  Lets callers
        request residuals well below a downstream decision threshold
        (e.g. a basis-deflation cutoff, whose keep/drop choices must not
        flip on solve noise) without turning previously-convergent
        problems into failures.
    max_dim : int
        Basis-dimension cap; exceeding it raises
        :class:`~repro.errors.NumericalError`.
    block_cap : int
        Maximum number of columns expanded per extension round.
    """

    def __init__(
        self,
        g1,
        solve_shifted,
        solve_shifted_transpose=None,
        *,
        tol=1e-9,
        tol_floor=None,
        max_dim=None,
        block_cap=32,
        compress_tol=1e-12,
    ):
        if g1.shape[0] != g1.shape[1]:
            raise ValidationError(f"g1 must be square, got {g1.shape}")
        self.g1 = g1
        self.n = g1.shape[0]
        self._solve = solve_shifted
        self._solve_t = solve_shifted_transpose
        self.tol = float(tol)
        self.tol_floor = None if tol_floor is None else float(tol_floor)
        self.max_dim = int(max_dim) if max_dim else min(self.n, 320)
        self.block_cap = int(block_cap)
        self.compress_tol = float(compress_tol)
        self._lock = threading.RLock()
        self._basis = _KrylovBasis(g1, self.max_dim)
        self._small = None
        self._small_dim = -1
        self._eig = None
        self._eig_dim = -1
        diag = g1.diagonal() if sp.issparse(g1) else np.diag(g1)
        self._fallback_sigma = -(1.0 + float(np.abs(diag).mean()))
        self._sigma_ok = {}
        self.stats = {
            "solves": 0, "pi_iterations": 0, "extensions": 0,
            "soft_accepts": 0,
        }

    @property
    def dim(self):
        """Current dimension of the shared Kronecker-sum basis."""
        return self._basis.dim

    def basis_columns(self):
        """Copy of the shared basis ``U`` (warm-start seed for a
        neighboring parametric corner's solver)."""
        with self._lock:
            return self._basis.u.copy()

    def seed_basis(self, u):
        """Warm-start the shared basis with columns from a *different*
        system's converged basis (e.g. the nearest completed corner of
        a parameter sweep).

        Unlike :meth:`load_state` — which restores a same-``g1``
        snapshot verbatim — seeding runs the columns through
        :meth:`_KrylovBasis.absorb`, which re-orthonormalizes them and
        recomputes ``G1 U`` / ``G1ᵀ U`` against *this* solver's ``g1``.
        Every later solve still converges on the exact-residual test,
        so seeding changes iteration counts, never the answers beyond
        the configured tolerance.  Returns True when the basis grew.
        """
        u = np.asarray(u)
        if u.ndim != 2 or u.shape[0] != self.n:
            raise ValidationError(
                f"seed basis must be ({self.n}, r), got {u.shape}"
            )
        with self._lock:
            return self._basis.absorb(u)

    # -- checkpoint state ----------------------------------------------------

    @property
    def state_version(self):
        """Cheap fingerprint of the mutable shared state.

        Changes whenever :meth:`state_dict` would produce a different
        snapshot — used by the checkpoint layer to skip re-serializing
        an unchanged solver between stages.
        """
        basis = self._basis
        return (
            basis.dim,
            bool(np.iscomplexobj(basis.u)),
            len(self._sigma_ok),
            basis._h is not None,
        )

    def state_dict(self):
        """Payload-tree snapshot of everything a resumed run needs to
        replay bit-identically: the shared extended-Krylov basis
        (``U``/``AU``/``AᵀU``/``last``) and the fallback-shift cache
        ``_sigma_ok`` (which changes *numerics*, not just speed — a
        resumed run must retreat to the same fallback shifts).  The
        dense small-problem caches rebuild deterministically.
        """
        with self._lock:
            state = self._basis.state_dict()
            state["sigma_ok"] = [
                {
                    "sigma": sigma,
                    "transpose": bool(transpose),
                    "use": sigma_use,
                }
                for (sigma, transpose), sigma_use
                in self._sigma_ok.items()
            ]
            state["stats"] = {
                key: int(value) for key, value in self.stats.items()
            }
            return state

    def load_state(self, state):
        """Restore a :meth:`state_dict` snapshot onto this solver.

        The solver must wrap the same ``g1`` (the checkpoint layer
        guarantees that through the structural fingerprint in its key).
        """
        with self._lock:
            self._basis.load_state(state)
            self.max_dim = self._basis.max_dim
            self._sigma_ok = {
                (complex(entry["sigma"]), bool(entry["transpose"])):
                    entry["use"]
                for entry in state.get("sigma_ok", [])
            }
            for key, value in state.get("stats", {}).items():
                if key in self.stats:
                    self.stats[key] = int(value)
            self._small = None
            self._small_dim = -1
            self._eig = None
            self._eig_dim = -1

    # -- direction generation ------------------------------------------------

    def _apply_inverse(self, sigma, block, transpose=False):
        solve = self._solve_t if transpose else self._solve
        if solve is None:
            raise ValidationError(
                "solve_shifted_transpose is required for transposed "
                "Krylov directions (the Pi Sylvester iteration)"
            )
        key = (complex(sigma), transpose)
        sigma_use = self._sigma_ok.get(key, sigma)
        try:
            return solve(sigma_use, block)
        except NumericalError:
            if sigma_use != sigma:
                raise
            # σ sits (numerically) on the spectrum — e.g. a DC inverse of
            # a singular G1; retreat further into the left half-plane.
            sigma_use = sigma + self._fallback_sigma
            out = solve(sigma_use, block)
            self._sigma_ok[key] = sigma_use
            return out

    def _extend(self, basis, sigma, transpose=False):
        if basis.dim >= basis.max_dim:
            return False
        w = basis.u[:, basis.last:]
        if w.shape[1] == 0:
            w = basis.u
        if w.shape[1] > self.block_cap:
            w = w[:, : self.block_cap]
        if transpose:
            cands = [
                self._apply_inverse(sigma, w, transpose=True),
                basis.g1.T @ w,
            ]
        else:
            cands = [self._apply_inverse(sigma, w), basis.g1 @ w]
        self.stats["extensions"] += 1
        return basis.absorb(np.hstack(cands))

    # -- shifted Kronecker-sum solves ----------------------------------------

    def solve(self, rhs, k=2, shift=0.0, tol=None):
        """Solve ``((k© G1) + shift·I) x = rhs`` for a factored *rhs*.

        *rhs* is a :class:`FactoredTensor` with ``k`` modes of size
        ``n``; the result is a compressed :class:`FactoredTensor`.
        Failure to reach *tol* within the basis cap raises
        :class:`NumericalError`.
        """
        if k not in (2, 3):
            raise ValidationError(f"k must be 2 or 3, got {k}")
        if not isinstance(rhs, FactoredTensor):
            raise ValidationError(
                "rhs must be a FactoredTensor (use KronSumSolver for "
                "dense right-hand sides)"
            )
        if rhs.order != k or rhs.shape != (self.n,) * k:
            raise ValidationError(
                f"rhs has shape {rhs.shape}, expected {(self.n,) * k}"
            )
        tol = self.tol if tol is None else float(tol)
        with self._lock:
            self.stats["solves"] += 1
            rhs = rhs.compress(self.compress_tol)
            rhs_norm = float(np.linalg.norm(rhs.core))
            if rhs_norm == 0.0:
                return FactoredTensor.zeros((self.n,) * k)
            basis = self._basis
            basis.absorb(np.hstack(rhs.factors))
            sigma = shift / k
            resid = np.inf
            pending = None
            y = u = None
            for _ in range(_MAX_GALERKIN_ROUNDS):
                try:
                    y, resid = self._galerkin(rhs, k, shift)
                    # Any rhs component outside span(U) — possible when
                    # the basis cap truncated the absorption — enters
                    # the true residual directly; without this term a
                    # saturated basis could report convergence on a
                    # silently projected right-hand side.
                    resid = float(np.sqrt(
                        resid ** 2 + self._rhs_defect_sq(basis, rhs)
                    ))
                    pending = None
                except NumericalError as exc:
                    # A Ritz combination λ_i + λ_j (+ λ_k) + shift can
                    # sit (numerically) on zero at an intermediate basis
                    # even when the full operator is fine; growing the
                    # basis moves the Ritz values (same retry as
                    # solve_pi).
                    pending = exc
                    y = None
                u = basis.u  # the basis y is expressed in
                if y is not None and resid <= tol * rhs_norm:
                    out = FactoredTensor(y, [u] * k)
                    return out.compress(
                        self.compress_tol, factors_orthonormal=True
                    )
                if not self._extend(basis, sigma):
                    break
            # Stalled: the basis cap stopped growth, or the round cap
            # ran out.  Either way the last solution is kept when it
            # sits under the soft floor.
            floor = self.tol_floor
            if (y is not None and floor is not None
                    and resid <= floor * rhs_norm):
                self.stats["soft_accepts"] += 1
                out = FactoredTensor(y, [u] * k)
                return out.compress(
                    self.compress_tol, factors_orthonormal=True
                )
            if pending is not None:
                raise pending
            raise NumericalError(
                f"low-rank Kronecker-sum solve (k={k}, shift={shift}) "
                f"stalled at relative residual {resid / rhs_norm:.3e} "
                f"with basis dimension {basis.dim} (cap {basis.max_dim})"
            )

    @staticmethod
    def _rhs_defect_sq(basis, rhs):
        """``‖rhs − (⊗UUᴴ) rhs‖²`` via the telescoping decomposition.

        The pieces (projector on modes < i, defect at mode i, identity
        after) are mutually orthogonal, so the defect is summed exactly
        — no ``‖rhs‖² − ‖proj‖²`` cancellation.
        """
        u = basis.u
        projected = [u @ (u.conj().T @ f) for f in rhs.factors]
        defects = [f - p for f, p in zip(rhs.factors, projected)]
        total = 0.0
        for i in range(rhs.order):
            factors = []
            for t in range(rhs.order):
                if t < i:
                    factors.append(projected[t])
                elif t == i:
                    factors.append(defects[i])
                else:
                    factors.append(rhs.factors[t])
            total += FactoredTensor(rhs.core, factors).norm() ** 2
        return total

    def _small_solver(self):
        if self._small_dim != self.dim:
            self._small = KronSumSolver(self._basis.h())
            self._small_dim = self.dim
        return self._small

    def _eig_factors(self):
        """Eigendecomposition of ``H`` (or None when ill-conditioned)."""
        if self._eig_dim != self.dim:
            self._eig_dim = self.dim
            self._eig = None
            try:
                lam, s = np.linalg.eig(self._basis.h())
                sinv = np.linalg.inv(s)
                if np.linalg.cond(s) <= _EIG_COND_LIMIT:
                    self._eig = (lam, s, sinv)
            except np.linalg.LinAlgError:
                self._eig = None
        return self._eig

    def _projected_kron_solve(self, c, k, shift):
        """Solve ``((k© H) + shift) Y = C`` at the projected size."""
        dim = self.dim
        eig = self._eig_factors() if (k == 3 and dim > _EIG_THRESHOLD) \
            else None
        if eig is not None:
            lam, s, sinv = eig
            ct = c.astype(complex)
            for axis in range(k):
                ct = mode_apply(ct, sinv, axis)
            denom = (
                lam[:, None, None] + lam[None, :, None] + lam[None, None, :]
            ) + shift
            _check_diag_gap(denom, max(np.abs(lam).max(), 1.0))
            y = ct / denom
            for axis in range(k):
                y = mode_apply(y, s, axis)
            return y
        small = self._small_solver()
        return small.solve(c.reshape(-1), k=k, shift=shift).reshape(
            (dim,) * k
        )

    def _galerkin(self, rhs, k, shift):
        """One projected solve; returns ``(core, exact residual norm)``."""
        basis = self._basis
        c = rhs.core.astype(complex)
        for axis, f in enumerate(rhs.factors):
            c = mode_apply(c, basis.u.conj().T @ f, axis)
        y = self._projected_kron_solve(c, k, shift)
        h = basis.h()
        # In-space defect (nonzero when the projected solve itself is
        # inexact, e.g. the eig fast path on a non-normal H)...
        r_in = shift * y - c
        for axis in range(k):
            r_in = r_in + mode_apply(y, h, axis)
        resid_sq = float(np.real(np.vdot(r_in, r_in)))
        # ...plus the out-of-space part through the defect Gram.
        gr = basis.gram_plain()
        for axis in range(k):
            resid_sq += max(
                float(np.real(np.vdot(y, mode_apply(y, gr, axis)))), 0.0
            )
        return y, float(np.sqrt(max(resid_sq, 0.0)))

    # -- the eq.-(18) Π equation ---------------------------------------------

    def solve_pi(self, g2, tol=None, max_rank=None, max_seed=None,
                 seed_basis=None, floor=None):
        """Right-sided low-rank solve of ``G1 Π + G2 = Π (G1 ⊕ G1)``.

        Builds a private real basis ``U`` from ``G2``'s lifted-side COO
        fibers plus ``G1ᵀ``-sided extended-Krylov directions, and solves
        the right-projected equation ``G1 Π̂ + Ĝ2 = Π̂ (H ⊕ H)`` exactly
        in the left (state) space — one cached sparse shifted ``G1``
        solve per Schur pair of ``H``.  Returns a :class:`FactoredPi`
        ``Π ≈ Π̂ (U⊗U)ᵀ``; the stopping test
        ``residual ≤ tol · ‖G2‖_F`` is the true
        :func:`pi_sylvester_residual` value.

        *seed_basis* optionally warm-starts the right basis with extra
        real ``(n, r)`` columns — typically the ``.u`` factor of a
        neighboring parametric corner's converged :class:`FactoredPi`.
        The mandatory G2 fiber seeds are always absorbed first (they
        make the residual identity exact), the warm columns after; the
        stopping test is unchanged, so a warm start saves extension
        rounds without relaxing the accuracy contract.

        Raises :class:`NumericalError` when ``G2``'s fiber spans are too
        wide for a low-rank treatment (callers may then fall back to the
        dense Schur path) or when the iteration stalls above *floor*
        (the soft acceptance threshold — defaults to the solver's
        ``tol_floor``; see the class docstring).
        """
        tol = self.tol if tol is None else float(tol)
        floor = self.tol_floor if floor is None else float(floor)
        with self._lock:
            n = self.n
            rows, ii, jj, vals = _g2_coo_parts(g2, n)
            if np.iscomplexobj(vals) or np.iscomplexobj(
                self.g1.data if sp.issparse(self.g1) else self.g1
            ):
                raise ValidationError(
                    "the low-rank Pi solve expects real G1/G2"
                )
            g2_norm = float(np.linalg.norm(vals))
            if g2_norm == 0.0:
                return FactoredPi(np.zeros((n, 0)), np.zeros((n, 0)), 0.0,
                                  0.0)
            if max_rank is None:
                # Bound the dense (n, r²) left factor near ~100 MB.
                max_rank = min(
                    self.max_dim, max(int(np.sqrt(1.6e7 / max(n, 1))), 24)
                )
            basis = _KrylovBasis(self.g1, max_rank)
            seeds = self._pi_seed_blocks(rows, ii, jj, vals, max_seed)
            for block in seeds:
                basis.absorb(block)
            if seed_basis is not None:
                warm = np.asarray(seed_basis)
                if warm.ndim != 2 or warm.shape[0] != n:
                    raise ValidationError(
                        f"Pi seed basis must be ({n}, r), got {warm.shape}"
                    )
                if np.iscomplexobj(warm):
                    warm = np.ascontiguousarray(warm.real)
                basis.absorb(warm)
            resid = np.inf
            pending = None
            left = u = None
            # (extensions so far, exact residual) of the solved rounds
            # since the last failed one: the round schedule's evidence.
            history = []
            extensions = 0
            grew = True
            for _ in range(_MAX_GALERKIN_ROUNDS):
                if left is not None:
                    # Superseded round: reclaim its arena tile eagerly
                    # (a no-op when the left factor was RAM-resident).
                    memory.release(left)
                self.stats["pi_iterations"] += 1
                try:
                    left, resid = self._pi_right_solve(
                        basis, rows, ii, jj, vals, seeds
                    )
                    pending = None
                    history.append((extensions, resid))
                except NumericalError as exc:
                    # A Ritz pair λ_b + λ_c can sit (numerically) on
                    # G1's spectrum even when the full equation is fine;
                    # growing the basis moves the Ritz values.
                    pending = exc
                    left = None
                    history = []
                u = basis.u  # the right basis left is expressed in
                if left is not None and resid <= tol * g2_norm:
                    return FactoredPi(left, u.copy(), float(resid), g2_norm)
                if not grew:
                    break
                # The extensions never read a round's solution, so the
                # rounds the schedule skips change nothing but the cost;
                # the basis the cap stops growth on is always solved.
                start = extensions
                for _ in range(_pi_extensions_ahead(history, tol * g2_norm)):
                    grew = self._extend(basis, 0.0, transpose=True)
                    if not grew:
                        break
                    extensions += 1
                if extensions == start:
                    break
            # Stalled at the basis cap or the round cap: keep the last
            # solution when it sits under the soft floor.
            if left is not None:
                if floor is not None and resid <= floor * g2_norm:
                    self.stats["soft_accepts"] += 1
                    return FactoredPi(left, u.copy(), float(resid), g2_norm)
                memory.release(left)
            if pending is not None:
                raise pending
            raise NumericalError(
                f"low-rank Pi Sylvester iteration stalled at relative "
                f"residual {resid / g2_norm:.3e} with right-basis "
                f"dimension {basis.dim} (cap {basis.max_dim})"
            )

    def _pi_seed_blocks(self, rows, ii, jj, vals, max_seed):
        """Spanning blocks of G2's lifted-side (mode-1/2) fiber spaces.

        Gathered directly from the COO data (never ``toarray``).  With
        these absorbed, ``G2 = Ĝ2 (U⊗U)ᵀ`` holds exactly and the
        residual identity in :meth:`_pi_right_solve` is exact.  A fiber
        count beyond *max_seed* means ``G2`` is not low-rank on the
        lifted side and the solver refuses.
        """
        if max_seed is None:
            max_seed = max(4 * self.block_cap, 64)
        blocks = []
        for count, block in _g2_fiber_blocks(rows, ii, jj, vals, self.n):
            if count > max_seed:
                raise NumericalError(
                    f"G2 has {count} distinct lifted-side tensor "
                    f"fibers (> {max_seed}); the right-hand side is not "
                    "low-rank — use the dense Schur Pi solve"
                )
            blocks.append(block)
        return blocks

    def _pi_right_solve(self, basis, rows, ii, jj, vals, seeds):
        """One right-projected Π solve; returns ``(left, residual)``.

        Solves ``G1 Π̂ − Π̂ (H⊕H) = −Ĝ2`` by transforming the right side
        with the complex Schur form ``H = Q T Qᴴ`` (``H⊕H`` becomes
        upper triangular in lexicographic pair order) and sweeping the
        ``r²`` columns with shifted sparse ``G1`` solves; the
        ``(d,e)``/``(e,d)`` columns share a shift and are solved as one
        two-column right-hand side on one factorization.
        """
        u = basis.u
        r = basis.dim
        n = self.n
        planner = memory.current_planner()
        # Streamed tiling: every (n, r, r) intermediate below lives in
        # the planner's tile arena (plain arrays under an unlimited
        # budget) and is filled/consumed in row blocks of at most
        # ``step`` rows, so the resident footprint of this solve is
        # O(step · r²) + O(n · r) regardless of n.  Row width covers the
        # two complex tiles (ct, xt) a block touches at once.
        step = planner.block_rows(n, row_bytes=2 * r * r * 16)
        can_slice = sp.issparse(self.g1) or isinstance(self.g1, np.ndarray)
        if not can_slice:
            step = n
        g2r = ct = xt = leftc = None
        try:
            # Ĝ2 = G2 (U ⊗ U) via the COO contraction: (n, r, r).
            g2r = planner.tile((n, r, r), float, "pi-g2r")
            nnz = int(vals.shape[0])
            chunk = max(1, nnz if step >= n else min(nnz, step))
            for lo in range(0, nnz, chunk):
                hi = min(nnz, lo + chunk)
                contrib = np.einsum(
                    "e,eb,ec->ebc", vals[lo:hi], u[ii[lo:hi]], u[jj[lo:hi]],
                    optimize=True,
                )
                scatter_add_rows(g2r, rows[lo:hi], contrib)
            h = basis.h()
            t, q = sla.schur(h.astype(complex), output="complex")
            lam = np.diag(t)
            # C̃ = −Ĝ2 (Q ⊗ Q): transform the pair index into Schur space.
            ct = planner.tile((n, r, r), complex, "pi-ct")
            for lo, hi in _row_spans(n, step):
                ct[lo:hi] = -np.einsum(
                    "pbc,bd,ce->pde", g2r[lo:hi], q, q, optimize=True
                )
            xt = planner.tile((n, r, r), complex, "pi-xt")
            # Shell sweep: shell s handles (d, s) for d <= s and (s, c) for
            # c < s, so all lex-earlier couplings are available.  The
            # (d, s)/(s, d) pair shares the shift λ_d + λ_s and neither
            # reads the other, so the two columns go through one
            # two-column solve.  The per-column state is O(n) —
            # tile-friendly by construction.
            for s_idx in range(r):
                for d in range(s_idx + 1):
                    cols = [(d, s_idx), (s_idx, d)] if d < s_idx \
                        else [(d, d)]
                    # (G1 − (T[i,i]+T[j,j])I) x_ij = c_ij
                    #     + Σ_{b<i} x_bj T[b,i] + Σ_{c<j} x_ic T[c,j]
                    # — the strictly-upper couplings of X̃ (T⊕T) move to
                    # the right-hand side with a PLUS sign.
                    rhs = np.empty((n, len(cols)), dtype=complex)
                    for col, (i, j) in enumerate(cols):
                        rhs[:, col] = ct[:, i, j]
                        if i > 0:
                            rhs[:, col] += xt[:, :i, j] @ t[:i, i]
                        if j > 0:
                            rhs[:, col] += xt[:, i, :j] @ t[:j, j]
                    mu = lam[d] + lam[s_idx]
                    x = self._solve(-mu, rhs)
                    # One iterative-refinement step against the same
                    # cached LU: the pair shifts λ_d + λ_e can land close
                    # to G1's spectrum (same-side spectra), where a
                    # single backsolve leaves an O(κ·eps) column defect
                    # that would propagate through the triangular sweep.
                    defect = rhs - (self.g1 @ x - mu * x)
                    x = x + self._solve(-mu, defect)
                    for col, (i, j) in enumerate(cols):
                        xt[:, i, j] = x[:, col]
            planner.release(ct)
            ct = None
            # Back-transform: Π̂ = X̃ (Qᴴ ⊗ Qᴴ) applied on the pair index.
            qh = q.conj().T
            leftc = planner.tile((n, r, r), complex, "pi-left-work")
            imag_max = 0.0
            abs_max = 0.0
            for lo, hi in _row_spans(n, step):
                lb = np.einsum(
                    "pde,db,ec->pbc", xt[lo:hi], qh, qh, optimize=True
                )
                leftc[lo:hi] = lb
                imag_max = max(imag_max, float(np.abs(lb.imag).max()))
                abs_max = max(abs_max, float(np.abs(lb).max()))
            planner.release(xt)
            xt = None
            if imag_max <= 1e-8 * max(abs_max, 1.0):
                left = planner.tile((n, r, r), float, "pi-left")
                for lo, hi in _row_spans(n, step):
                    left[lo:hi] = leftc[lo:hi].real
                planner.release(leftc)
                leftc = None
            else:
                left = leftc
                leftc = None
            # Exact residual: in-space defect + G2 projection defect +
            # out-of-space defect through the Su Gram — all accumulated
            # blockwise so no (n, r²) residual slab is ever resident.
            lmat = left.reshape(n, r * r)
            g2r_flat = g2r.reshape(n, r * r)
            resid_sq = 0.0
            for lo, hi in _row_spans(n, step):
                if step >= n:
                    rb = self.g1 @ lmat + g2r_flat
                else:
                    rb = self.g1[lo:hi] @ lmat + g2r_flat[lo:hi]
                rb = rb - (
                    np.einsum("pbe,bd->pde", left[lo:hi], h)
                    + np.einsum("pdc,ce->pde", left[lo:hi], h)
                ).reshape(hi - lo, r * r)
                resid_sq += float(np.real(np.vdot(rb, rb)))
            planner.release(g2r)
            g2r = None
            # G2 projection defect, bounded through the explicit fiber
            # defects (the ``‖G2‖² − ‖Ĝ2‖²`` difference would floor the
            # measurable residual at √eps·‖G2‖ through cancellation;
            # with the fibers seeded into U both defects are ~0).
            for block in seeds:
                db = block - u @ (u.T @ block)
                resid_sq += float(np.vdot(db, db).real)
            gs = basis.gram_transpose()
            acc1 = 0.0 + 0.0j
            acc2 = 0.0 + 0.0j
            for lo, hi in _row_spans(n, step):
                lb = left[lo:hi]
                acc1 += np.einsum(
                    "pbc,bd,pdc->", lb.conj(), gs, lb, optimize=True
                )
                acc2 += np.einsum(
                    "pbc,ce,pbe->", lb.conj(), gs, lb, optimize=True
                )
            resid_sq += max(float(np.real(acc1)), 0.0)
            resid_sq += max(float(np.real(acc2)), 0.0)
            return lmat, float(np.sqrt(max(resid_sq, 0.0)))
        finally:
            for temp in (g2r, ct, xt, leftc):
                if temp is not None:
                    planner.release(temp)
