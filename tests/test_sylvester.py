"""Unit tests for Sylvester / Kronecker-sum solvers (paper §2.3)."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.errors import NumericalError, ValidationError
from repro.linalg import (
    KronSumSolver,
    SchurForm,
    kron_sum_power,
    pi_sylvester_residual,
    solve_pi_sylvester,
    triangular_sylvester_solve,
    triangular_sylvester_solve_transposed,
)
from repro.linalg.kronecker import mode_apply
from repro.linalg.sylvester import _solve_pi_schur


@pytest.fixture
def rng():
    return np.random.default_rng(11)


@pytest.fixture
def g1(rng):
    return -1.5 * np.eye(6) + 0.35 * rng.standard_normal((6, 6))


def dense_kron_sum(a, k):
    mat = kron_sum_power(a, k)
    return mat.toarray() if hasattr(mat, "toarray") else np.asarray(mat)


class TestTriangularKernels:
    def test_forward_kernel(self, rng):
        t = np.triu(rng.standard_normal((5, 5)) + 2j * np.eye(5))
        w = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        alpha = 0.6
        y = triangular_sylvester_solve(t, alpha, w)
        assert np.allclose(t @ y + y @ t.T + alpha * y, w)

    def test_transposed_kernel(self, rng):
        t = np.triu(rng.standard_normal((5, 5)) + 2j * np.eye(5))
        w = rng.standard_normal((5, 5)).astype(complex)
        alpha = 0.4
        y = triangular_sylvester_solve_transposed(t, alpha, w)
        assert np.allclose(t.T @ y + y @ t + alpha * y, w)

    def test_singular_pairing_raises(self, rng):
        t = np.diag([1.0 + 0j, -1.0 + 0j])
        # lambda_0 + lambda_1 + 0 = 0 -> singular
        with pytest.raises(NumericalError):
            triangular_sylvester_solve(t, 0.0, np.ones((2, 2), complex))


class TestKronSumSolver:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_solve_matches_dense(self, g1, rng, k):
        solver = KronSumSolver(g1)
        rhs = rng.standard_normal(6**k)
        x = solver.solve(rhs, k=k, shift=0.8)
        dense = dense_kron_sum(g1, k) + 0.8 * np.eye(6**k)
        assert np.allclose(dense @ x, rhs, atol=1e-9)

    @pytest.mark.parametrize("k", [1, 2])
    def test_transpose_solve(self, g1, rng, k):
        solver = KronSumSolver(g1)
        rhs = rng.standard_normal(6**k)
        x = solver.solve_transpose(rhs, k=k, shift=0.3)
        dense = dense_kron_sum(g1, k).T + 0.3 * np.eye(6**k)
        assert np.allclose(dense @ x, rhs, atol=1e-9)

    def test_complex_shift(self, g1, rng):
        solver = KronSumSolver(g1)
        rhs = rng.standard_normal(36)
        shift = -0.2 + 0.9j
        x = solver.solve(rhs, k=2, shift=shift)
        dense = dense_kron_sum(g1, 2).astype(complex) + shift * np.eye(36)
        assert np.allclose(dense @ x, rhs, atol=1e-9)

    def test_solve_real_returns_real(self, g1, rng):
        solver = KronSumSolver(g1)
        x = solver.solve_real(rng.standard_normal(36), k=2)
        assert x.dtype.kind == "f"

    def test_wrong_rhs_size(self, g1):
        solver = KronSumSolver(g1)
        with pytest.raises(ValidationError):
            solver.solve(np.zeros(10), k=2)

    def test_invalid_k(self, g1):
        solver = KronSumSolver(g1)
        with pytest.raises(ValidationError):
            solver.solve(np.zeros(6**4), k=4)

    def test_shared_schur(self, g1):
        schur = SchurForm(g1)
        solver = KronSumSolver(g1, schur=schur)
        assert solver.schur is schur

    def test_singular_spectrum_raises(self):
        # A with eigenvalues ±1: pairing (+1) + (−1) = 0 at zero shift.
        a = np.diag([1.0, -1.0])
        solver = KronSumSolver(a)
        with pytest.raises(NumericalError):
            solver.solve(np.ones(4), k=2, shift=0.0)


class TestPiSylvester:
    def test_residual_small(self, g1, rng):
        g2 = 0.3 * rng.standard_normal((6, 36))
        pi = solve_pi_sylvester(g1, g2)
        assert pi.shape == (6, 36)
        assert pi_sylvester_residual(g1, g2, pi) < 1e-9

    def test_defining_equation_dense(self, g1, rng):
        g2 = 0.3 * rng.standard_normal((6, 36))
        pi = solve_pi_sylvester(g1, g2)
        ks = dense_kron_sum(g1, 2)
        assert np.allclose(g1 @ pi + g2, pi @ ks, atol=1e-9)

    def test_reuses_solver(self, g1, rng):
        g2 = 0.3 * rng.standard_normal((6, 36))
        solver = KronSumSolver(g1)
        pi = solve_pi_sylvester(g1, g2, solver=solver)
        assert pi_sylvester_residual(g1, g2, pi) < 1e-9

    def test_shape_validation(self, g1):
        with pytest.raises(ValidationError):
            solve_pi_sylvester(g1, np.zeros((6, 10)))

    def test_unstable_spectrum_raises(self, rng):
        # Eigenvalue condition lambda_i = lambda_j + lambda_k violated:
        # a has eigenvalues {2, 1, 1}; 2 = 1 + 1.
        a = np.diag([2.0, 1.0, 1.0])
        with pytest.raises(NumericalError):
            solve_pi_sylvester(a, np.ones((3, 9)))


def _pi_column_sweep(schur, g2):
    """Reference Π solve: one triangular solve per Schur-basis column
    (the sweep the slice-wise ztrsyl solve replaced)."""
    n, t, q = schur.n, schur.t, schur.q
    c = np.asarray(-g2).reshape(n, n, n).astype(complex)
    c = mode_apply(mode_apply(mode_apply(c, q.conj().T, 0), q.T, 1), q.T, 2)
    y = np.empty((n, n, n), dtype=complex)
    diag = np.diag(t)
    shifted = t.astype(complex, copy=True)
    for k in range(n):
        for j in range(n):
            rhs = c[:, j, k].copy()
            if j > 0:
                rhs += y[:, :j, k] @ t[:j, j]
            if k > 0:
                rhs += y[:, j, :k] @ t[:k, k]
            np.fill_diagonal(shifted, diag - (t[j, j] + t[k, k]))
            y[:, j, k] = sla.solve_triangular(shifted, rhs, lower=False)
    y = mode_apply(mode_apply(mode_apply(y, q, 0), q.conj(), 1), q.conj(), 2)
    return y.reshape(n, n * n)


class TestPiSliceSolve:
    def test_matches_column_sweep(self):
        rng = np.random.default_rng(30)
        n = 30
        # Non-normal G1 with complex eigenvalues: a genuinely
        # upper-triangular complex Schur factor.
        g1 = -2.0 * np.eye(n) + 0.4 * rng.standard_normal((n, n))
        g2 = rng.standard_normal((n, n * n))
        schur = KronSumSolver(g1).schur
        assert np.iscomplexobj(np.linalg.eigvals(g1))
        fast = _solve_pi_schur(schur, g2)
        ref = _pi_column_sweep(schur, g2)
        assert np.abs(fast - ref).max() <= 1e-12 * np.abs(ref).max()
