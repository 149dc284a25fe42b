import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import chargedphi2.linalg as linalg
from chargedphi2.errors import SolverError
from chargedphi2.linalg import RESIDUAL_RTOL, lowest_eigenpairs, operator_norm, use_dense


class TestRule:
    def test_krylov_size_threshold(self):
        # ncv = max(2k + 1, 20): 20 up to k = 9, then 2k + 1
        assert use_dense(200, 1) and not use_dense(201, 1)
        assert use_dense(1890, 94) and not use_dense(1891, 94)


def parity_odd_ground(n, rng):
    """Sparse Hermitian H commuting with index reversal P, ground state P-odd.

    The uniform vector is P-even, so Lanczos from it reaches the odd sector
    only through rounding; the seeded Gaussian start has an odd part.
    """
    a = sp.random(n, n, density=5.0 / n, random_state=rng, format="csr")
    a = a + a.T
    p = sp.csr_matrix(np.eye(n)[::-1])
    return (a + p @ a @ p + 3.0 * (sp.identity(n) + p)).astype(complex).tocsr()


class TestLowestEigenpairs:
    def test_lanczos_reaches_parity_odd_level(self, rng):
        n = 600
        h = parity_odd_ground(n, rng)
        assert not use_dense(n, 3)
        w, vecs = lowest_eigenpairs(h, 3)
        assert np.allclose(w, np.linalg.eigvalsh(h.toarray())[:3], atol=1e-10)
        assert np.allclose(vecs[::-1, 0], -vecs[:, 0], atol=1e-8)

    def test_lanczos_stops_at_the_contract(self, rng, monkeypatch):
        # eigsh stops at RESIDUAL_RTOL / 100 and its pairs meet the contract;
        # operator_norm keeps ARPACK's default, machine precision
        tols = []
        eigsh = linalg.spla.eigsh

        def record(*args, **kwargs):
            tols.append(kwargs.get("tol", 0))
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(linalg.spla, "eigsh", record)
        h = parity_odd_ground(600, rng)
        w, vecs = lowest_eigenpairs(h, 3)
        res = np.linalg.norm(h @ vecs - vecs * w, axis=0)
        assert np.all(res <= RESIDUAL_RTOL * np.maximum(1.0, np.abs(w)))
        operator_norm(h)
        assert tols == [RESIDUAL_RTOL / 100, 0]

    def test_dense_path_returns_wanted_pairs_only(self, rng):
        h = parity_odd_ground(100, rng)
        w, vecs = lowest_eigenpairs(h, 4)
        assert vecs.shape == (100, 4)
        assert np.allclose(w, np.linalg.eigvalsh(h.toarray())[:4], atol=1e-12)


class TestOperatorNorm:
    def test_sparse_above_rule(self, rng):
        a = sp.random(600, 400, density=0.02, random_state=rng, format="csr")
        a = (a + 1j * sp.random(600, 400, density=0.02, random_state=rng, format="csr")).tocsr()
        assert not use_dense(400)
        assert operator_norm(a) == pytest.approx(np.linalg.norm(a.toarray(), 2), rel=1e-12)

    def test_linear_operator_above_rule(self, rng):
        a = rng.standard_normal((300, 250)) + 1j * rng.standard_normal((300, 250))
        op = spla.LinearOperator(a.shape, matvec=lambda x: a @ x, rmatvec=lambda x: a.conj().T @ x, dtype=complex)
        assert operator_norm(op) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)

    def test_zero_linear_operator_exact(self):
        zero = spla.LinearOperator((500, 500), matvec=np.zeros_like, rmatvec=np.zeros_like, dtype=complex)
        assert operator_norm(zero) == 0.0

    def test_nonconvergence_raises_solver_error(self, rng, monkeypatch):
        def stuck(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(linalg.spla, "eigsh", stuck)
        with pytest.raises(SolverError):
            operator_norm(sp.random(300, 300, density=0.05, random_state=rng, format="csr"))


class TestIsDiagonal:
    def test_explicit_off_diagonal_zeros_are_diagonal(self):
        mat = sp.csr_matrix(([2.0, 0.0, 3.0, 0.0], ([0, 0, 1, 2], [0, 2, 1, 0])), shape=(3, 3))
        assert mat.nnz == 4 and linalg.is_diagonal(mat)

    def test_one_off_diagonal_entry(self):
        mat = sp.csr_matrix(([2.0, 1e-300, 3.0], ([0, 1, 1], [0, 2, 1])), shape=(3, 3))
        assert not linalg.is_diagonal(mat)

    def test_agrees_with_the_subtraction(self, desk_bundle, free_ladder_bundles):
        for mat in [desk_bundle.h.matrix] + [b.h.matrix for b in free_ladder_bundles]:
            assert linalg.is_diagonal(mat) == ((mat - sp.diags(mat.diagonal())).nnz == 0)
        assert all(linalg.is_diagonal(b.h.matrix) for b in free_ladder_bundles)
