import os
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import chargedphi2.linalg as linalg
from chargedphi2 import cli
from chargedphi2.config import load_config
from chargedphi2.errors import ResourceLimitError, ShapeError, SolverError
from chargedphi2.linalg import NORM_TOL, RESIDUAL_RTOL, lowest_eigenpairs, operator_norm, use_dense


class TestRule:
    def test_krylov_size_threshold(self):
        # ncv = max(2k + 1, 20): 20 up to k = 9, then 2k + 1
        assert use_dense(200, 1) and not use_dense(201, 1)
        assert use_dense(1890, 94) and not use_dense(1891, 94)

    def test_the_rule_includes_the_ceiling(self):
        # ncv(2000) = 4001 puts n = 4001 under the ratio but over the ceiling, so
        # Lanczos runs; only k >= n, which Lanczos cannot solve, stays dense
        ceiling = linalg.DENSE_CEILING
        assert linalg.ncv(2000) == ceiling + 1
        assert use_dense(ceiling, 2000) and not use_dense(ceiling + 1, 2000)
        assert use_dense(ceiling + 1, ceiling + 1)


REPO = Path(__file__).resolve().parents[1]


def _pool_calls():
    info = linalg._second_worker.cache_info()
    return info.hits + info.misses


class TestWorkerRule:
    def _spectrum_desk(self):
        assert cli.main(["spectrum", str(REPO / "configs" / "desk_bundle.json")]) == 0

    def _low_lying_m17(self):
        from chargedphi2.spectral import low_lying

        bundle = cli._single_level_bundle(load_config(REPO / "perfbench" / "configs" / "m17_spectrum.json"))
        assert bundle.h.t.nnz == 1_000_944 and bundle.h.workers == 1
        low_lying(bundle.h, 8)

    @pytest.mark.parametrize("run", ["_spectrum_desk", "_low_lying_m17"])
    def test_benchmark_operators_start_no_thread(self, run, tmp_path, monkeypatch):
        monkeypatch.setenv("CHARGEDPHI2_OUTDIR", str(tmp_path))
        threads, calls = threading.active_count(), _pool_calls()
        getattr(self, run)()
        assert (threading.active_count(), _pool_calls()) == (threads, calls)

    @pytest.mark.parametrize("one_cpu", ["affinity", "cpu_count"])
    def test_one_cpu_makes_no_executor(self, one_cpu, monkeypatch, rng):
        monkeypatch.setattr(linalg, "TWO_WORKER_NNZ", 0)
        if one_cpu == "affinity":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:  # a platform without sched_getaffinity
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        t = sp.triu(sp.random(300, 300, density=0.05, random_state=rng), k=1, format="csc")
        op = linalg.HermitianTriangle(t, np.ones(300))
        calls = _pool_calls()
        x = rng.standard_normal((300, 2))
        assert op.workers == 1
        assert np.array_equal(op @ x, t @ x + t.T @ x + x)
        assert _pool_calls() == calls

    def test_two_cpus_from_cpu_count_and_the_constant(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(linalg, "TWO_WORKER_NNZ", 3)
        t = sp.csc_matrix(np.triu(np.ones((3, 3)), k=1))
        assert linalg.HermitianTriangle(t, np.zeros(3)).workers == 2
        assert linalg.HermitianTriangle(sp.triu(t, k=2, format="csc"), np.zeros(3)).workers == 1


def triangle(h):
    """The `HermitianTriangle` of a sparse Hermitian matrix: its strict upper triangle and real diagonal."""
    return linalg.HermitianTriangle(sp.triu(h, k=1, format="csc"), h.diagonal().real)


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
        w, vecs = lowest_eigenpairs(triangle(h), 3)
        assert np.allclose(w, np.linalg.eigvalsh(h.toarray())[:3], atol=1e-10)
        assert np.allclose(vecs[::-1, 0], -vecs[:, 0], atol=1e-8)

    def test_lanczos_stops_at_the_contract(self, rng, monkeypatch):
        # eigsh stops at RESIDUAL_RTOL / 100 and its pairs meet the contract;
        # operator_norm stops at NORM_TOL and still gives the norm to 1e-12
        tols, ncvs = [], []
        eigsh = linalg.spla.eigsh

        def record(*args, **kwargs):
            tols.append(kwargs.get("tol", 0))
            ncvs.append(kwargs["ncv"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(linalg.spla, "eigsh", record)
        h = parity_odd_ground(600, rng)
        w, vecs = lowest_eigenpairs(triangle(h), 3)
        res = np.linalg.norm(h @ vecs - vecs * w, axis=0)
        assert np.all(res <= RESIDUAL_RTOL * np.maximum(1.0, np.abs(w)))
        top = np.linalg.norm(h.toarray(), 2)
        assert abs(operator_norm(h) - top) <= 1e-12 * top
        assert tols == [RESIDUAL_RTOL / 100, NORM_TOL]
        assert ncvs == [linalg.ncv(3), linalg.ncv(1)] == [20, 20]

    def test_lanczos_under_the_ratio_above_the_ceiling(self, rng, monkeypatch):
        # k < n <= DENSE_RATIO ncv(k) with n over the ceiling: Lanczos gives the
        # dense reference's pairs, and only k >= n is refused
        n, k = 150, 3
        monkeypatch.setattr(linalg, "DENSE_CEILING", 100)
        assert n <= linalg.DENSE_RATIO * linalg.ncv(k) and not use_dense(n, k)
        h = parity_odd_ground(n, rng)
        w, vecs = lowest_eigenpairs(triangle(h), k)
        assert np.allclose(w, np.linalg.eigvalsh(h.toarray())[:k], atol=1e-10)
        res = np.linalg.norm(h @ vecs - vecs * w, axis=0)
        assert np.all(res <= RESIDUAL_RTOL * np.maximum(1.0, np.abs(w)))
        with pytest.raises(ResourceLimitError, match="dimension 150 exceeds the dense ceiling 100"):
            lowest_eigenpairs(triangle(h), n)

    def test_dense_path_returns_wanted_pairs_only(self, rng):
        h = parity_odd_ground(100, rng)
        w, vecs = lowest_eigenpairs(triangle(h), 4)
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
        assert operator_norm(zero, hermitian=True) == 0.0

    @pytest.mark.parametrize("n", [12, 66, 250])
    def test_hermitian_norm_is_the_largest_eigenvalue_modulus(self, rng, n):
        # Lanczos on the operator itself from n > ncv(1) = 20, with fewer applications than on a^H a
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = a + a.conj().T - 30.0 * np.eye(n)  # its largest |eigenvalue| is a negative one
        calls = {"herm": 0, "gram": 0}

        def counted(key):
            def apply(x):
                calls[key] += 1
                return a @ x
            return spla.LinearOperator(a.shape, matvec=apply, rmatvec=apply, dtype=complex)

        ref = np.max(np.abs(np.linalg.eigvalsh(a)))
        assert operator_norm(counted("herm"), hermitian=True) == pytest.approx(ref, rel=1e-12)
        assert operator_norm(counted("gram")) == pytest.approx(ref, rel=1e-12)
        if n > linalg.ncv(1):  # the a^H a route reads n columns under the dense rule and Lanczos above it
            assert calls["herm"] < min(n, calls["gram"])
        else:  # both read the n columns of the identity
            assert calls["herm"] == calls["gram"] == n

    def test_nonconvergence_raises_solver_error(self, rng, monkeypatch):
        def stuck(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(linalg.spla, "eigsh", stuck)
        with pytest.raises(SolverError):
            operator_norm(sp.random(300, 300, density=0.05, random_state=rng, format="csr"))


class TestShiftedSolver:
    def _complex_triangle(self, rng, n=120):
        a = sp.random(n, n, density=0.05, random_state=rng) + 1j * sp.random(n, n, density=0.05, random_state=rng)
        return triangle((a + a.getH() + 4.0 * sp.identity(n)).tocsr())

    @pytest.mark.parametrize("shape", [(120,), (120, 3)])
    def test_matches_the_dense_solve(self, rng, shape):
        op, beta = self._complex_triangle(rng), 0.7
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        inverse = linalg.shifted_solver(op, beta)
        y = inverse @ x
        ref = np.linalg.solve(op.matrix.toarray() + beta * np.eye(120), x)
        assert y.shape == shape
        assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)
        assert inverse.counts["solves"] == (shape[1] if len(shape) > 1 else 1)
        assert inverse.counts["CG iterations"] > 0

    def test_diagonal_divides_exactly(self, rng):
        d = rng.uniform(0.0, 5.0, 50)
        inverse = linalg.shifted_solver(linalg.HermitianTriangle(sp.csc_matrix((50, 50)), d), 1.5)
        x = rng.standard_normal((50, 2))
        assert np.array_equal(inverse @ x, x / (d + 1.5)[:, None])
        assert inverse.counts == {"solves": 2, "CG iterations": 0}

    @pytest.mark.parametrize("miss", ["info", "residual"])
    def test_a_missed_contract_raises(self, rng, monkeypatch, miss):
        # a CG that reports no convergence, or whose answer misses the true-residual contract
        cg = linalg.spla.cg

        def missing(a, b, **kwargs):
            y, info = cg(a, b, **kwargs)
            return (y, 5) if miss == "info" else (y * (1.0 + 1e-9), 0)

        monkeypatch.setattr(linalg.spla, "cg", missing)
        op = self._complex_triangle(rng)
        with pytest.raises(SolverError, match="misses the solve contract"):
            linalg.shifted_solver(op, 0.7) @ rng.standard_normal(120)


class TestHermitianTriangle:
    def test_adjoint_is_the_operator(self, desk_bundle, rng):
        h = desk_bundle.h
        x = rng.standard_normal(h.shape[0])
        assert h.H is h
        assert np.array_equal(h.rmatvec(x), h.matvec(x))
        assert np.array_equal(h.rmatmat(np.c_[x, 2 * x]), h.matmat(np.c_[x, 2 * x]))

    def test_operator_norm_is_the_largest_eigenvalue_modulus(self, desk_bundle):
        assert not use_dense(desk_bundle.h.shape[0])
        top = np.max(np.abs(np.linalg.eigvalsh(desk_bundle.h.matrix.toarray())))
        assert operator_norm(desk_bundle.h) == pytest.approx(top, rel=1e-12)


class TestIsDiagonal:
    def test_explicit_off_diagonal_zeros_are_diagonal(self):
        t = sp.csc_matrix(([0.0, 0.0], ([0, 1], [2, 2])), shape=(3, 3))
        assert t.nnz == 2 and linalg.is_diagonal(linalg.HermitianTriangle(t, np.array([2.0, 3.0, 0.0])))

    def test_one_off_diagonal_entry(self):
        t = sp.csc_matrix(([1e-300], ([1], [2])), shape=(3, 3))
        assert not linalg.is_diagonal(linalg.HermitianTriangle(t, np.array([2.0, 3.0, 0.0])))

    def test_agrees_with_the_subtraction(self, desk_bundle, free_ladder_bundles):
        for h in [desk_bundle.h] + [b.h for b in free_ladder_bundles]:
            mat = h.matrix
            assert linalg.is_diagonal(h) == ((mat - sp.diags(mat.diagonal())).nnz == 0)
        assert all(linalg.is_diagonal(b.h) for b in free_ladder_bundles)


@pytest.fixture
def isometry_calls(monkeypatch):
    """The permutations `reflected_eigvalsh` split by: one entry per split, none per fallback."""
    calls = []
    isometries = linalg.reflection_isometries

    def record(perm):
        calls.append(len(perm))
        return isometries(perm)

    monkeypatch.setattr(linalg, "reflection_isometries", record)
    return calls


class TestReflectedEigvalsh:
    @pytest.mark.parametrize(
        "name, level",
        [("desk_bundle", None), ("probe_m9_bundle", None)] + [("ladder_bundles", i) for i in range(3)],
    )
    def test_split_matches_full_spectrum(self, request, name, level, isometry_calls):
        bundle = request.getfixturevalue(name)
        bundle = bundle if level is None else bundle[level]
        mat = bundle.h.matrix
        w = linalg.reflected_eigvalsh(mat, bundle.basis.reflection)
        assert isometry_calls == [bundle.basis.dim]
        assert np.max(np.abs(w - np.linalg.eigvalsh(mat.toarray()))) <= 1e-12

    def test_broken_reflection_falls_back(self, desk_bundle, isometry_calls):
        perm = desk_bundle.basis.reflection
        s = int(np.flatnonzero(perm != np.arange(len(perm)))[0])
        # a diagonal bump at s but not at its mirror state perm[s]
        bump = sp.csr_matrix(([1e-3], ([s], [s])), shape=desk_bundle.h.matrix.shape)
        mat = (desk_bundle.h.matrix + bump).tocsr()
        w = linalg.reflected_eigvalsh(mat, perm)
        assert isometry_calls == []
        assert np.max(np.abs(w - np.linalg.eigvalsh(mat.toarray()))) <= 1e-12

    def test_isometries_block_the_reflection(self, desk_bundle):
        perm = desk_bundle.basis.reflection
        n = len(perm)
        even, odd = linalg.reflection_isometries(perm)
        fixed = np.flatnonzero(perm == np.arange(n))
        assert fixed.size and even.shape[1] + odd.shape[1] == n
        assert even.shape[1] - odd.shape[1] == fixed.size
        both = sp.hstack([even, odd]).toarray()
        assert np.allclose(both.T @ both, np.eye(n), atol=1e-15)
        assert np.array_equal(even.toarray()[perm], even.toarray())
        assert np.array_equal(odd.toarray()[perm], -odd.toarray())
        # each fixed point is a unit column of the even block
        hits = even[fixed].tocsr()
        assert np.array_equal(hits.getnnz(axis=1), np.ones(fixed.size)) and np.all(hits.data == 1.0)

    def test_basis_reflection_is_momentum_parity(self, desk_bundle):
        basis = desk_bundle.basis
        refl = basis.occ[:, basis.lattice.slot_reflection()]
        assert np.array_equal(basis.occ[basis.reflection], refl)
        assert basis.reflection is basis.reflection

    @pytest.mark.parametrize("perm", [[1, 2, 0], [0, 0, 1], [2, 1]])
    def test_rejects_non_involutions(self, perm):
        with pytest.raises(ShapeError):
            linalg.reflection_isometries(np.array(perm))
