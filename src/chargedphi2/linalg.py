"""The solver policy: every choice between dense LAPACK and iterative ARPACK.

A Hermitian problem of dimension n wanting k eigenpairs goes dense iff n <=
DENSE_RATIO * ncv(k) (ARPACK's Krylov size max(2k + 1, 20)) and n <=
DENSE_CEILING, or k >= n, which Lanczos cannot solve and is refused over the
ceiling.  `check_dense` refuses any full dense matrix over it, naming what it
measured.  Lanczos starts from a fixed-seed Gaussian vector,
so runs are reproducible and no basis symmetry (momentum parity, say) keeps a
sector out of the Krylov space, as the uniform vector would.  Solvers keep
the matrix dtype: a real symmetric matrix gets the real drivers.

This module owns the residual contract: every reported eigenpair has
||A v - E v|| <= RESIDUAL_RTOL max(1, |E|), which `lowest_eigenpairs` checks
on every pair.  Lanczos stops there, not at machine precision: ARPACK gets
tol = RESIDUAL_RTOL / 100 and ends once each wanted Ritz pair's residual
estimate is below tol |E| (its stopping rule: Lehoucq, Sorensen & Yang, SIAM
1998).  The factor 100 leaves room for the gap between that estimate and the
true residual.  An eigenvalue is then accurate to the square of the residual
over the gap, far below the contract.  `operator_norm` stops at ARPACK tol =
NORM_TOL, not machine precision: its top eigenvalue is then accurate to the
square of that residual over the gap, inside the 1e-12 relative its tests pin.
On the 10,660 level of the desk ladder ||N (H + beta)^-1|| took 163 solves
instead of 283, and moved by 1.0e-15 relative.

The full dense spectrum of a CSR matrix (the probe's H) goes through one
splitter, `reflected_eigvalsh`.  When the matrix commutes with an involutive
permutation P of its indices (momentum parity, say), it is block diagonal in
the basis (e_s + e_Ps)/sqrt(2), (e_s - e_Ps)/sqrt(2), with each fixed point
e_s in the even block; the two blocks are diagonalized apart and their
eigenvalues merged.  The dense ceiling then bounds the larger block, not the
whole matrix.  The commutation is checked a chunk of rows at a time and each
block is the sparse product iso^T A iso, dense only as a block, so no
full-size copy of the input (P A P, or a difference) is ever made.

Every self-adjoint Fock operator is one type, `HermitianTriangle`: H held as
its strictly upper triangle T (CSC) and real, finite diagonal d, and applied as
H x = T x + T^H x + d x, with T^H x = conj(T^T conj(x)) from T's CSC arrays
read as CSR, so no transposed copy is made.  T x runs on a second thread
(scipy's sparse product releases the GIL) iff nnz(T) >= TWO_WORKER_NNZ and two
CPUs are free to the process; H x sums in one order, so it is bitwise the same
either way, and `applications` counts the products.  The eigensolvers take it
directly.  What needs a matrix (the dense path, the probe) reads `matrix`,
T^H + diag(d) + T built anew on each read.

Every resolvent goes through `shifted_solver`, conjugate gradients on H + beta
applied through the triangle: no Fock operator gets an LU or any other factor.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ContractError, ResourceLimitError, ShapeError, SolverError, stage

DENSE_RATIO = 10
DENSE_CEILING = 4_000
RESIDUAL_RTOL = 1e-8
NORM_TOL = 1e-8
SOLVE_RTOL = 1e-12
# A matrix commutes with a permutation P when max|P A P - A| <= REFLECTION_RTOL max|A|.
REFLECTION_RTOL = 1e-14
TWO_WORKER_NNZ = 2_000_000  # nnz(T) from which a second thread for T x pays: 1.0M measured no gain, 2.7M one


def ncv(k: int) -> int:
    """ARPACK's Krylov size for k pairs, scipy's default (which caps it at n)."""
    return max(2 * k + 1, 20)


def use_dense(n: int, k: int = 1) -> bool:
    """The one rule: dense LAPACK iff n <= DENSE_RATIO * ncv(k) and n is under the
    dense ceiling, or k >= n, which Lanczos cannot solve."""
    return n <= DENSE_RATIO * ncv(k) and (n <= DENSE_CEILING or k >= n)


@functools.cache  # two first calls at once make at most one extra pool, dropped after its call
def _second_worker():
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1, thread_name_prefix="chargedphi2-matvec")


def check_dense(n: int, what: str):
    """Refuse a full dense n x n matrix above the memory ceiling; what names n in the message."""
    if n > DENSE_CEILING:
        raise ResourceLimitError(n, DENSE_CEILING, "dense ceiling", what)


def reflection_isometries(perm: np.ndarray) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The isometries onto the even and odd subspaces of an involutive permutation.

    For each pair s < perm[s] the even one has the column (e_s + e_perm[s]) / sqrt(2)
    and the odd one (e_s - e_perm[s]) / sqrt(2); each fixed point e_s is an even
    column.  So the even block is the larger one, and the two sizes sum to n.
    """
    perm = np.asarray(perm)
    idx = np.arange(len(perm))
    if perm.ndim != 1 or not np.array_equal(np.sort(perm), idx) or not np.array_equal(perm[perm], idx):
        raise ShapeError("reflection must be an involutive permutation of the indices")
    pair, fixed = np.flatnonzero(idx < perm), np.flatnonzero(idx == perm)
    n, n_pair, r = len(perm), len(pair), 1.0 / math.sqrt(2.0)
    cols = np.arange(n_pair)
    even = sp.csr_matrix(
        (np.r_[np.full(2 * n_pair, r), np.ones(len(fixed))],
         (np.r_[pair, perm[pair], fixed], np.r_[cols, cols, n_pair + np.arange(len(fixed))])),
        shape=(n, n_pair + len(fixed)),
    )
    odd = sp.csr_matrix(
        (np.r_[np.full(n_pair, r), np.full(n_pair, -r)], (np.r_[pair, perm[pair]], np.r_[cols, cols])),
        shape=(n, n_pair),
    )
    return even, odd


def _commutes(mat, perm: np.ndarray) -> bool:
    """max|P A P - A| <= REFLECTION_RTOL max|A|, read 256 rows at a time."""
    chunks = [slice(r, r + 256) for r in range(0, mat.shape[0], 256)]
    top = max(abs(mat[rows]).max() for rows in chunks)
    return all(abs(mat[perm[rows]][:, perm] - mat[rows]).max() <= REFLECTION_RTOL * top for rows in chunks)


def reflected_eigvalsh(mat: sp.csr_matrix, perm: np.ndarray) -> np.ndarray:
    """Every eigenvalue of a Hermitian CSR matrix, sorted ascending.

    When mat commutes with the involutive permutation perm, the even and odd
    blocks of `reflection_isometries` are diagonalized apart and merged, and the
    dense ceiling bounds each block; otherwise the one block is mat itself
    (through the identity isometry) and the ceiling bounds it.
    """
    isometries = reflection_isometries(perm) if _commutes(mat, perm) else [sp.identity(len(perm), format="csr")]
    check_dense(max(iso.shape[1] for iso in isometries), "reflection block dimension")
    # each block is a fresh copy, so LAPACK may overwrite it, and is dropped after its eigvalsh
    parts = [sla.eigvalsh((iso.T @ mat @ iso).toarray(), overwrite_a=True, driver="evd") for iso in isometries]
    return np.sort(np.concatenate(parts))


def start_vector(n: int) -> np.ndarray:
    """The Lanczos start vector: standard Gaussian from a fixed seed."""
    return np.random.default_rng(0).standard_normal(n)


def real_if_exact(a: np.ndarray) -> np.ndarray:
    """a as a float64 copy when no entry has an imaginary part, else a itself."""
    return a.real.copy() if np.iscomplexobj(a) and not np.any(a.imag) else a


class HermitianTriangle(spla.LinearOperator):
    """H = T + T^H + diag(d) for T strictly upper (CSC) and d real and finite
    (else ContractError), applied from T and d alone."""

    def __init__(self, t: sp.csc_matrix, d: np.ndarray):
        if np.iscomplexobj(d) or not np.all(np.isfinite(d)):
            raise ContractError("the diagonal of a Hermitian operator must be real and finite")
        super().__init__(dtype=np.result_type(t.dtype, d.dtype), shape=t.shape)
        self.t, self.d = t, d
        self._t_transposed = t.T  # T's CSC arrays read as CSR: no copy
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        self.workers = 2 if t.nnz >= TWO_WORKER_NNZ and cpus >= 2 else 1  # the worker rule
        self.applications = 0

    def _lower(self, x: np.ndarray) -> np.ndarray:
        """T^H x = conj(T^T conj(x))."""
        if np.iscomplexobj(self.t):
            return (self._t_transposed @ x.conj()).conj()
        return self._t_transposed @ x

    def _matmat(self, x: np.ndarray) -> np.ndarray:
        self.applications += 1
        upper = _second_worker().submit(self.t.__matmul__, x) if self.workers > 1 else None
        lower = self._lower(x)
        y = upper.result() if upper is not None else self.t @ x
        y += lower
        y += self.d.reshape((-1,) + (1,) * (x.ndim - 1)) * x
        return y

    _matvec = _matmat

    def _adjoint(self) -> "HermitianTriangle":
        return self  # H^H = H: rmatvec is matvec, and `operator_norm` takes H directly

    @property
    def matrix(self) -> sp.csr_matrix:
        """The CSR of H, built anew on each read."""
        return self.t.getH() + sp.diags(self.d, format="csr") + self.t


def is_diagonal(op: HermitianTriangle) -> bool:
    """True iff no entry of T is nonzero (an explicit zero counts as none)."""
    return not np.any(op.t.data)


def lowest_eigenpairs(op: HermitianTriangle, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of H, sorted ascending, as the `solve` stage; each pair
    is checked against the residual contract by applying op (else SolverError).

    A diagonal H is read off d directly, which keeps exact zeros exact;
    otherwise LAPACK computes only the k wanted pairs, or Lanczos runs.
    """
    n = op.shape[0]
    k = min(k, n)
    path = "diagonal" if is_diagonal(op) else "lapack" if use_dense(n, k) else "arpack"
    with stage("solve", path=path, n=n, k=k) as counts:
        applied = op.applications
        if path == "diagonal":
            order = np.argsort(op.d, kind="stable")[:k]
            w, vecs = op.d[order], np.zeros((n, k), dtype=op.dtype)
            vecs[order, np.arange(k)] = 1.0
        elif path == "lapack":
            check_dense(n, "full eigendecomposition dimension")
            w, vecs = sla.eigh(op.matrix.toarray(), subset_by_index=[0, k - 1])
        else:
            counts["ncv"] = ncv(k)
            try:
                w, vecs = spla.eigsh(op, k=k, which="SA", v0=start_vector(n), ncv=ncv(k), maxiter=20000,
                                     tol=RESIDUAL_RTOL / 100)
            except spla.ArpackError as exc:
                raise SolverError(f"Lanczos failed to converge: {exc}") from exc
            order = np.argsort(w)
            w, vecs = w[order], vecs[:, order]
        counts["H x"] = op.applications - applied
        res = np.linalg.norm(op @ vecs - vecs * w, axis=0)
        counts["max residual"] = f"{res.max():.2g}"
        bad = np.flatnonzero(res > RESIDUAL_RTOL * np.maximum(1.0, np.abs(w)))
        if bad.size:
            i = bad[0]
            raise SolverError(f"eigenpair {i} misses the residual contract: {res[i]:.3e} at E={w[i]:.6g}")
    return w, vecs


def shifted_solver(op: HermitianTriangle, beta: float) -> spla.LinearOperator:
    """(H + beta)^-1 as a Hermitian operator, applied a column at a time: exactly for a
    diagonal H, else by CG on op @ y + beta y preconditioned by (d + beta)^-1, stopped
    at a tenth of the contract ||(H + beta) y - x|| <= SOLVE_RTOL ||x|| that the true
    residual must meet (else SolverError).  Its `counts` tally solves and CG iterations."""
    shifted, diagonal = op.d + beta, is_diagonal(op)
    system = spla.LinearOperator(op.shape, matvec=lambda y: op @ y + beta * y, dtype=op.dtype)
    jacobi = spla.LinearOperator(op.shape, matvec=lambda r: r / shifted, dtype=op.dtype)

    def solve(x):
        x, applied = x.ravel(), op.applications
        inverse.counts["solves"] += 1
        if diagonal:
            return x / shifted
        y, info = spla.cg(system, x, rtol=SOLVE_RTOL / 10, atol=0.0, M=jacobi)
        inverse.counts["CG iterations"] += op.applications - applied
        res, size = np.linalg.norm(system @ y - x), np.linalg.norm(x)
        if info != 0 or not res <= SOLVE_RTOL * size:
            raise SolverError(f"CG misses the solve contract: residual {res:.3e} at |x| {size:.3e}, cg info {info}")
        return y

    inverse = spla.LinearOperator(op.shape, matvec=solve, rmatvec=solve, dtype=op.dtype)
    inverse.counts = {"solves": 0, "CG iterations": 0}
    return inverse


def operator_norm(a, hermitian: bool = False) -> float:
    """Largest singular value of an array, sparse matrix or LinearOperator.

    An operator whose a^H a is small by the rule goes through a dense SVD.
    Otherwise Lanczos finds the top eigenvalue of a^H a from the seeded start
    vector; an operator that maps that vector to exactly zero is taken to be
    zero and gives 0.0, since ARPACK refuses a zero starting residual.  For a
    Hermitian a (hermitian=True) Lanczos runs on a itself, with about half the
    applications, for every n > ncv(1): an application may cost solves.
    """
    if not (sp.issparse(a) or isinstance(a, spla.LinearOperator)):
        a = np.asarray(a)
        if a.ndim != 2:
            raise ShapeError("operator_norm expects a matrix")
    op = spla.aslinearoperator(a)
    n = op.shape[1]
    if (n <= ncv(1)) if hermitian else use_dense(n):
        dense = a if isinstance(a, np.ndarray) else op.matmat(np.eye(n, dtype=op.dtype))
        return float(np.linalg.svd(dense, compute_uv=False)[0])
    v0 = start_vector(n)
    if not np.any(op.matvec(v0)):
        return 0.0
    try:
        top = spla.eigsh(op if hermitian else op.H @ op, k=1, which="LM", v0=v0, ncv=ncv(1), tol=NORM_TOL,
                         return_eigenvectors=False)
    except spla.ArpackError as exc:
        raise SolverError(f"Lanczos norm failed to converge: {exc}") from exc
    return abs(float(top[0].real)) if hermitian else math.sqrt(max(float(top[0].real), 0.0))
