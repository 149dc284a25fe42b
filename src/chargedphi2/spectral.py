"""Eigenvalue experiments: ground states, gap probes, cutoff convergence.

Solvers switch on size: exactly diagonal operators are read off directly,
dense Hermitian solves run below dimension 4000, and sparse Lanczos with a
deterministic start vector handles the rest.  Every reported eigenpair must
meet the residual contract ||H psi - E psi|| <= 1e-8 max(1, |E|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ParameterError, ResourceLimitError, SolverError
from .fock import FockOperator, creation, field_operator, fock_embedding, number_operator
from .hamiltonian import HamiltonianBundle
from .lattice import build_nested

DENSE_EIG_LIMIT = 4000
RESIDUAL_RTOL = 1e-8
POWER_STEPS = 50
POWER_TOL = 1e-8


def _is_diagonal(mat: sp.csr_matrix) -> bool:
    return (mat - sp.diags(mat.diagonal())).nnz == 0


def _check_residuals(mat, w, vecs):
    for i in range(len(w)):
        res = np.linalg.norm(mat @ vecs[:, i] - w[i] * vecs[:, i])
        if res > RESIDUAL_RTOL * max(1.0, abs(w[i])):
            raise SolverError(
                f"eigenpair {i} misses the residual contract: {res:.3e} at E={w[i]:.6g}"
            )


def low_lying(op: FockOperator, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of a Hermitian Fock operator, sorted ascending."""
    mat = op.matrix
    n = mat.shape[0]
    k = min(k, n)
    if _is_diagonal(mat):
        diag = mat.diagonal().real
        order = np.argsort(diag, kind="stable")[:k]
        w = diag[order]
        vecs = np.zeros((n, k), dtype=complex)
        vecs[order, np.arange(k)] = 1.0
        return w, vecs
    if n <= DENSE_EIG_LIMIT:
        w, vecs = np.linalg.eigh(mat.toarray())
        w, vecs = w[:k], vecs[:, :k]
    else:
        if k >= n - 1:
            raise ParameterError("sparse path cannot return the full spectrum")
        v0 = np.full(n, 1.0 / math.sqrt(n))
        try:
            w, vecs = spla.eigsh(mat, k=k, which="SA", v0=v0, maxiter=20000)
        except spla.ArpackNoConvergence as exc:
            raise SolverError(f"Lanczos failed to converge: {exc}") from exc
        order = np.argsort(w)
        w, vecs = w[order], vecs[:, order]
    _check_residuals(mat, w, vecs)
    return w, vecs


def ground_state(op: FockOperator) -> tuple[float, np.ndarray]:
    """Lowest eigenpair, meeting the residual contract."""
    w, vecs = low_lying(op, 1)
    return float(w[0]), vecs[:, 0]


@dataclass(frozen=True)
class SpectralReport:
    """Low-lying spectrum with the quasi-continuum onset diagnostic."""

    e0: float
    eigenvalues: np.ndarray = field(repr=False)
    gap: float
    hvz_onset_estimate: Optional[float]
    onset_overlaps: np.ndarray = field(repr=False)
    residual_bound: float

    def as_dict(self) -> dict:
        return {
            "e0": self.e0,
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "gap": self.gap,
            "hvz_onset_estimate": self.hvz_onset_estimate,
            "onset_overlaps": [float(x) for x in self.onset_overlaps],
            "residual_bound": self.residual_bound,
        }


def _one_particle_excess_frame(bundle: HamiltonianBundle, psi0: np.ndarray) -> np.ndarray:
    """Orthonormal frame for span{a*_slot psi0}: ground state plus one particle."""
    basis = bundle.basis
    cols = []
    for species in (1, 2):
        for gamma in basis.lattice.modes:
            vec = creation(basis, species, gamma).matrix @ psi0
            nrm = np.linalg.norm(vec)
            if nrm > 1e-12:
                cols.append(vec / nrm)
    if not cols:
        return np.zeros((basis.dim, 0), dtype=complex)
    q, _ = np.linalg.qr(np.column_stack(cols))
    return q


def hvz_gap_probe(
    bundle: HamiltonianBundle,
    report_depth: int = 8,
    overlap_threshold: float = 0.5,
) -> SpectralReport:
    """Locate the onset of the one-free-particle branch above the ground state.

    Eigenvectors are ranked by their overlap with span{a*_s psi0}; the lowest
    excited level whose overlap exceeds the threshold is the onset estimate.
    In the free case the estimate equals the mass gap exactly.  Under lattice
    refinement with localized potential and profile, onset - (e0 + m) shrinks.
    """
    k = min(bundle.basis.dim, max(report_depth + 1, 2 * bundle.basis.n_slots + 2))
    w, vecs = low_lying(bundle.h, k)
    e0, psi0 = float(w[0]), vecs[:, 0]
    frame = _one_particle_excess_frame(bundle, psi0)
    overlaps = np.zeros(len(w))
    onset = None
    for j in range(1, len(w)):
        if frame.shape[1]:
            overlaps[j] = float(np.linalg.norm(frame.conj().T @ vecs[:, j]) ** 2)
        if onset is None and overlaps[j] >= overlap_threshold:
            onset = float(w[j])
    depth = min(report_depth + 1, len(w))
    return SpectralReport(
        e0=e0,
        eigenvalues=w[:depth],
        gap=float(w[1] - w[0]) if len(w) > 1 else 0.0,
        hvz_onset_estimate=onset,
        onset_overlaps=overlaps[:depth],
        residual_bound=RESIDUAL_RTOL,
    )


@dataclass(frozen=True)
class ConvergenceTrace:
    """Per-level ground energies and adjacent resolvent-difference norms."""

    levels: tuple
    beta: float
    resolvent_gaps: tuple
    e0_trace: tuple

    def as_dict(self) -> dict:
        return {
            "levels": list(self.levels),
            "beta": self.beta,
            "resolvent_gaps": list(self.resolvent_gaps),
            "e0_trace": list(self.e0_trace),
        }


def _solver_for(mat: sp.csr_matrix, beta: float):
    """Return x -> (mat + beta)^-1 x, dense or factorized by size."""
    n = mat.shape[0]
    shifted = (mat + beta * sp.identity(n, dtype=complex, format="csr")).tocsc()
    if n <= DENSE_EIG_LIMIT:
        inv = np.linalg.inv(shifted.toarray())
        return lambda x: inv @ x
    lu = spla.splu(shifted)
    return lambda x: lu.solve(x)


def _power_norm(apply_fn, n: int) -> float:
    """Operator norm of a Hermitian map by power iteration (50 steps, 1e-8)."""
    v = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
    est = 0.0
    for _ in range(POWER_STEPS):
        w = apply_fn(v)
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        if abs(nrm - est) <= POWER_TOL * max(nrm, 1e-30):
            return nrm
        est = nrm
    return est


def default_shift(bundle: HamiltonianBundle) -> float:
    """The resolvent shift policy: 1 + |min spec H| at this (coarsest) level."""
    e0, _ = ground_state(bundle.h)
    return 1.0 + abs(e0)


def resolvent_convergence(
    bundles: Sequence[HamiltonianBundle], beta: Optional[float] = None
) -> ConvergenceTrace:
    """Norms of (H_coarse + beta)^-1 - compress((H_fine + beta)^-1) per pair.

    Levels must be strictly nested; beta defaults to the shift policy at the
    coarsest level and must clear the spectrum bottom at every level.  The
    free Hamiltonian compresses exactly, giving gap 0.
    """
    if len(bundles) < 2:
        raise ParameterError("need at least two nested levels")
    e0s = [ground_state(b.h)[0] for b in bundles]
    if beta is None:
        beta = 1.0 + abs(e0s[0])
    for e0 in e0s:
        if beta <= -e0:
            raise ParameterError(f"shift beta={beta} does not clear spectrum bottom {e0}")
    gaps = []
    for coarse, fine in zip(bundles, bundles[1:]):
        pair = build_nested(coarse.lattice, fine.lattice)
        emb = fock_embedding(pair, coarse.basis, fine.basis)
        solve_c = _solver_for(coarse.h.matrix, beta)
        solve_f = _solver_for(fine.h.matrix, beta)

        def diff(x):
            return solve_c(x) - emb.T.conj() @ solve_f(emb @ x)

        gaps.append(_power_norm(diff, coarse.basis.dim))
    levels = tuple(
        {"v": str(b.lattice.v), "kappa": b.lattice.kappa, "dim": b.basis.dim} for b in bundles
    )
    return ConvergenceTrace(
        levels=levels, beta=float(beta), resolvent_gaps=tuple(gaps), e0_trace=tuple(e0s)
    )


def higher_order_norm(bundle: HamiltonianBundle, beta: float) -> float:
    """|| N (H + beta)^-1 ||, the single-power number-resolvent bound."""
    n = bundle.basis.dim
    totals = bundle.basis.totals().astype(float)
    if n <= DENSE_EIG_LIMIT:
        shifted = bundle.h.matrix.toarray() + beta * np.eye(n)
        dense = totals[:, None] * np.linalg.inv(shifted)
        return float(np.linalg.svd(dense, compute_uv=False)[0])
    n_op = number_operator(bundle.basis).matrix
    solve = _solver_for(bundle.h.matrix, beta)

    def gram(x):
        # (H+b)^-1 N^2 (H+b)^-1 is Hermitian with norm ||N (H+b)^-1||^2.
        y = solve(x)
        return solve(n_op @ (n_op @ y))

    return math.sqrt(_power_norm(gram, n))


def recurrence_time(eigenvalues: np.ndarray, tol: float = 1e-10) -> float:
    """2 pi over the smallest positive level spacing; inf if fully degenerate."""
    w = np.sort(np.asarray(eigenvalues, dtype=float))
    gaps = np.diff(w)
    gaps = gaps[gaps > tol]
    return float(2 * np.pi / gaps.min()) if gaps.size else math.inf


@dataclass(frozen=True)
class ProbeResult:
    """Heisenberg-picture field expectations along a time grid."""

    times: tuple
    values: tuple
    recurrence_time: float

    def trusted(self) -> tuple:
        return tuple(t < self.recurrence_time for t in self.times)

    def as_dict(self) -> dict:
        return {
            "times": list(self.times),
            "values_re": [v.real for v in self.values],
            "values_im": [v.imag for v in self.values],
            "recurrence_time": self.recurrence_time,
            "trusted": list(self.trusted()),
        }


def heisenberg_probe(
    bundle: HamiltonianBundle,
    f_coeffs: np.ndarray,
    times: Sequence[float],
    psi: Optional[np.ndarray] = None,
) -> ProbeResult:
    """Expectations <psi| e^{itH} phi(F_t) e^{-itH} |psi> with F_t one-particle evolved.

    F evolves backward under the dressed one-particle energy, F_t =
    exp(-it omega) F; the state evolves under the full H through its dense
    eigendecomposition.  For the free bundle the two evolutions intertwine
    exactly and the expectation is time independent.  Results past the
    recurrence time estimate are flagged untrusted in the report.
    """
    basis = bundle.basis
    n = basis.dim
    if n > DENSE_EIG_LIMIT:
        raise ResourceLimitError(n, DENSE_EIG_LIMIT)
    f_coeffs = np.asarray(f_coeffs, dtype=complex)
    if f_coeffs.shape != (basis.n_slots,):
        raise ParameterError(f"probe vector must cover all {basis.n_slots} slots")
    omega = bundle.one_particle_energy()
    ww, u = np.linalg.eigh(omega)
    f_in_eig = u.conj().T @ f_coeffs

    hmat = bundle.h.matrix
    if _is_diagonal(hmat):
        he = hmat.diagonal().real
        hv = None
    else:
        he, hv = np.linalg.eigh(hmat.toarray())
    if psi is None:
        psi = ground_state(bundle.h)[1]
    psi = np.asarray(psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ParameterError("probe state must be normalized")

    values = []
    for t in times:
        f_t = u @ (np.exp(-1j * t * ww) * f_in_eig)
        phi_t = field_operator(basis, None, f_t)
        if hv is None:
            psi_t = np.exp(-1j * t * he) * psi
        else:
            psi_t = hv @ (np.exp(-1j * t * he) * (hv.conj().T @ psi))
        values.append(complex(np.vdot(psi_t, phi_t.matrix @ psi_t)))
    return ProbeResult(
        times=tuple(float(t) for t in times),
        values=tuple(values),
        recurrence_time=recurrence_time(he),
    )
