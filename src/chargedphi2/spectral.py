"""Eigenvalue experiments: ground states, gap probes, cutoff convergence.

Every choice between dense LAPACK and Lanczos is made by `linalg`, on one
size rule.  Every reported eigenpair must meet `linalg`'s residual contract
||H psi - E psi|| <= RESIDUAL_RTOL max(1, |E|), RESIDUAL_RTOL = 1e-8.
`low_lying` and `ground_state` take `bundle.h`, a `linalg.HermitianTriangle`,
and solve and check it by applying it; only the probe's evolution and
spectrum and the shifted solve read its `matrix`.

`bundle.h` and its eigenvectors live in the gauge frame of `fock.gauge_kernel`;
overlaps, resolvent and number norms are gauge invariant.  The probe gauges
its lab-frame field coefficients once and evolves them under
`oneparticle.omega_block`, in the same frame.  The probe's full spectrum is
the one dense spectrum here; it is split into momentum-parity blocks by
`linalg`.  The hvz onset overlaps come from the 2M x 2M Gram matrix of the
raised ground state; they and the probe read states through one gather,
`FockBasis.raised_overlaps`, so no dim x 2M frame and no Wick kernel is built.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ParameterError, SolverError
from .fock import FockBasis, WickKernel, fock_dimension, fock_embedding, gauge_kernel
from .hamiltonian import HamiltonianBundle
from .linalg import (
    RESIDUAL_RTOL,
    HermitianTriangle,
    check_dense,
    lowest_eigenpairs,
    operator_norm,
    reflected_eigvalsh,
    shifted_solver,
)
from .oneparticle import omega_block


def low_lying(op: HermitianTriangle, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of a Hermitian Fock operator, sorted ascending, solved
    and checked by applying op: no full matrix is built."""
    w, vecs = lowest_eigenpairs(op, k)
    res = np.linalg.norm(op @ vecs - vecs * w, axis=0)
    bad = np.flatnonzero(res > RESIDUAL_RTOL * np.maximum(1.0, np.abs(w)))
    if bad.size:
        i = bad[0]
        raise SolverError(
            f"eigenpair {i} misses the residual contract: {res[i]:.3e} at E={w[i]:.6g}"
        )
    return w, vecs


def ground_state(op: HermitianTriangle) -> tuple[float, np.ndarray]:
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


def _onset_overlaps(basis: FockBasis, vecs: np.ndarray) -> np.ndarray:
    """|P v|^2 = c^H G^+ c for each column v of vecs after the first, psi0 (the
    first gives 0), with P the projector onto the span of the columns a*_s psi0
    of the raise map A, c = A^H v (`FockBasis.raised_overlaps`) and G = A^H A,
    the n_slots x n_slots Gram matrix.

    A is not built.  Below the cap a_s a*_t = a*_t a_s + delta_st: G =
    |psi0_low|^2 I + W^T conj(W), W's column s a_s psi0_low on the states two
    below the cap (psi0_low: psi0 below the cap)."""
    up, slots, psi0 = basis.raise_table, np.arange(basis.n_slots), vecs[:, 0]
    psi_low = psi0[: len(up)]
    c = basis.raised_overlaps(psi0, vecs)
    lower = up[: fock_dimension(basis.n_slots, basis.n_max - 2)]
    w = np.sqrt(basis.occ[lower, slots], dtype=float) * psi0[lower]
    gram = w.T @ w.conj() + np.vdot(psi_low, psi_low).real * np.eye(len(slots))
    overlaps = np.sum(c.conj() * (np.linalg.pinv(gram, hermitian=True) @ c), axis=0).real
    overlaps[0] = 0.0
    return overlaps


def hvz_gap_probe(
    bundle: HamiltonianBundle,
    report_depth: int = 8,
    overlap_threshold: float = 0.5,
) -> SpectralReport:
    """Locate the onset of the one-free-particle branch above the ground state.

    Eigenvectors are ranked by their overlap with span{a*_s psi0}
    (`_onset_overlaps`, from the Gram matrix of the a*_s psi0); the lowest
    excited level whose overlap reaches the threshold is the onset estimate.
    In the free case the estimate equals the mass gap exactly.  Under lattice
    refinement onset - (e0 + m) fell 0.0094 -> 0.0036 -> 0.00079 on ladder.json,
    but levelled off at 0.0307 -> 0.0258 -> 0.0255 on the desk ladder (dims
    1,330 / 10,660 / 85,320).

    The search runs in two stages.  The first asks for the report_depth + 1
    lowest levels only.  When none of them reaches the threshold, the second
    widens to max(report_depth + 1, 2 n_slots + 2) levels and scans again.
    Both stages return the same lowest report_depth + 1 levels (to solver
    accuracy), so the first level past the threshold is the same either way,
    and the report (e0, gap, eigenvalues and overlaps) always comes from those
    lowest levels.
    """
    depth = report_depth + 1
    k_full = min(bundle.basis.dim, max(depth, 2 * bundle.basis.n_slots + 2))
    for k in sorted({min(k_full, depth), k_full}):
        w, vecs = low_lying(bundle.h, k)
        overlaps = _onset_overlaps(bundle.basis, vecs)
        passed = np.flatnonzero(overlaps >= overlap_threshold)
        if passed.size:
            break
    return SpectralReport(
        e0=float(w[0]),
        eigenvalues=w[:depth],
        gap=float(w[1] - w[0]) if len(w) > 1 else 0.0,
        hvz_onset_estimate=float(w[passed[0]]) if passed.size else None,
        onset_overlaps=overlaps[:depth],
        residual_bound=RESIDUAL_RTOL,
    )


@dataclass(frozen=True)
class ConvergenceTrace:
    """Per level: lattice, e0, || N (H + beta)^-1 || and bundle metadata; per pair, the resolvent gap."""

    levels: tuple
    beta: float
    resolvent_gaps: tuple
    e0_trace: tuple
    number_resolvent_norms: tuple
    bundles: tuple

    def as_dict(self) -> dict:
        return asdict(self)


def _resolvent_difference(coarse: HamiltonianBundle, fine: HamiltonianBundle, solve_c, solve_f):
    """(H_coarse + beta)^-1 - E^H (H_fine + beta)^-1 E from the two solves, Hermitian for real beta."""
    emb = fock_embedding(coarse.basis, fine.basis)

    def diff(x):
        return solve_c(x) - emb.T.conj() @ solve_f(emb @ x)

    n, dtype = coarse.basis.dim, np.result_type(coarse.h.dtype, fine.h.dtype)
    return spla.LinearOperator((n, n), matvec=diff, rmatvec=diff, matmat=diff, dtype=dtype)


def resolvent_convergence(
    bundles: Iterable[HamiltonianBundle], beta: Optional[float] = None
) -> ConvergenceTrace:
    """Norms of (H_coarse + beta)^-1 - compress((H_fine + beta)^-1) per pair, and
    `higher_order_norm` per level.

    Levels must be strictly nested, coarsest first.  They are walked once, each
    dropped with its solve after the next level's gap, so at most two are held.
    beta defaults to the shift policy, which lives here alone: 1 + |e0| at the
    coarsest level; it must clear the spectrum bottom at every level.  The free
    Hamiltonian compresses exactly, giving gap 0.
    """
    rows, gaps, prev, prev_solve = [], [], None, None
    for bundle in bundles:
        e0 = ground_state(bundle.h)[0]
        beta = 1.0 + abs(e0) if beta is None else beta
        if beta <= -e0:
            raise ParameterError(f"shift beta={beta} does not clear spectrum bottom {e0}")
        solve = shifted_solver(bundle.h.matrix, beta)
        if prev is not None:
            gaps.append(operator_norm(_resolvent_difference(prev, bundle, prev_solve, solve)))
        level = {"v": str(bundle.lattice.v), "kappa": bundle.lattice.kappa, "dim": bundle.basis.dim}
        rows.append((level, e0, higher_order_norm(bundle, beta, solve), bundle.metadata()))
        prev, prev_solve = bundle, solve
    if len(rows) < 2:
        raise ParameterError("need at least two nested levels")
    levels, e0s, norms, metadata = zip(*rows)
    return ConvergenceTrace(levels=levels, beta=float(beta), resolvent_gaps=tuple(gaps), e0_trace=e0s,
                            number_resolvent_norms=norms, bundles=metadata)


def higher_order_norm(bundle: HamiltonianBundle, beta: float, solve) -> float:
    """|| N (H + beta)^-1 ||, with solve the level's x -> (H + beta)^-1 x (`linalg.shifted_solver`)."""
    n, dtype = bundle.basis.dim, bundle.h.dtype
    n_op = sp.diags(bundle.basis.totals().astype(float), format="csr")
    # (H + beta)^-1 is Hermitian, so the adjoint of N (H + beta)^-1 is (H + beta)^-1 N.
    op = spla.LinearOperator(
        (n, n), matvec=lambda x: n_op @ solve(x), rmatvec=lambda x: solve(n_op @ x), dtype=dtype
    )
    return operator_norm(op)


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


def check_probe_ceiling(basis: FockBasis):
    """Refuse a basis whose larger momentum-parity block is over the dense
    ceiling: the probe diagonalizes each block of H in full.  The even block
    has a column per mirror pair and per state that is its own mirror."""
    fixed = int(np.count_nonzero(basis.reflection == np.arange(basis.dim)))
    check_dense((basis.dim + fixed) // 2, "momentum-parity block dimension")


def heisenberg_probe(
    bundle: HamiltonianBundle,
    f_coeffs: np.ndarray,
    times: Sequence[float],
    psi: Optional[np.ndarray] = None,
) -> ProbeResult:
    """Expectations <psi| e^{itH} phi(F_t) e^{-itH} |psi> with F_t one-particle evolved.

    F evolves backward under the dressed one-particle energy, F_t =
    exp(-it omega) F.  An explicit psi evolves under the full H by
    `expm_multiply` from the previous time.  The default psi is the computed
    ground state psi0, which is not evolved: psi_t = e^{-i E0 t} psi0, and the
    phase cancels in the expectation.  For the free bundle the two evolutions
    intertwine exactly and the expectation is time independent.  f_coeffs is a
    lab-frame vector and psi a state in the frame of bundle.h (the gauge
    frame).  G = F / sqrt(2) is gauged once and evolves in that frame, G_t =
    exp(-it omega_g) G_0 with omega_g = `omega_block` (real for an even
    potential), so the values are the lab-frame ones.  No field or
    annihilator is built: the expectation is 2 Re <G_t, m(psi_t)>, exactly
    real, with m_s(psi) = <psi, a_s psi> one gather (`FockBasis.raised_overlaps`),
    once for psi0 and once per time for an explicit psi.  The recurrence time
    needs every eigenvalue of H, from `linalg.reflected_eigvalsh` over the
    momentum parity, which refuses a parity block (all of H when H does not
    commute with it) over the dense ceiling; later times are flagged untrusted.
    """
    basis = bundle.basis
    f_coeffs = np.asarray(f_coeffs, dtype=complex)
    if f_coeffs.shape != (basis.n_slots,):
        raise ParameterError(f"probe vector must cover all {basis.n_slots} slots")
    g0 = gauge_kernel(WickKernel(p=1, q=0, species=(None,), coeffs=f_coeffs / math.sqrt(2.0))).coeffs.astype(complex)
    ww, u = np.linalg.eigh(omega_block(bundle.lam, bundle.pot, bundle.lattice))
    g_in_eig = u.conj().T @ g0

    hmat = bundle.h.matrix
    he = reflected_eigvalsh(hmat, basis.reflection)
    stationary = psi is None
    if stationary:
        psi = ground_state(bundle.h)[1]
    psi = np.asarray(psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ParameterError("probe state must be normalized")

    values, psi_t, t_prev = [], psi, 0.0
    m_t = basis.raised_overlaps(psi, psi[:, None])[:, 0]  # m_s = <psi, a_s psi>
    for t in times:
        g_t = u @ (np.exp(-1j * t * ww) * g_in_eig)
        if not stationary and t != t_prev:
            psi_t = spla.expm_multiply(-1j * (t - t_prev) * hmat, psi_t)
            t_prev, m_t = t, basis.raised_overlaps(psi_t, psi_t[:, None])[:, 0]
        values.append(2.0 * float(np.vdot(g_t, m_t).real))
    return ProbeResult(
        times=tuple(float(t) for t in times),
        values=tuple(values),
        recurrence_time=recurrence_time(he),
    )
