"""One-particle operators on a momentum lattice.

Everything here lives on the span of the lattice cell basis, where the matrix
of an operator with momentum kernel K(k1, k2) is the midpoint compression
K(gamma, gamma') / v.  That single 1/v quadrature weight makes the matrix
2-norm approximate the operator norm and the plain Frobenius norm approximate
the Hilbert-Schmidt norm of the continuum kernel, so the two norm constants
entering the stability threshold are read off the weighted matrices directly.

Every matrix here is lab frame except the dressed one-particle energy, built in
H's gauge frame as its two M x M charge blocks (`omega_blocks`).  For a real
V_hat (an even V) the potential matrix, the threshold's arithmetic and both
blocks are float64, with no complex temporary.  No matrix here is larger than
M x M, and each is refused over the dense ceiling first (`check_lattice`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .errors import ParameterError, ShapeError
from .lattice import MomentumLattice
from .linalg import check_dense, operator_norm, real_if_exact
from .potentials import Potential


def check_lattice(lattice: MomentumLattice):
    """Refuse a lattice whose M x M one-particle matrices are over the dense ceiling."""
    check_dense(lattice.size, "momentum lattice mode count")


def potential_matrix(pot: Potential, lattice: MomentumLattice) -> np.ndarray:
    """Momentum-representation matrix of multiplication by the potential.

    Entry (gamma, gamma') is V_hat(gamma - gamma') / (2 pi v): Hermitian for
    real potentials, as V_hat(-k) = conj(V_hat(k)), float64 for a real V_hat.
    A lattice over the dense ceiling is refused before any M x M array exists.
    """
    check_lattice(lattice)
    g = lattice.modes
    # times the reciprocal, bitwise what numpy's complex division by a real scalar gives
    return real_if_exact(np.asarray(pot.V_hat(g[:, None] - g[None, :]))) * (1.0 / (2 * np.pi * float(lattice.v)))


def _weighted_potential(pot: Potential, lattice: MomentumLattice) -> np.ndarray:
    """sym V, sym_ij = (s_i / s_j + s_j / s_i) / 2 for s = eps^1/2, so b = i sym V; float64 for a real V_hat."""
    m = potential_matrix(pot, lattice)
    s = np.sqrt(lattice.dispersion())
    sym = s[:, None] / s[None, :]
    sym += 1.0 / sym
    sym *= 0.5
    return sym * m


def b_matrix(pot: Potential, lattice: MomentumLattice) -> np.ndarray:
    """Charge-mixing one-particle operator b.

    b = (i/2)(eps^{1/2} V eps^{-1/2} + eps^{-1/2} V eps^{1/2}) in the momentum
    representation; anti-Hermitian (b^H = -b) for real V.
    """
    return 1j * _weighted_potential(pot, lattice)


def pair_kernel(pot: Potential, lattice: MomentumLattice) -> np.ndarray:
    """Kernel of the pair-creation part of the charge operator.

    Entry (i, j) couples a species-1 creator at mode i with a species-2
    creator at mode j; antisymmetry R_ij = -R_ji is exact by construction.

    R(g, g') = (i/4pi) V_hat(g+g') (eps(g)^{1/2} eps(g')^{-1/2}
                - eps(g)^{-1/2} eps(g')^{1/2}) / v.

    The diagonal vanishes (the bracket is antisymmetric) and every entry obeys
    |R(g, g')| <= (1/4pi) |Vp_hat(g+g')| eps(g)^{-1/2} eps(g')^{-1/2} / v.
    """
    g = lattice.modes
    s = np.sqrt(lattice.dispersion())
    ratio = s[:, None] / s[None, :]
    bracket = ratio - ratio.T
    vhat = np.asarray(pot.V_hat(g[:, None] + g[None, :]), dtype=complex)
    return (1j / (4 * np.pi)) * vhat * bracket / float(lattice.v)


def pair_kernel_bound(pot: Potential, lattice: MomentumLattice) -> np.ndarray:
    """Entrywise upper bound matrix (1/4pi) |Vp_hat(g+g')| / sqrt(eps eps') / v."""
    g = lattice.modes
    s = np.sqrt(lattice.dispersion())
    vp = np.abs(pot.Vp_hat(g[:, None] + g[None, :]))
    return vp / (4 * np.pi * s[:, None] * s[None, :] * float(lattice.v))


@dataclass(frozen=True)
class CouplingReport:
    """Norm constants and the stability threshold for a potential on a lattice.

    c0 is half the operator norm of eps^{-1} V + V eps^{-1}; c1 the Frobenius
    (discrete Hilbert-Schmidt) norm of eps^{-1/2} [V, eps] eps^{-1/2}; the
    threshold is 1 / (c0 + c1/m), +infinity when both constants vanish.
    """

    c0: float
    c1: float
    lambda_quant: float
    lattice: MomentumLattice

    def as_dict(self) -> dict:
        return {
            "c0": self.c0,
            "c1": self.c1,
            "lambda_quant": self.lambda_quant,
            "lattice": {"v": str(self.lattice.v), "kappa": self.lattice.kappa},
        }


def lambda_quant(pot: Potential, lattice: MomentumLattice) -> CouplingReport:
    """Compute the coupling threshold below which the charge term is tame.

    Both constants are 1-homogeneous in the potential, so the threshold scales
    as lambda_quant(t V) = lambda_quant(V) / t.  The potential matrix is real
    for an even potential, and then so is all the arithmetic here.
    """
    m = potential_matrix(pot, lattice)
    eps = lattice.dispersion()
    sym = m / eps[None, :]
    sym += m / eps[:, None]
    c0 = 0.5 * operator_norm(sym)
    s = np.sqrt(eps)
    comm = np.multiply(m, eps[None, :] - eps[:, None], out=sym)  # sym's buffer, no longer read
    comm /= s[:, None] * s[None, :]
    c1 = float(np.linalg.norm(comm))
    denom = c0 + c1 / lattice.m
    lam = math.inf if denom == 0.0 else 1.0 / denom
    return CouplingReport(c0=c0, c1=c1, lambda_quant=lam, lattice=lattice)


def omega_blocks(lam: float, pot: Potential, lattice: MomentumLattice) -> tuple[np.ndarray, np.ndarray]:
    """The dressed one-particle energy D^* omega D in the gauge frame of H as its
    two M x M charge blocks (eps + C, eps - C).

    omega = [[eps, lam b], [lam b^H, eps]] over the 2M species-major slots and
    D = diag(i^{N_2}) multiplies the species-2 slots by i.  The gauged corner
    C = i lam b = -lam sym V (`fock.gauge_kernel`) is Hermitian for every real
    V, as b is anti-Hermitian, so D^* omega D = [[eps, C], [C, eps]] is (eps +
    C) (+) (eps - C) on the modes c+- = (a1 +- a2)/sqrt(2).  Both blocks are
    float64, with no complex temporary, for an even potential and complex
    Hermitian otherwise.
    """
    plus = -lam * _weighted_potential(pot, lattice)
    minus, diag = -plus, np.diag_indices_from(plus)
    plus[diag], minus[diag] = plus[diag] + lattice.dispersion(), minus[diag] + lattice.dispersion()
    return plus, minus


def omega_bottom(lam: float, pot: Potential, lattice: MomentumLattice) -> float:
    """The bottom of omega, the lower of its `omega_blocks`' bottoms; positive for |lam| < lambda_quant."""
    return min(float(sla.eigvalsh(b, subset_by_index=[0, 0])[0]) for b in omega_blocks(lam, pot, lattice))


@dataclass(frozen=True)
class WeylGrid:
    """Matched position/momentum grids for the midpoint Weyl quantizer.

    The momentum grid is the sorted FFT dual of the position grid, so a
    position-independent symbol quantizes to an exact Fourier multiplier.
    """

    x: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 1 or self.k.ndim != 1 or self.x.size != self.k.size:
            raise ShapeError("position and momentum grids must be 1d of equal size")

    @property
    def size(self) -> int:
        return self.x.size

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dk(self) -> float:
        return float(self.k[1] - self.k[0])


def weyl_grid(points: int, length: float) -> WeylGrid:
    """Centered position grid of given extent with a half-dual momentum grid.

    The momentum spacing is pi/length, so the kernel quadrature is periodic in
    x - y with period twice the position extent: no wrap-around image reaches
    the far corners of the matrix, which a plain FFT-dual grid would alias.
    """
    if points < 2 or points % 2 != 0:
        raise ParameterError(f"points must be even and >= 2, got {points}")
    dx = length / points
    x = (np.arange(points) - points // 2) * dx
    dk = np.pi / length
    k = (np.arange(points) - points // 2) * dk
    return WeylGrid(x=x, k=k)


def weyl_quantize(symbol: Callable[[np.ndarray, np.ndarray], np.ndarray], grid: WeylGrid) -> np.ndarray:
    """Midpoint discretization of the Weyl operator of a phase-space symbol.

    Matrix entries are (2 pi)^{-1} sum_l exp(i (x_i - x_j) k_l)
    a((x_i + x_j)/2, k_l) dk dx, so the squared Frobenius norm approximates
    (2 pi)^{-1} times the squared L2 norm of the symbol.  The phase is
    e_il conj(e_jl) with e = exp(i x k), and on the equispaced grid the
    midpoint of (i, j) is node i + j of the half-step grid (2n - 1 nodes).
    """
    x, k = grid.x, grid.k
    n = grid.size
    mids = x[0] + 0.5 * grid.dx * np.arange(2 * n - 1)
    table = np.broadcast_to(np.asarray(symbol(mids[:, None], k[None, :]), dtype=complex), (2 * n - 1, n))
    e = np.exp(1j * x[:, None] * k[None, :])
    out = np.empty((n, n), dtype=complex)
    for j in range(n):
        out[:, j] = (e * table[j : j + n]) @ e[j].conj()
    return grid.dk * grid.dx / (2 * np.pi) * out


def hs_norm_squared(mat: np.ndarray) -> float:
    """Squared Frobenius norm, the discrete Hilbert-Schmidt size of an operator."""
    return float(np.linalg.norm(mat) ** 2)

