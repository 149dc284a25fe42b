"""Stable quantization at the one-particle level on a periodic grid.

The complex field pair (pi, phi) is split into real components and stored as a
real 4G vector in the block order (pi_1, pi_2, phi_1, phi_2).  The free-field
kinetic operator -Laplacian + m^2 is realized spectrally, so it is exactly
diagonal in the discrete Fourier basis and the potential coupling carries all
the nontrivial structure.  The construction is: energy metric -> generator of
the classical flow (metric-antisymmetric) -> polar decomposition a = j h in
the metric -> complex structure j and one-particle energy h.

The phase vector splits into two charge sectors, A = (pi_1, phi_2) and
B = (pi_2, phi_1) (`charge_sectors`).  The energy metric has no A x B block and
the generator maps A to B and B to A, so its square is block diagonal: the
margin, the polar decomposition and the singular-value check run on the 2G x 2G
sector blocks, and only the results j and h are laid out as 4G x 4G matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import IllConditionedError, ParameterError, ShapeError, UnstableConfigurationError
from .linalg import check_dense, operator_norm
from .potentials import Potential

SINGULAR_THRESHOLD = 1e-10


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform periodic position grid carrying the mass and potential samples."""

    x: np.ndarray = field(repr=False)
    dx: float
    m: float
    v_samples: np.ndarray = field(repr=False)

    @property
    def points(self) -> int:
        return self.x.size

    def fft_momenta(self) -> np.ndarray:
        return 2 * np.pi * np.fft.fftfreq(self.points, d=self.dx)


def phase_space_grid(points: int, length: float, m: float, pot: Potential) -> PhaseSpaceGrid:
    if points < 2 or points % 2 != 0:
        raise ParameterError(f"grid size must be even and >= 2, got {points}")
    check_dense(4 * points, "phase-space matrix dimension")  # the energy Gram, generator and polar are 4G x 4G
    if length <= 0 or m <= 0:
        raise ParameterError(f"length and mass must be positive, got {length}, {m}")
    dx = length / points
    x = (np.arange(points) - points // 2) * dx
    return PhaseSpaceGrid(x=x, dx=dx, m=float(m), v_samples=np.asarray(pot.V(x), dtype=float))


def _multiplier_matrix(grid: PhaseSpaceGrid, f) -> np.ndarray:
    """Dense real matrix of the Fourier multiplier f(k) on the periodic grid."""
    k = grid.fft_momenta()
    eye = np.eye(grid.points)
    out = np.fft.ifft(f(k)[:, None] * np.fft.fft(eye, axis=0), axis=0)
    return np.real(out)


@dataclass(frozen=True)
class RealGenerator:
    """Generator of the classical flow with the energy Gram matrix.

    The generator is antisymmetric with respect to the metric,
    a^T metric + metric a = 0, which is the discrete statement that the flow
    preserves the energy form.  margin is the grid's `positivity_margin`.
    """

    grid: PhaseSpaceGrid
    matrix: np.ndarray = field(repr=False)
    metric: np.ndarray = field(repr=False)
    margin: float


@dataclass(frozen=True)
class KahlerStructure:
    """Polar data of the generator: a = j h with j^2 = -1 and h metric-positive."""

    grid: PhaseSpaceGrid
    j: np.ndarray = field(repr=False)
    h_v: np.ndarray = field(repr=False)
    h_spectrum: np.ndarray = field(repr=False)

    def j_square_residual(self) -> float:
        n = self.j.shape[0]
        return operator_norm(self.j @ self.j + np.eye(n))

    def reconstruction_residual(self, gen: RealGenerator) -> float:
        return operator_norm(self.j @ self.h_v - gen.matrix) / operator_norm(gen.matrix)


def symplectic_gram(grid: PhaseSpaceGrid) -> np.ndarray:
    """Real symplectic Gram: Re omega(y, y') = sum_i (pi_i|phi_i') - (phi_i|pi_i')."""
    eye, o = np.eye(2 * grid.points), np.zeros((2 * grid.points, 2 * grid.points))
    return grid.dx * np.block([[o, eye], [-eye, o]])


def _energy_grams(grid: PhaseSpaceGrid):
    """Free and cross Gram matrices of the polarized energy form.

    Free part: |pi|^2 + |eps phi|^2; cross part: 2(pi_1|V phi_2) - 2(pi_2|V phi_1).
    """
    g = grid.points
    m2 = grid.m**2
    e2 = _multiplier_matrix(grid, lambda k: k**2 + m2)
    o = np.zeros((g, g))
    vd = np.diag(grid.v_samples)
    free = grid.dx * sla.block_diag(np.eye(2 * g), e2, e2)
    cross = grid.dx * np.block(
        [
            [o, o, o, vd],
            [o, o, -vd, o],
            [o, -vd, o, o],
            [vd, o, o, o],
        ]
    )
    return free, cross


def charge_sectors(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the sectors A = (pi_1, phi_2) and B = (pi_2, phi_1) in the 4G phase vector."""
    r = np.arange(points)
    return np.r_[r, r + 3 * points], np.r_[r + points, r + 2 * points]


def _margin(free: np.ndarray, cross: np.ndarray) -> float:
    """Largest magnitude of the generalized eigenvalues of cross against free, sector by sector."""
    if not np.any(cross):
        return 0.0
    blocks = [np.ix_(s, s) for s in charge_sectors(free.shape[0] // 4)]
    return max(float(np.max(np.abs(sla.eigh(cross[b], free[b], eigvals_only=True)))) for b in blocks)


def positivity_margin(grid: PhaseSpaceGrid) -> float:
    """Smallest delta with |cross energy form| <= delta * free energy form.

    Computed as the largest magnitude of the generalized eigenvalues of the
    cross Gram against the free Gram; the configuration is stable iff the
    margin is below 1.  Scales linearly with the potential amplitude.
    """
    return _margin(*_energy_grams(grid))


def build_generator(grid: PhaseSpaceGrid) -> RealGenerator:
    """Realize the first-order evolution matrix and the energy Gram.

    The generator is a = Omega^-1 metric (Hamilton's equations for the energy
    form, Omega the `symplectic_gram`): the metric's block rows
    [-m3, -m4, m1, m2] / dx.  Refuses unstable configurations (margin >= 1),
    for which the energy form fails to be positive definite and no stable
    quantization exists.  The Gram pair and the margin are computed once and
    kept on the generator.
    """
    free, cross = _energy_grams(grid)
    delta = _margin(free, cross)
    if delta >= 1.0:
        raise UnstableConfigurationError(delta)
    metric = free + cross
    m1, m2, m3, m4 = np.split(metric, 4)
    a = np.concatenate([-m3, -m4, m1, m2]) / grid.dx
    return RealGenerator(grid=grid, matrix=a, metric=metric, margin=delta)


def polar_decompose(gen: RealGenerator) -> KahlerStructure:
    """Metric polar decomposition a = j h via the metric-symmetric square root of -a^2.

    -a^2 is positive in the energy metric; its metric-symmetric square root is
    computed by a congruence with the Cholesky factor of the metric, which is
    numerically stable at these sizes and keeps j exactly a function of a.
    Everything runs per charge sector: a^2 restricted to sector x is
    a_xy a_yx for y the other sector.
    """
    a, metric = gen.matrix, gen.metric
    sectors = charge_sectors(a.shape[0] // 4)
    a_out = [a[np.ix_(x, y)] for x, y in zip(sectors, sectors[::-1])]  # a_AB, a_BA
    s_min = min(float(np.linalg.svd(blk, compute_uv=False)[-1]) for blk in a_out)
    if s_min <= SINGULAR_THRESHOLD:
        raise IllConditionedError(s_min, SINGULAR_THRESHOLD)
    j, h_v, spectrum = np.zeros_like(a), np.zeros_like(a), []
    for x, y, a_xy, a_yx in zip(sectors, sectors[::-1], a_out, a_out[::-1]):
        m_x = metric[np.ix_(x, x)]
        lo = sla.cholesky(m_x, lower=True)
        s = m_x @ (-(a_xy @ a_yx))
        s = 0.5 * (s + s.T)
        # B = L^-1 S L^-T is symmetric; eigenvalues are the squared frequencies.
        tmp = sla.solve_triangular(lo, s, lower=True)
        b = sla.solve_triangular(lo, tmp.T, lower=True).T
        w, q = np.linalg.eigh(0.5 * (b + b.T))
        smallest = math.sqrt(max(float(w[0]), 0.0))
        if smallest <= SINGULAR_THRESHOLD:
            raise IllConditionedError(smallest, SINGULAR_THRESHOLD)
        # h = L^-T f(B) L^T for f = sqrt, and j = a h^-1, whose block out of sector x is a_yx h^-1_x.
        sqrt_w, lt = np.sqrt(w), lo.T
        h_v[np.ix_(x, x)] = sla.solve_triangular(lt, q @ (sqrt_w[:, None] * q.T) @ lt, lower=False)
        j[np.ix_(y, x)] = a_yx @ sla.solve_triangular(lt, q @ ((1.0 / sqrt_w)[:, None] * q.T) @ lt, lower=False)
        spectrum.append(sqrt_w)
    return KahlerStructure(grid=gen.grid, j=j, h_v=h_v, h_spectrum=np.sort(np.concatenate(spectrum)))


def dyn_inner(ks: KahlerStructure, y1: np.ndarray, y2: np.ndarray) -> complex:
    """Dynamical inner product y1^T (Omega j) y2 + i y1^T Omega y2.

    Omega is the real `symplectic_gram`; the Hermitian Gram Omega j + i Omega
    is never formed.  Positive on the diagonal; j-sesquilinear with the
    antilinear slot first:
    dyn_inner(y1, j y2) = i dyn_inner(y1, y2) and
    dyn_inner(j y1, y2) = -i dyn_inner(y1, y2).
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if y1.shape != (ks.j.shape[0],) or y2.shape != y1.shape:
        raise ShapeError("phase vectors must have dimension 4G")
    w = y1 @ symplectic_gram(ks.grid)
    return complex(w @ (ks.j @ y2) + 1j * (w @ y2))


def free_complex_structure(grid: PhaseSpaceGrid) -> np.ndarray:
    """The canonical complex structure of the massive free field.

    Maps (pi, phi) to (-eps phi, eps^-1 pi) per species; it is the polar part
    of the free generator and intertwines with multiplication by i under the
    free identification map.
    """
    g = grid.points
    m2 = grid.m**2
    eps = _multiplier_matrix(grid, lambda k: np.sqrt(k**2 + m2))
    eps_inv = _multiplier_matrix(grid, lambda k: 1.0 / np.sqrt(k**2 + m2))
    o = np.zeros((g, g))
    return np.block(
        [
            [o, o, -eps, o],
            [o, o, o, -eps],
            [eps_inv, o, o, o],
            [o, eps_inv, o, o],
        ]
    )


def free_identification(grid: PhaseSpaceGrid, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitary identification of the free one-particle space with L2 + L2.

    Sends the real phase vector to (eps^-1/2 pi_i + i eps^1/2 phi_i) for the
    two species, applied through FFT multipliers.  Transports the free
    dynamical inner product to the grid L2 inner product exactly.
    """
    y = np.asarray(y, dtype=float)
    g = grid.points
    if y.shape != (4 * g,):
        raise ShapeError(f"expected phase vector of length {4 * g}")
    k = grid.fft_momenta()
    eps = np.sqrt(k**2 + grid.m**2)

    def mult(f, vec):
        return np.fft.ifft(f * np.fft.fft(vec))

    p1, p2, f1, f2 = y[:g], y[g : 2 * g], y[2 * g : 3 * g], y[3 * g :]
    u1 = mult(eps**-0.5, p1) + 1j * mult(eps**0.5, f1)
    u2 = mult(eps**-0.5, p2) + 1j * mult(eps**0.5, f2)
    return u1, u2


def free_dyn_gram(grid: PhaseSpaceGrid) -> np.ndarray:
    """Hermitian Gram of the free dynamical inner product."""
    omega = symplectic_gram(grid)
    return omega @ free_complex_structure(grid) + 1j * omega


def _free_check_error(grid: PhaseSpaceGrid) -> float:
    """Worst error of the V = 0 cross checks on the points, length and mass of grid."""
    g = grid.points
    free_grid = PhaseSpaceGrid(x=grid.x, dx=grid.dx, m=grid.m, v_samples=np.zeros(g))
    free_ks = polar_decompose(build_generator(free_grid))
    eps_sorted = np.sort(np.repeat(np.sqrt(free_grid.fft_momenta() ** 2 + grid.m**2), 4))
    spec_err = float(np.max(np.abs(free_ks.h_spectrum - eps_sorted)))
    j0 = free_complex_structure(free_grid)
    j_err = operator_norm(free_ks.j - j0) / operator_norm(j0)

    rng = np.random.default_rng(0)
    transport_err = 0.0
    gram0 = free_dyn_gram(free_grid)
    for _ in range(4):
        y = rng.standard_normal(4 * g)
        u1, u2 = free_identification(free_grid, y)
        norm_u = (np.vdot(u1, u1).real + np.vdot(u2, u2).real) * grid.dx
        dyn0 = (y @ gram0 @ y).real
        transport_err = max(transport_err, abs(norm_u - dyn0) / max(1.0, abs(dyn0)))
        w1, w2 = free_identification(free_grid, j0 @ y)
        inter = max(np.max(np.abs(w1 - 1j * u1)), np.max(np.abs(w2 - 1j * u2)))
        transport_err = max(transport_err, float(inter))
    return max(spec_err, j_err, transport_err)


def quantize_report(grid: PhaseSpaceGrid) -> dict:
    """Run the full quantization pipeline and collect the diagnostics.

    free_check_error is the worst error among the V = 0 cross checks on the
    same grid: spectrum of h against the grid dispersion, polar j against the
    canonical free structure, intertwining and norm transport of the
    identification map.  The checks run first and are released before the
    V != 0 structure is built.
    """
    free_check_error = _free_check_error(grid)
    gen = build_generator(grid)
    ks = polar_decompose(gen)
    return {
        "delta": gen.margin,
        "min_spec_hV": float(ks.h_spectrum[0]),
        "j_square_residual": ks.j_square_residual(),
        "reconstruction_residual": ks.reconstruction_residual(gen),
        "free_check_error": free_check_error,
    }
