"""Stable quantization at the one-particle level on a periodic grid.

The complex field pair (pi, phi) is split into real components and stored as a
real 4G vector in the block order (pi_1, pi_2, phi_1, phi_2).  The free-field
kinetic operator -Laplacian + m^2 is realized spectrally, so it is exactly
diagonal in the discrete Fourier basis and the potential coupling carries all
the nontrivial structure.  The construction is: energy metric -> generator of
the classical flow (metric-antisymmetric) -> polar decomposition a = j h in
the metric -> complex structure j and one-particle energy h.

The phase vector splits into two charge sectors, A = (pi_1, phi_2) and
B = (pi_2, phi_1) (`charge_sectors`), each ordered (pi, phi).  The energy
metric has no A x B block and the generator maps A to B and B to A, so only
the 2G x 2G blocks are built and kept: the metric's free +- cross, a_AB, a_BA,
h_A, h_B, j_AB and j_BA; `matrix`, `metric`, `j` and `h_v` lay out a 4G x 4G
matrix anew on each read, which `quantize_report` never does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import IllConditionedError, ParameterError, ShapeError, UnstableConfigurationError, stage
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
    check_dense(4 * points, "phase-space matrix dimension")  # j and h read as 4G x 4G matrices
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


def charge_sectors(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the sectors A = (pi_1, phi_2) and B = (pi_2, phi_1) in the 4G phase vector."""
    r = np.arange(points)
    return np.r_[r, r + 3 * points], np.r_[r + points, r + 2 * points]


def from_sectors(blocks: tuple, off: bool) -> np.ndarray:
    """The 4G x 4G matrix whose only nonzero blocks are blocks: (A, A), (B, B), or (A, B), (B, A) when off."""
    a, b = charge_sectors(blocks[0].shape[0] // 2)
    out = np.zeros((2 * a.size, 2 * a.size))
    for (x, y), blk in zip([(a, b), (b, a)] if off else [(a, a), (b, b)], blocks):
        out[np.ix_(x, y)] = blk
    return out


def _symplectic(grid: PhaseSpaceGrid, y1: np.ndarray, y2: np.ndarray) -> float:
    """Re omega(y1, y2) = sum_i (pi_i|phi_i') - (phi_i|pi_i'), from the two vectors."""
    h = y1.size // 2
    return grid.dx * float(y1[:h] @ y2[h:] - y1[h:] @ y2[:h])


@dataclass(frozen=True)
class RealGenerator:
    """Generator of the classical flow with the energy Gram matrix, as sector blocks.

    The generator is antisymmetric with respect to the metric,
    a^T metric + metric a = 0, which is the discrete statement that the flow
    preserves the energy form.  a_blocks are its (A, B) and (B, A) blocks, metric_blocks
    the metric's (A, A) and (B, B).  margin is the grid's `positivity_margin`.
    """

    grid: PhaseSpaceGrid
    a_blocks: tuple = field(repr=False)
    metric_blocks: tuple = field(repr=False)
    margin: float
    matrix = property(lambda self: from_sectors(self.a_blocks, off=True))
    metric = property(lambda self: from_sectors(self.metric_blocks, off=False))


@dataclass(frozen=True)
class KahlerStructure:
    """Polar data of the generator, a = j h with j^2 = -1 and h metric-positive:
    h's (A, A) and (B, B) blocks and j's (A, B) and (B, A) blocks."""

    grid: PhaseSpaceGrid
    h_blocks: tuple = field(repr=False)
    j_blocks: tuple = field(repr=False)
    h_spectrum: np.ndarray = field(repr=False)
    j = property(lambda self: from_sectors(self.j_blocks, off=True))
    h_v = property(lambda self: from_sectors(self.h_blocks, off=False))

    def j_square_residual(self) -> float:
        """||j^2 + 1||, the larger of its two diagonal blocks' norms (it has no other)."""
        return max(operator_norm(x @ y + np.eye(len(x))) for x, y in zip(self.j_blocks, self.j_blocks[::-1]))

    def reconstruction_residual(self, gen: RealGenerator) -> float:
        """||j h - a|| / ||a||; both are block antidiagonal, so each norm is its blocks' larger."""
        diff = max(operator_norm(j @ h - a) for j, h, a in zip(self.j_blocks, self.h_blocks[::-1], gen.a_blocks))
        return diff / max(operator_norm(a) for a in gen.a_blocks)


def _energy_grams(grid: PhaseSpaceGrid):
    """Free and cross Gram blocks of the polarized energy form on sector A.

    Free part: |pi|^2 + |eps phi|^2, the same block on B; cross part:
    2(pi_1|V phi_2) - 2(pi_2|V phi_1), whose block on B is minus A's.
    """
    g = grid.points
    e2 = _multiplier_matrix(grid, lambda k: k**2 + grid.m**2)
    vd, o = np.diag(grid.v_samples), np.zeros((g, g))
    return grid.dx * sla.block_diag(np.eye(g), e2), grid.dx * np.block([[o, vd], [vd, o]])


def _margin(free: np.ndarray, cross: np.ndarray) -> float:
    """Largest magnitude of the generalized eigenvalues of cross against free, sector by sector."""
    if not np.any(cross):
        return 0.0
    return max(float(np.max(np.abs(sla.eigh(c, free, eigvals_only=True)))) for c in (cross, -cross))


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
    form, Omega the symplectic Gram): its block out of sector y is [-(m_y's phi
    rows); m_y's pi rows] / dx, m_y the metric's block on y.  Refuses unstable
    configurations (margin >= 1), for which the energy form fails to be positive
    definite and no stable quantization exists; the margin is kept on the generator.
    """
    free, cross = _energy_grams(grid)
    delta = _margin(free, cross)
    if delta >= 1.0:
        raise UnstableConfigurationError(delta)
    metric, g = (free + cross, free - cross), grid.points
    a_blocks = tuple(np.concatenate([-m[g:], m[:g]]) / grid.dx for m in metric[::-1])
    return RealGenerator(grid=grid, a_blocks=a_blocks, metric_blocks=metric, margin=delta)


def polar_decompose(gen: RealGenerator) -> KahlerStructure:
    """Metric polar decomposition a = j h via the metric-symmetric square root of -a^2.

    -a^2 is positive in the energy metric; its metric-symmetric square root is
    computed by a congruence with the Cholesky factor of the metric, which is
    numerically stable at these sizes and keeps j exactly a function of a.
    Everything runs per charge sector: a^2 restricted to sector x is
    a_xy a_yx for y the other sector.
    """
    a_out = gen.a_blocks
    s_min = min(float(np.linalg.svd(blk, compute_uv=False)[-1]) for blk in a_out)
    if s_min <= SINGULAR_THRESHOLD:
        raise IllConditionedError(s_min, SINGULAR_THRESHOLD)
    h, j, spectrum = [], [], []
    for m_x, a_xy, a_yx in zip(gen.metric_blocks, a_out, a_out[::-1]):
        lo = sla.cholesky(m_x, lower=True)
        s = a_xy @ a_yx  # each temporary below is dropped or overwritten as soon as it is read
        s = m_x @ np.negative(s, out=s)
        s = s + s.T
        s *= 0.5
        # B = L^-1 S L^-T is symmetric; eigenvalues are the squared frequencies.
        b = sla.solve_triangular(lo, sla.solve_triangular(lo, s, lower=True).T, lower=True).T
        b = b + b.T
        b *= 0.5
        w, q = np.linalg.eigh(b)
        smallest = math.sqrt(max(float(w[0]), 0.0))
        if smallest <= SINGULAR_THRESHOLD:
            raise IllConditionedError(smallest, SINGULAR_THRESHOLD)
        # h = L^-T f(B) L^T for f = sqrt, and j = a h^-1, whose block out of sector x is a_yx h^-1_x.
        sqrt_w, lt = np.sqrt(w), lo.T
        h.append(sla.solve_triangular(lt, q @ (sqrt_w[:, None] * q.T) @ lt, lower=False))
        j.append(a_yx @ sla.solve_triangular(lt, q @ ((1.0 / sqrt_w)[:, None] * q.T) @ lt, lower=False))
        spectrum.append(sqrt_w)
    return KahlerStructure(gen.grid, tuple(h), tuple(j[::-1]), np.sort(np.concatenate(spectrum)))


def dyn_inner(ks: KahlerStructure, y1: np.ndarray, y2: np.ndarray) -> complex:
    """Dynamical inner product y1^T (Omega j) y2 + i y1^T Omega y2.

    Omega is the real symplectic Gram; neither it nor the Hermitian Gram
    Omega j + i Omega is formed.  Positive on the diagonal; j-sesquilinear
    with the antilinear slot first:
    dyn_inner(y1, j y2) = i dyn_inner(y1, y2) and
    dyn_inner(j y1, y2) = -i dyn_inner(y1, y2).
    """
    y1, y2 = np.asarray(y1, dtype=float), np.asarray(y2, dtype=float)
    if y1.shape != (4 * ks.grid.points,) or y2.shape != y1.shape:
        raise ShapeError("phase vectors must have dimension 4G")
    return complex(_symplectic(ks.grid, y1, ks.j @ y2) + 1j * _symplectic(ks.grid, y1, y2))


def free_complex_structure(grid: PhaseSpaceGrid) -> np.ndarray:
    """The canonical complex structure of the massive free field, as the 2G x 2G
    block [[0, -eps], [eps^-1, 0]] by which it maps each sector into the other.

    Maps (pi, phi) to (-eps phi, eps^-1 pi) per species; it is the polar part
    of the free generator and intertwines with multiplication by i under the
    free identification map.
    """
    eps = _multiplier_matrix(grid, lambda k: np.sqrt(k**2 + grid.m**2))
    eps_inv = _multiplier_matrix(grid, lambda k: 1.0 / np.sqrt(k**2 + grid.m**2))
    o = np.zeros_like(eps)
    return np.block([[o, -eps], [eps_inv, o]])


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
    eps = np.sqrt(grid.fft_momenta() ** 2 + grid.m**2)
    pi, phi = np.fft.fft(y.reshape(2, 2, g), axis=-1)  # rows: species 1 and 2
    return tuple(np.fft.ifft(eps**-0.5 * pi + 1j * eps**0.5 * phi, axis=-1))  # (u1, u2)


def _free_check_error(grid: PhaseSpaceGrid) -> float:
    """Worst error of the V = 0 cross checks on the points, length and mass of grid."""
    g = grid.points
    free_grid = PhaseSpaceGrid(x=grid.x, dx=grid.dx, m=grid.m, v_samples=np.zeros(g))
    free_ks = polar_decompose(build_generator(free_grid))
    eps_sorted = np.sort(np.repeat(np.sqrt(free_grid.fft_momenta() ** 2 + grid.m**2), 4))
    spec_err = float(np.max(np.abs(free_ks.h_spectrum - eps_sorted)))
    j0 = free_complex_structure(free_grid)
    j_err = max(operator_norm(blk - j0) for blk in free_ks.j_blocks) / operator_norm(j0)

    rng, (a, b), transport_err = np.random.default_rng(0), charge_sectors(g), 0.0
    for _ in range(4):
        y, j0y = rng.standard_normal(4 * g), np.empty(4 * g)
        j0y[a], j0y[b] = j0 @ y[b], j0 @ y[a]
        u1, u2 = free_identification(free_grid, y)
        norm_u = (np.vdot(u1, u1).real + np.vdot(u2, u2).real) * grid.dx
        dyn0 = _symplectic(free_grid, y, j0y)  # y^T Omega j0 y, the free dynamical norm
        transport_err = max(transport_err, abs(norm_u - dyn0) / max(1.0, abs(dyn0)))
        w1, w2 = free_identification(free_grid, j0y)
        inter = max(np.max(np.abs(w1 - 1j * u1)), np.max(np.abs(w2 - 1j * u2)))
        transport_err = max(transport_err, float(inter))
    return max(spec_err, j_err, transport_err)


def quantize_report(grid: PhaseSpaceGrid) -> dict:
    """Run the full quantization pipeline and collect the diagnostics.

    free_check_error is the worst error among the V = 0 cross checks on the
    same grid: spectrum of h against the grid dispersion, polar j against the
    canonical free structure, intertwining and norm transport of the
    identification map.  The checks run first and are released before the
    V != 0 structure is built.  Each step is a stage.
    """
    with stage("free_check"):
        free_check_error = _free_check_error(grid)
    with stage("generator"):
        gen = build_generator(grid)
    with stage("polar"):
        ks = polar_decompose(gen)
    with stage("residuals"):
        return {
            "delta": gen.margin,
            "min_spec_hV": float(ks.h_spectrum[0]),
            "j_square_residual": ks.j_square_residual(),
            "reconstruction_residual": ks.reconstruction_residual(gen),
            "free_check_error": free_check_error,
        }
