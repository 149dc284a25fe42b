"""Cutoff Hamiltonians: free energies, interaction and charge kernels, one assembly.

The full operator is H = H0 + HI + lambda Q on the truncated Fock space of a
momentum lattice.  HI comes from a bounded-below polynomial in the two field
species against a spatial profile g; its normal-ordered kernels carry one
factor (4 pi v)^(-1/2) and one eps^(-1/2) per leg, and a g_hat evaluated at
the total momentum transfer.  Wick ordering is relative to the lattice
vacuum: no self-contraction terms are generated, so the vacuum expectation of
HI vanishes identically.  Q second-quantizes the species mixer b, one kernel
per direction, and the pair kernel R (`charge_kernels`); H0 is diagonal
(`free_energies`).

`assemble` streams the terms of `hamiltonian_terms` (interaction kernels at
weight 1, charge kernels at weight lambda) through one `fock.hermitian_parts`
pass and adds the free energies to the diagonal: `bundle.h` is a
`linalg.HermitianTriangle`, H's strictly upper triangle T and real diagonal d,
applied as T x + T^H x + d x and never held as a full matrix.  Its on-demand
`matrix` T^H + diag(d) + T is Hermitian bitwise and
bitwise H0 + HI + lambda Q, since each entry of Q is one term of one charge
kernel.  `split_kernel`, `charge_kernels` and `free_energies` are lab frame.
`hamiltonian_terms` builds only the kernels the stream expands
(`fock.streamed`), one at a time, each gauged (`fock.gauge_kernel`, the frame
of D^* A D with D = diag(i^{N_2})) and folded (`WickKernel.fold`) before the
next, so each tensor is held once.  `bundle.h` is gauge frame, float64 for an
even potential and a polynomial even in phi_2, as is its one-particle energy
`oneparticle.omega_block`.  An eigenvector psi of `bundle.h` is the
lab-frame state D psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractError, ParameterError, StabilityError
from .fock import FockBasis, WickKernel, gauge_kernel, hermitian_parts, streamed
from .lattice import MomentumLattice
from .linalg import HermitianTriangle
from .oneparticle import CouplingReport, b_matrix, lambda_quant, pair_kernel
from .potentials import Potential

Monomial = tuple[int, int, float]


def leading_form_minimum(monomials: Sequence[Monomial], degree: int) -> float:
    """Minimum over the circle of the top-degree form F(t) = sum coeff cos^a1 sin^a2.

    With x = tan t, F = p(x) / (1 + x^2)^(d/2) for p(x) = sum coeff x^a2, and
    the critical points are the roots of p'(x) (1 + x^2) - d x p(x).  F is
    evaluated at their real parts, at t = 0 and at t = pi/2, in the chart tan t
    or cot t (the reversed p) whichever is at most 1, so nothing overflows.
    Every point is real, so the minimum never undershoots; a flat form has no
    critical polynomial and keeps the two fixed points.  An odd form counts
    its values with both signs, as F(t + pi) = -F(t).  `interaction_spec`
    requires this minimum to be positive: sufficient for the polynomial to be
    bounded below, but not necessary, so a semidefinite top form such as
    phi_1^4 alone is refused.
    """
    p = np.zeros(degree + 1)  # highest power of x first
    for a1, a2, coeff in monomials:
        if a1 + a2 == degree:
            p[degree - a2] += coeff
    crit = np.polysub(np.polymul(np.polyder(p), [1.0, 0.0, 1.0]), degree * np.polymul([1.0, 0.0], p))
    roots = np.roots(crit).real
    near = np.abs(roots) <= 1.0
    x, y = np.append(roots[near], 0.0), np.append(1.0 / roots[~near], 0.0)
    vals = np.concatenate([np.polyval(p, x) / (1.0 + x * x) ** (degree / 2),
                           np.polyval(p[::-1], y) / (1.0 + y * y) ** (degree / 2)])
    return float(np.min(np.concatenate([vals, -vals]) if degree % 2 else vals))


@dataclass(frozen=True)
class InteractionSpec:
    """Bounded-below field polynomial with its spatial profile.

    monomials are (power of species-1 field, power of species-2 field, real
    coefficient); the certificate is the minimum over directions of the
    leading form.  A positive certificate is sufficient for the polynomial to
    be bounded below, not necessary, and the code requires it: a semidefinite
    top form such as phi_1^4 alone is refused for either species.
    """

    monomials: tuple
    g: Potential
    degree: int
    certificate: float

    def is_bounded_below(self) -> bool:
        if self.degree == 0:
            return True
        return self.degree % 2 == 0 and self.certificate > 0.0


def interaction_spec(monomials: Sequence[Monomial], g: Potential) -> InteractionSpec:
    """Validate and package an interaction polynomial.

    Requires real coefficients, even degree, a positive leading-form minimum,
    and a nonnegative profile g (checked on samples).
    """
    mono = tuple((int(a1), int(a2), float(c)) for a1, a2, c in monomials)
    if not mono:
        raise ParameterError("interaction polynomial needs at least one monomial")
    if any(a1 < 0 or a2 < 0 for a1, a2, _ in mono):
        raise ParameterError("monomial powers must be nonnegative")
    active = [(a1, a2, c) for a1, a2, c in mono if c != 0.0]
    degree = max((a1 + a2 for a1, a2, _ in active), default=0)
    if degree % 2 != 0:
        raise ContractError(f"polynomial degree {degree} is odd, not bounded below")
    if degree == 0:
        cert = sum(c for a1, a2, c in active)
    else:
        cert = leading_form_minimum(active, degree)
        if cert <= 0.0:
            raise ContractError(
                f"leading form attains minimum {cert:.6g} <= 0: polynomial unbounded below"
            )
    xs = np.linspace(-64.0, 64.0, 4097)
    if float(np.min(g.V(xs))) < -1e-12:
        raise ContractError("spatial profile g must be nonnegative")
    return InteractionSpec(monomials=mono, g=g, degree=degree, certificate=cert)


def split_kernel(a1: int, a2: int, p1: int, p2: int, coeff: float, g: Potential, lattice: MomentumLattice):
    """The normal-ordered kernel of coeff phi_1^a1 phi_2^a2 that creates p1
    species-1 and p2 species-2 particles and annihilates the rest, or None when
    g_hat vanishes on it identically (a zero profile).

    The split (p1, p2 | q1, q2) carries the binomial count C(a1,p1) C(a2,p2),
    the per-leg weights (4 pi v)^(-1/2) eps^(-1/2), and g_hat at the total
    created-minus-annihilated momentum.  The tensor is returned as built, with
    no symmetrization: the Wick expansion sums the orderings of legs of one
    species when it folds the kernel.
    """
    d, p = a1 + a2, p1 + p2
    modes, m = lattice.modes, lattice.size
    wvec = 1.0 / np.sqrt(lattice.dispersion())
    species = (1,) * p1 + (2,) * p2 + (1,) * (a1 - p1) + (2,) * (a2 - p2)
    pref = coeff * math.comb(a1, p1) * math.comb(a2, p2) * (4 * np.pi * float(lattice.v)) ** (-d / 2)
    total, amps = np.zeros((1,) * d), np.ones((1,) * d)
    for leg in range(d):
        shape = [m if axis == leg else 1 for axis in range(d)]
        total = total + (1.0 if leg < p else -1.0) * modes.reshape(shape)
        amps = amps * wvec.reshape(shape)
    g_hat = np.asarray(g.V_hat(total), dtype=complex)
    if not g_hat.any():
        return None
    return WickKernel(p=p, q=d - p, species=species, coeffs=pref * g_hat * amps)


def hamiltonian_terms(spec: InteractionSpec, pot: Potential, lam: float, basis: FockBasis) -> list:
    """The (weight, kernel) terms of HI + lam Q that `fock.hermitian_parts` expands on
    basis: each monomial's `split_kernel`s with q <= p <= n_max (weight 1), then the
    `charge_kernels` (weight lam), each gauged (`fock.gauge_kernel`) and folded before
    the next is built, so only the folded tensors, float64 when exact, are held."""
    if not spec.is_bounded_below():
        raise ContractError(f"interaction polynomial not bounded below (certificate {spec.certificate:.6g})")
    splits = (split_kernel(a1, a2, p1, p2, c, spec.g, basis.lattice)
              for a1, a2, c in spec.monomials if c != 0.0
              for p1 in range(a1 + 1) for p2 in range(a2 + 1) if a1 + a2 - p1 - p2 <= p1 + p2 <= basis.n_max)
    terms = [(1.0, gauge_kernel(k).fold()) for k in splits if k is not None and streamed(basis, k)]
    return terms + [(lam, gauge_kernel(k).fold()) for k in charge_kernels(pot, basis.lattice) if streamed(basis, k)]


def free_energies(basis: FockBasis) -> np.ndarray:
    """The diagonal of H0: each basis state's summed lattice energies."""
    eps = basis.lattice.dispersion()
    return basis.occ.astype(float) @ np.concatenate([eps, eps])


def charge_kernels(pot: Potential, lattice: MomentumLattice) -> list[WickKernel]:
    """The three lab-frame kernels of the local charge coupling Q, closed under adjoints.

    The species mixer [[0, b], [b^H, 0]] is second-quantized by b from species 2
    to species 1 and by its adjoint b^H, so no term falls in its zero diagonal
    blocks; the pair kernel creates one particle of each species weighted by the
    antisymmetric R (its adjoint is implied).  All are imaginary for an even
    potential; no two legs share a label, so each entry of Q is one term of one kernel.
    """
    b = b_matrix(pot, lattice)
    return [
        WickKernel(p=1, q=1, species=(1, 2), coeffs=b),
        WickKernel(p=1, q=1, species=(2, 1), coeffs=b.conj().T),
        WickKernel(p=2, q=0, species=(1, 2), coeffs=pair_kernel(pot, lattice)),
    ]


def form_bound_constants(coupling: CouplingReport, lam: float) -> tuple[float, float]:
    """Constructive relative bound (delta, C) with +/- lam Q <= delta H0 + C.

    delta = |lam| (c0 + c1/m) and C = |lam| c1, from the two norm constants of
    the threshold; delta < 1 exactly when |lam| < lambda_quant.
    """
    lam = abs(lam)
    return lam * (coupling.c0 + coupling.c1 / coupling.lattice.m), lam * coupling.c1


@dataclass(frozen=True)
class HamiltonianBundle:
    """One assembled cutoff Hamiltonian with the inputs it was built from; its lattice is the basis's."""

    basis: FockBasis
    spec: InteractionSpec
    pot: Potential
    lam: float
    h: HermitianTriangle
    coupling: CouplingReport = field(repr=False)

    @property
    def lattice(self) -> MomentumLattice:
        return self.basis.lattice

    def metadata(self) -> dict:
        diag = self.h.d
        return {
            "dim": self.basis.dim,
            "n_max": self.basis.n_max,
            "modes": self.lattice.size,
            "nnz": 2 * self.h.t.nnz + int(np.count_nonzero(diag)),  # as H's full matrix stores it
            "min_diag": float(diag.min()),
            "max_diag": float(diag.max()),
            "lambda": self.lam,
            "lambda_quant": self.coupling.lambda_quant,
        }


def assemble(
    spec: InteractionSpec,
    pot: Potential,
    lam: float,
    basis: FockBasis,
    override_stability: bool = False,
) -> HamiltonianBundle:
    """Build H = H0 + D^* (HI + lam Q) D in the gauge frame from one Wick stream.

    The lattice is the basis's.  Refuses couplings at or above the stability
    threshold unless the override flag is set (exploration mode); the error
    carries the threshold.
    """
    lattice = basis.lattice
    coupling = lambda_quant(pot, lattice)
    if not override_stability and not abs(lam) < coupling.lambda_quant:
        raise StabilityError(lam, coupling.lambda_quant)
    t, d = hermitian_parts(basis, hamiltonian_terms(spec, pot, lam, basis))
    return HamiltonianBundle(
        basis=basis,
        spec=spec,
        pot=pot,
        lam=float(lam),
        h=HermitianTriangle(t, free_energies(basis) + d),
        coupling=coupling,
    )
