"""Momentum lattices, the integer-part map, and nested lattice pairs.

A lattice holds the finite symmetric mode set {gamma in v^-1 Z : |gamma| <= kappa}
together with the massive dispersion eps(gamma) = sqrt(gamma^2 + m^2).  Each mode
gamma carries the normalized indicator of the half-open cell [gamma, gamma + 1/v);
cells of a lattice refine exactly into cells of any lattice whose inverse spacing
is an integer multiple.  `integer_part` floors the exact v*k: [k]_v <= k < [k]_v + 1/v
for every float k, so a float mode stored just below j/v maps to the mode below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import ParameterError

RationalLike = Union[int, float, str, Fraction]


def _as_fraction(v: RationalLike) -> Fraction:
    try:
        f = Fraction(v)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"inverse spacing must be rational, got {v!r}") from exc
    return f


@dataclass(frozen=True)
class MomentumLattice:
    """Finite symmetric momentum grid with spacing 1/v and cutoff kappa.

    Attributes:
        v: inverse spacing (exact rational).
        kappa: momentum cutoff; the boundary mode |gamma| = kappa is included.
        m: mass, m > 0.
        modes: strictly increasing momenta, symmetric about 0, 0 included.
        n_half: floor(kappa * v); modes are j/v for j in [-n_half, n_half].
    """

    v: Fraction
    kappa: float
    m: float
    modes: np.ndarray = field(repr=False)
    n_half: int

    @property
    def size(self) -> int:
        return 2 * self.n_half + 1

    def dispersion(self) -> np.ndarray:
        """eps(gamma) = sqrt(gamma^2 + m^2) over the mode set; always >= m."""
        return np.sqrt(self.modes**2 + self.m**2)

    def slot_reflection(self) -> np.ndarray:
        """Momentum parity on the 2 * size species-major slots: the index of the
        slot with the same species and the negated momentum."""
        mirror = np.arange(self.size)[::-1]
        return np.concatenate([mirror, mirror + self.size])


def build_lattice(v: RationalLike, kappa: float, m: float) -> MomentumLattice:
    """Build the mode set {gamma in v^-1 Z : |gamma| <= kappa}, sorted ascending.

    Requires v > 0, m > 0 and kappa >= 1/v so the set contains more than the
    origin on each side.
    """
    vf = _as_fraction(v)
    if vf <= 0:
        raise ParameterError(f"inverse spacing v must be positive, got {v}")
    if not (kappa > 0) or not (m > 0):
        raise ParameterError(f"kappa and m must be positive, got kappa={kappa}, m={m}")
    if Fraction(kappa) * vf < 1:
        raise ParameterError(f"kappa={kappa} below one lattice spacing 1/v={1 / vf}")
    n_half = math.floor(Fraction(kappa) * vf)
    js = np.arange(-n_half, n_half + 1)
    modes = js / float(vf)
    return MomentumLattice(v=vf, kappa=float(kappa), m=float(m), modes=modes, n_half=n_half)


def integer_part(k: float, v: RationalLike) -> float:
    """Round k down to the lattice: [k]_v = floor(v*k)/v, so [k]_v <= k < [k]_v + 1/v."""
    vf = _as_fraction(v)
    if vf <= 0:
        raise ParameterError(f"inverse spacing v must be positive, got {v}")
    # v*k in exact rationals: the float product can round to -0.0 for tiny k < 0
    return math.floor(vf * Fraction(k)) / float(vf)


@dataclass(frozen=True)
class NestedPair:
    """A coarse lattice contained in a fine one, with the mode identification.

    The fine inverse spacing is a power-of-two multiple of the coarse one and
    the fine cutoff is large enough that every coarse cell is exactly a union
    of fine cells; mode containment is then an integer statement, and
    `fock.fock_embedding` carries each coarse mode to the fine mode with the
    same momentum.

    Attributes:
        coarse, fine: the two lattices (same mass).
        ratio: fine.v / coarse.v, a power of two.
        mode_injection: index array: coarse mode i sits at fine index
            mode_injection[i] with the identical momentum value.
    """

    coarse: MomentumLattice
    fine: MomentumLattice
    ratio: int
    mode_injection: np.ndarray = field(repr=False)


def build_nested(coarse: MomentumLattice, fine: MomentumLattice) -> NestedPair:
    """Validate nesting of two lattices and compute the mode injection."""
    if coarse.m != fine.m:
        raise ParameterError("nested lattices must share the mass")
    ratio_frac = fine.v / coarse.v
    if ratio_frac.denominator != 1:
        raise ParameterError(
            f"fine.v={fine.v} is not an integer multiple of coarse.v={coarse.v}"
        )
    ratio = int(ratio_frac)
    if ratio < 1 or (ratio & (ratio - 1)) != 0:
        raise ParameterError(f"refinement ratio must be a power of two, got {ratio}")
    if fine.kappa < coarse.kappa:
        raise ParameterError(
            f"fine.kappa={fine.kappa} must be >= coarse.kappa={coarse.kappa}"
        )
    # Mode containment: coarse numerator j maps to fine numerator j * ratio.
    if coarse.n_half * ratio > fine.n_half:
        raise ParameterError("coarse modes are not contained in the fine lattice")
    # Cell coverage: the top coarse cell [gamma_max, gamma_max + 1/v_c) needs the
    # fine modes gamma_max + s/v_f for s < ratio; equivalently in numerators:
    if coarse.n_half * ratio + (ratio - 1) > fine.n_half:
        raise ParameterError(
            "fine lattice does not cover the top coarse cell; "
            f"need fine.n_half >= {coarse.n_half * ratio + ratio - 1}, got {fine.n_half}"
        )
    coarse_js = np.arange(-coarse.n_half, coarse.n_half + 1)
    injection = coarse_js * ratio + fine.n_half
    return NestedPair(coarse=coarse, fine=fine, ratio=ratio, mode_injection=injection)


def refinement_ladder(
    v: RationalLike, kappa: float, m: float, levels: int
) -> list[MomentumLattice]:
    """Deterministic nested ladder: v doubles per level, kappa grows minimally.

    kappa_{i+1} = kappa_i + 1/v_i - 1/v_{i+1} is the smallest cutoff for which
    the cell-coverage condition of `build_nested` holds with equality, keeping
    basis dimensions as small as the nesting allows.
    """
    if levels < 1:
        raise ParameterError(f"need at least one level, got {levels}")
    v0 = _as_fraction(v)
    kap = Fraction(kappa)
    out = [build_lattice(v0, float(kap), m)]
    vcur = v0
    for _ in range(levels - 1):
        vnext = vcur * 2
        kap = kap + 1 / vcur - 1 / vnext
        out.append(build_lattice(vnext, float(kap), m))
        vcur = vnext
    return out
