"""Momentum lattices, the integer-part map, and the nested-lattice mode map.

A lattice is four numbers (v, kappa, m, n_half = floor(kappa v)), so equal
lattices compare and hash equal and its size is known before any array exists;
its modes {gamma in v^-1 Z : |gamma| <= kappa} and the massive dispersion
eps(gamma) = sqrt(gamma^2 + m^2) are computed on first use.  Each mode gamma
carries the normalized indicator of the half-open cell [gamma, gamma + 1/v);
cells of a lattice refine exactly into cells of any lattice whose inverse
spacing is an integer multiple (`build_nested`, the one nested-lattice map).
`integer_part` floors the exact v*k: [k]_v <= k < [k]_v + 1/v for every float
k, so a float mode stored just below j/v maps to the mode below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Union

import numpy as np

from .errors import ParameterError

RationalLike = Union[int, float, str, Fraction]


def _as_fraction(v: RationalLike) -> Fraction:
    """v as an exact positive rational, else ParameterError."""
    try:
        f = Fraction(v)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"inverse spacing must be rational, got {v!r}") from exc
    if f <= 0:
        raise ParameterError(f"inverse spacing v must be positive, got {v}")
    return f


@dataclass(frozen=True)
class MomentumLattice:
    """Finite symmetric momentum grid: v the inverse spacing (exact rational), kappa
    the cutoff (the boundary mode |gamma| = kappa is included), m > 0 the mass, and
    modes j/v for |j| <= n_half = floor(kappa v)."""

    v: Fraction
    kappa: float
    m: float
    n_half: int

    @property
    def size(self) -> int:
        return 2 * self.n_half + 1

    @cached_property
    def modes(self) -> np.ndarray:
        """Strictly increasing momenta j/v, symmetric about 0, 0 included; read-only."""
        modes = np.arange(-self.n_half, self.n_half + 1) / float(self.v)
        modes.flags.writeable = False
        return modes

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
    if not (kappa > 0) or not (m > 0):
        raise ParameterError(f"kappa and m must be positive, got kappa={kappa}, m={m}")
    n_half = math.floor(Fraction(kappa) * vf)
    if n_half < 1:
        raise ParameterError(f"kappa={kappa} below one lattice spacing 1/v={1 / vf}")
    return MomentumLattice(v=vf, kappa=float(kappa), m=float(m), n_half=n_half)


def integer_part(k: float, v: RationalLike) -> float:
    """Round k down to the lattice: [k]_v = floor(v*k)/v, so [k]_v <= k < [k]_v + 1/v."""
    vf = _as_fraction(v)
    # v*k in exact rationals: the float product can round to -0.0 for tiny k < 0
    return math.floor(vf * Fraction(k)) / float(vf)


def build_nested(coarse: MomentumLattice, fine: MomentumLattice) -> np.ndarray:
    """The mode injection of a nested pair: coarse mode i sits at fine index
    injection[i], with the identical momentum.

    The fine inverse spacing must be a power-of-two multiple of the coarse one
    (same mass), and the fine cutoff large enough that every coarse cell is
    exactly a union of fine cells; mode containment is then an integer
    statement.  Else ParameterError.
    """
    if coarse.m != fine.m:
        raise ParameterError("nested lattices must share the mass")
    ratio_frac = fine.v / coarse.v
    if ratio_frac.denominator != 1:
        raise ParameterError(
            f"fine.v={fine.v} is not an integer multiple of coarse.v={coarse.v}"
        )
    ratio = int(ratio_frac)
    if ratio & (ratio - 1):
        raise ParameterError(f"refinement ratio must be a power of two, got {ratio}")
    if fine.kappa < coarse.kappa:
        raise ParameterError(
            f"fine.kappa={fine.kappa} must be >= coarse.kappa={coarse.kappa}"
        )
    # Cell coverage: the top coarse cell [gamma_max, gamma_max + 1/v_c) needs the
    # fine modes gamma_max + s/v_f for s < ratio; equivalently in numerators:
    if coarse.n_half * ratio + (ratio - 1) > fine.n_half:
        raise ParameterError(
            "fine lattice does not cover the top coarse cell; "
            f"need fine.n_half >= {coarse.n_half * ratio + ratio - 1}, got {fine.n_half}"
        )
    return np.arange(-coarse.n_half, coarse.n_half + 1) * ratio + fine.n_half


def refinement_ladder(v: RationalLike, kappa: float, m: float, levels: int) -> Iterator[MomentumLattice]:
    """Deterministic nested ladder, coarsest first: v doubles per level, kappa grows
    minimally.  Levels are built lazily, so a caller can stop at the first it refuses.

    kappa_{i+1} = kappa_i + 1/v_i - 1/v_{i+1} is the smallest cutoff for which
    the cell-coverage condition of `build_nested` holds with equality, keeping
    basis dimensions as small as the nesting allows; in exact rationals it
    telescopes to kappa_0 + 1/v_0 - 1/v_i.
    """
    if levels < 1:
        raise ParameterError(f"need at least one level, got {levels}")
    v0 = _as_fraction(v)
    top = Fraction(kappa) + 1 / v0
    return (build_lattice(v0 * 2**i, float(top - 1 / (v0 * 2**i)), m) for i in range(levels))
