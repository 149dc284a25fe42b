"""Real potentials / spatial cutoffs with analytic Fourier transforms.

The same container serves the electrostatic potential V and the spatial
interaction cutoff g: a real function of position together with its Fourier
transform in the convention f_hat(k) = integral e^{-ikx} f(x) dx.  Built-in
shapes carry closed-form transforms so that matrix elements downstream have no
quadrature noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class Potential:
    """A real function of position with its analytic Fourier transform.

    Attributes:
        label: short name for reports.
        V: vectorized real function of position.
        V_hat: vectorized Fourier transform f_hat(k) = int e^{-ikx} f (real for an even V).
        Vp_hat: Fourier transform of the derivative, Vp_hat(k) = i k V_hat(k).

    For real V the transform satisfies V_hat(-k) = conj(V_hat(k)).
    """

    label: str
    V: Callable[[np.ndarray], np.ndarray]
    V_hat: Callable[[np.ndarray], np.ndarray]

    def Vp_hat(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        return 1j * k * np.asarray(self.V_hat(k))


def zero_potential() -> Potential:
    return Potential(
        label="zero",
        V=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        V_hat=lambda k: np.zeros_like(np.asarray(k, dtype=float)),
    )


def gaussian_potential(amplitude: float = 1.0, width: float = 1.0) -> Potential:
    """A * exp(-x^2 / (2 w^2)); transform A w sqrt(2 pi) exp(-w^2 k^2 / 2)."""
    if width <= 0:
        raise ParameterError(f"width must be positive, got {width}")
    a, w = float(amplitude), float(width)

    def v(x):
        x = np.asarray(x, dtype=float)
        return a * np.exp(-(x**2) / (2 * w**2))

    def v_hat(k):
        k = np.asarray(k, dtype=float)
        return a * w * np.sqrt(2 * np.pi) * np.exp(-(w**2) * k**2 / 2)

    return Potential(label=f"gaussian(a={a:g},w={w:g})", V=v, V_hat=v_hat)


def lorentzian_potential(amplitude: float = 1.0, width: float = 1.0) -> Potential:
    """A / (1 + (x/w)^2); transform A w pi exp(-w |k|)."""
    if width <= 0:
        raise ParameterError(f"width must be positive, got {width}")
    a, w = float(amplitude), float(width)

    def v(x):
        x = np.asarray(x, dtype=float)
        return a / (1.0 + (x / w) ** 2)

    def v_hat(k):
        k = np.asarray(k, dtype=float)
        return a * w * np.pi * np.exp(-w * np.abs(k))

    return Potential(label=f"lorentzian(a={a:g},w={w:g})", V=v, V_hat=v_hat)


_BUILTINS = {
    "zero": lambda amplitude=0.0, width=1.0: zero_potential(),
    "gaussian": gaussian_potential,
    "lorentzian": lorentzian_potential,
}


def make_potential(kind: str, amplitude: float = 1.0, width: float = 1.0) -> Potential:
    """Construct a built-in potential by config name."""
    try:
        factory = _BUILTINS[kind]
    except KeyError:
        raise ParameterError(
            f"unknown potential kind {kind!r}; choose from {sorted(_BUILTINS)}"
        ) from None
    return factory(amplitude=amplitude, width=width)
