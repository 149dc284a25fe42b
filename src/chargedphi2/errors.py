"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI lives in `cli.py`; these classes carry the
diagnostic payload (offending value, threshold, residual) so reports and error
messages can name the violated contract.
"""

from __future__ import annotations


class ChargedPhi2Error(Exception):
    """Base class for all package errors."""


class ParameterError(ChargedPhi2Error, ValueError):
    """A scalar argument violates its precondition (sign, range, membership)."""


class ShapeError(ChargedPhi2Error, ValueError):
    """Array dimensions do not match the declared lattice/basis."""


class ConfigError(ChargedPhi2Error, ValueError):
    """Experiment config fails schema validation (unknown key, bad value)."""


class UnstableConfigurationError(ChargedPhi2Error, RuntimeError):
    """The classical energy form is not positive (stability margin >= 1)."""

    def __init__(self, delta: float):
        self.delta = delta
        super().__init__(
            f"classical energy form is not positive definite: margin delta={delta:.6g} >= 1"
        )


class StabilityError(ChargedPhi2Error, RuntimeError):
    """Coupling strength is at or above the quantization threshold."""

    def __init__(self, lam: float, lambda_quant: float):
        self.lam = lam
        self.lambda_quant = lambda_quant
        super().__init__(
            f"|lambda|={abs(lam):.6g} is not below the stability threshold "
            f"lambda_quant={lambda_quant:.6g}; set override_stability to explore anyway"
        )


class ContractError(ChargedPhi2Error, RuntimeError):
    """An operator-level contract failed (non-Hermitian input, unbounded polynomial)."""


class IllConditionedError(ChargedPhi2Error, RuntimeError):
    """Polar decomposition refused: generator nearly singular."""

    def __init__(self, smallest: float, threshold: float):
        self.smallest = smallest
        self.threshold = threshold
        super().__init__(
            f"generator is numerically singular: smallest singular value "
            f"{smallest:.3e} <= {threshold:.1e}"
        )


class SolverError(ChargedPhi2Error, RuntimeError):
    """Eigensolver failed to converge to the residual contract."""


class ResourceLimitError(ChargedPhi2Error, RuntimeError):
    """A Fock dimension exceeds a cap, named in the message by limit: the
    configured basis cap ("hard cap") or the dense ceiling ("dense ceiling")."""

    def __init__(self, dim: int, cap: int, limit: str = "hard cap"):
        self.dim = dim
        self.cap = cap
        super().__init__(f"Fock basis dimension {dim} exceeds the {limit} {cap}")


class MissingGoldenError(ChargedPhi2Error, RuntimeError):
    """A golden suite file is absent, empty or malformed."""
