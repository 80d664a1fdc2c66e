"""Exception classes for the ofonet package, and its one vector-length check.

Numerical failures carry enough context (iteration counts, residuals,
spectral radii, partial trajectories) for callers to report or recover.
``as_vector`` is the single "must have length n" check every layer uses.
"""

import numpy as np

__all__ = [
    "OfonetError",
    "DimensionMismatch",
    "SingularMatrix",
    "CouplingTooStrong",
    "NoConvergence",
    "NotCertifiable",
    "NonFinite",
    "UnstableDiscretization",
    "ConfigError",
    "as_vector",
]


class OfonetError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(OfonetError):
    """Operands have incompatible shapes."""


def as_vector(value, n: int, name: str, finite: bool = False) -> np.ndarray:
    """``value`` as a float vector of length ``n``, else DimensionMismatch naming it.

    With ``finite``, a non-finite entry raises ValueError naming it too.
    """
    vec = np.asarray(value, dtype=float)
    if vec.shape != (n,):
        raise DimensionMismatch(f"{name} must have length {n}, got shape {vec.shape}")
    if finite and not np.all(np.isfinite(vec)):
        raise ValueError(f"{name} contains non-finite entries")
    return vec


class SingularMatrix(OfonetError):
    """A linear solve hit a numerically singular matrix."""


class CouplingTooStrong(OfonetError):
    """Off-diagonal coupling violates the strong-monotonicity margin (m <= c)."""


class NoConvergence(OfonetError):
    """An iterative solver exhausted its iteration budget."""

    def __init__(self, iterations, residual):
        self.iterations = int(iterations)
        self.residual = float(residual)
        super().__init__(
            f"no convergence after {self.iterations} iterations "
            f"(residual {self.residual:.3e})"
        )


class NotCertifiable(OfonetError):
    """A closed-form certificate does not apply to the given instance."""

    def __init__(self, reason):
        self.reason = str(reason)
        super().__init__(self.reason)


class NonFinite(OfonetError):
    """A closed-loop iterate left the finite floating-point range.

    ``step`` is the iteration index at which the first non-finite value
    appeared; ``trajectory`` holds the finite prefix when available so
    callers can still emit a truncated record of the run.
    """

    def __init__(self, step, trajectory=None):
        self.step = int(step)
        self.trajectory = trajectory
        super().__init__(f"non-finite iterate at step {self.step}")


class UnstableDiscretization(OfonetError):
    """Euler-forward discretization produced a non-Schur transition matrix."""

    def __init__(self, spectral_radius):
        self.spectral_radius = float(spectral_radius)
        super().__init__(
            f"discretized system is not Schur stable "
            f"(spectral radius {self.spectral_radius:.6g})"
        )


class ConfigError(OfonetError):
    """A run configuration is malformed; the message names the offending key."""
