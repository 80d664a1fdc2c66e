"""Discrete-time LTI network plant and its steady-state sensitivity model.

The plant is the interconnection target of the feedback optimizers:

    x_{k+1} = A x_k + B u_k
    y_k     = C x_k + D u_k + d

with one scalar input and one scalar output per agent.  The state may
have a higher dimension than the number of agents (rectangular B and C),
which is what networked physical models such as the DC grid produce.

The steady-state sensitivity H = C (I - A)^{-1} B + D maps constant
inputs to steady-state outputs, y = H u + d.  ``SensitivityModel`` takes H
and the state sensitivity H_x and derives the diagonal part H_diag from
H; H_diag is all the decentralized controller gets to use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import (
    ConfigError,
    DimensionMismatch,
    SingularMatrix,
    as_vector,
    convert,
    finite,
    on_field,
    read_section,
)

__all__ = [
    "SCHUR_TOL",
    "LtiPlant",
    "SensitivityModel",
    "is_schur_stable",
    "schur_screen",
    "sensitivity",
    "compute_sensitivity",
    "plant_from_dict",
    "PLANT_KEYS",
]

# The keys of a "plant" config section: the fields of ``LtiPlant``.
PLANT_KEYS = ("A", "B", "C", "D", "d")

# Margin on the unit circle below which a spectral radius counts as stable.
SCHUR_TOL = 1e-9


def _as_matrix(value, name: str) -> NDArray[np.float64]:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        message = f"{name} must be a 2-D matrix, got ndim={arr.ndim}"
        raise on_field(name, DimensionMismatch(message))
    if not np.all(np.isfinite(arr)):
        raise on_field(name, ValueError(f"{name} contains non-finite entries"))
    return arr


def _radii(A) -> list[float]:
    """max |eig| of a square A, or of each slice of a (B, n, n) stack, from one eigvals call."""
    return [float(np.max(np.abs(ev))) for ev in np.atleast_2d(np.linalg.eigvals(A))]


def is_schur_stable(A) -> tuple[bool, float]:
    """(stable, radius) of a square A: its spectral radius max |eig(A)|, and
    whether that lies below ``1 - SCHUR_TOL`` (discrete-time asymptotic stability)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    radius = _radii(A)[0] if A.size else 0.0
    return radius < 1.0 - SCHUR_TOL, radius


def schur_screen(A):
    """(stable, radius, ||A||_2) of a square A, or arrays over the slices of a stack.

    One values-only SVD gives ||A||_2, which bounds the spectral radius:
    below 1 - SCHUR_TOL the slice is stable, its radius left 0, and one
    eigvals call gives the radius max |eig| of all other slices.  A slice
    with a non-finite entry is unstable, its norm and radius inf: the SVD
    takes it as zeros and the eigvals call skips it.
    """
    A = np.asarray(A, dtype=float)
    finite = np.isfinite(A).all(axis=(-2, -1))
    A = A if finite.all() else np.where(finite[..., None, None], A, 0.0)
    norm = np.linalg.svd(A, compute_uv=False)[..., 0] if A.size else np.zeros(A.shape[:-2])
    norm, radius = np.where(finite, norm, np.inf), np.where(finite, 0.0, np.inf)
    unproven = finite & (norm >= 1.0 - SCHUR_TOL)
    if unproven.any():
        radius[unproven] = _radii(A[unproven] if A.ndim == 3 else A)
    stable = radius < 1.0 - SCHUR_TOL
    return (stable, radius, norm) if A.ndim == 3 else (bool(stable), float(radius), float(norm))


@dataclass(frozen=True)
class LtiPlant:
    """Asymptotically stable discrete-time LTI plant with output disturbance.

    Attributes
    ----------
    A : ndarray, shape (n_state, n_state)
        State transition matrix; spectral radius below ``1 - SCHUR_TOL``,
        checked by ``schur_screen``; a rejection carries ``spectral_radius``.
    B : ndarray, shape (n_state, n)
        Input matrix.
    C : ndarray, shape (n, n_state)
        Output matrix.
    D : ndarray, shape (n, n)
        Feedthrough.
    d : ndarray, shape (n,)
        Constant output disturbance.
    """

    A: NDArray[np.float64]
    B: NDArray[np.float64]
    C: NDArray[np.float64]
    D: NDArray[np.float64]
    d: NDArray[np.float64]

    def __post_init__(self):
        A, B, C, D = (_as_matrix(getattr(self, name), name) for name in "ABCD")
        n_state, n = A.shape[0], B.shape[1]
        # A fixes the state dimension and B the agent count; each error names
        # the matrix it rejects
        for name, arr, shape in (
            ("A", A, (n_state, n_state)),
            ("B", B, (n_state, n)),
            ("C", C, (n, n_state)),
            ("D", D, (n, n)),
        ):
            if arr.shape != shape:
                message = f"{name} must have shape {shape}, got {arr.shape}"
                raise on_field(name, DimensionMismatch(message))
        try:
            d = as_vector(self.d, n, "d", finite=True)
        except (ValueError, DimensionMismatch) as exc:
            raise on_field("d", exc)
        stable, radius, _ = schur_screen(A)
        if not stable:
            message = (
                f"A is not Schur stable (spectral radius {radius:.6g}); "
                "(I - A) would be singular or ill-conditioned"
            )
            raise on_field("A", ValueError(message), spectral_radius=radius)
        for name, arr in (("A", A), ("B", B), ("C", C), ("D", D), ("d", d)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        """Number of agents (inputs and outputs)."""
        return self.B.shape[1]

    @property
    def n_state(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class SensitivityModel:
    """Steady-state input-output sensitivity of an LTI plant.

    Attributes
    ----------
    H : ndarray, shape (n, n)
        Steady-state gain C (I - A)^{-1} B + D.
    H_diag : ndarray, shape (n, n)
        Diagonal matrix holding the diagonal of H; derived from H, not
        a constructor argument.
    H_x : ndarray, shape (n_state, n)
        State sensitivity (I - A)^{-1} B.
    """

    H: NDArray[np.float64]
    H_diag: NDArray[np.float64] = field(init=False)
    H_x: NDArray[np.float64]

    def __post_init__(self):
        H = _as_matrix(self.H, "H")
        H_x = _as_matrix(self.H_x, "H_x")
        n = H.shape[0]
        if H.shape != (n, n):
            raise DimensionMismatch(f"H must be square, got shape {H.shape}")
        if H_x.shape[1] != n:
            raise DimensionMismatch(f"H_x must have {n} columns, got shape {H_x.shape}")
        for name, arr in (("H", H), ("H_diag", np.diag(np.diag(H))), ("H_x", H_x)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.H.shape[0]


@np.errstate(over="ignore", invalid="ignore")
def sensitivity(A, B, C, D):
    """The steady-state sensitivity model of the realization (A, B, C, D).

    Solves (I - A) X = B column-wise rather than forming an explicit
    inverse, then sets H = C X + D.  A need not be stable; a numerically
    singular (I - A), or an H_x or H that overflows, raises SingularMatrix.
    A stack A (B, n_state, n_state) sharing B, C and D is solved in one
    call and gives the stacks (H, H_x); one failing slice fails the whole stack.
    """
    try:
        H_x = np.linalg.solve(np.eye(A.shape[-1]) - A, B)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"(I - A) is singular: {exc}") from exc
    H = C @ H_x + D
    if not (np.isfinite(H_x).all() and np.isfinite(H).all()):
        raise SingularMatrix("the steady-state sensitivity overflows: H or H_x is not finite")
    return (H, H_x) if A.ndim == 3 else SensitivityModel(H=H, H_x=H_x)


def compute_sensitivity(plant: LtiPlant) -> SensitivityModel:
    """The steady-state sensitivity model of a (stable) plant."""
    return sensitivity(plant.A, plant.B, plant.C, plant.D)


def plant_from_dict(data: dict) -> LtiPlant:
    """Build a plant from parsed JSON with the keys ``PLANT_KEYS``.

    Matrices are row-major nested arrays of finite doubles, each
    converted once.  Any malformed entry is rejected with ConfigError
    naming the offending key.  ``data`` is left intact, and let go of once
    its arrays exist: rows nothing else holds go before the Schur screen.
    """
    parsed = read_section("plant", data, {key: (finite, None) for key in PLANT_KEYS})
    del data
    missing = [key for key in PLANT_KEYS if parsed[key] is None]
    if missing:
        raise ConfigError(f"'plant.{missing[0]}' is required")
    return convert("plant", LtiPlant, **parsed)
