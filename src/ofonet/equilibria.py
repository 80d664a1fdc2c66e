"""Global optimum, decentralized fixed point and the monotonicity constants behind them.

The steady-state design problem is min_u Phi(u, Hu + d).  Both reference
points are zeros of one gradient,

    F_G(u) = grad_u(u) + G^T grad_y(Hu + d).

With G = H it is the full gradient, whose unique zero u_star is the
minimizer.  With G = H_diag it is the pseudo-gradient of the
decentralized controller; its zeros u_inf are exactly the Nash
equilibria of the game in which player i minimizes
phi_i1(u_i) + phi_i2([Hu + d]_i) over its own input.  One solver,
parametrized by G, computes both to tolerances well below anything the
trajectory tests assert against.  A solution records u, y = Hu + d, the
residual ||F_G(u)|| and whether the point is certified unique; the
entry point that returned it says which point it is.

The module also owns the monotonicity constants (m, c, L) of an
instance, in both conventions, and the diagonal-dominance coupling
condition built from them, which certifies that the Nash equilibrium is
unique.  Both solvers take their step sizes from the same constants;
``analysis`` re-exports them among the certificates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionMismatch, NoConvergence, Overflow, SingularMatrix, as_vector
from .objective import QuadraticObjective, SeparableObjective
from .plant import SensitivityModel

__all__ = [
    "SVAL_TOL",
    "SOLVE_TOL",
    "MAX_ITER",
    "Convention",
    "MonotonicityConstants",
    "EquilibriumSolution",
    "monotonicity_constants",
    "coupling_condition",
    "global_optimum",
    "decentralized_fixed_point",
]

SOLVE_TOL = 1e-10
MAX_ITER = 10**6
# Singular values below SVAL_TOL * sigma_max are treated as exact zeros.
SVAL_TOL = 1e-12


@dataclass(frozen=True)
class EquilibriumSolution:
    """A solved operating point together with its defining residual.

    ``uniqueness_certified`` is False when the diagonal-dominance margin
    that guarantees a unique fixed point could not be verified; the
    point returned is then merely the one the solver found.
    """

    u: NDArray[np.float64]
    y: NDArray[np.float64]
    residual: float
    uniqueness_certified: bool = True

    def __post_init__(self):
        self.u.setflags(write=False)
        self.y.setflags(write=False)


class Convention(enum.Enum):
    """Constant convention: N-scaled aggregates vs blockwise-tight ones."""

    PAPER = "paper"
    TIGHT = "tight"


@dataclass(frozen=True)
class MonotonicityConstants:
    """Strong-monotonicity modulus m, coupling penalty c, smoothness L.

    m - c is the effective modulus of the pseudo-gradient; L bounds the
    Lipschitz constant of the full steady-state gradient.
    """

    m: float
    c: float
    L: float
    sigma_max_h: float
    sigma_min_h: float
    sigma_max_offdiag: float


def _svals(M) -> NDArray[np.float64]:
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    if s.size and s[0] > 0.0:
        s = np.where(s < SVAL_TOL * s[0], 0.0, s)
    return s


def _n_factor(n: int, convention: Convention) -> float:
    return float(n) if convention is Convention.PAPER else 1.0


def _max_abs_diag(model: SensitivityModel) -> float:
    """max_i |H_ii|, the spectral norm of H_diag; 0 for an empty model."""
    return float(np.max(np.abs(np.diag(model.H_diag)))) if model.n else 0.0


def monotonicity_constants(
    obj: SeparableObjective,
    model: SensitivityModel,
    convention: Convention = Convention.TIGHT,
) -> MonotonicityConstants:
    """Compute (m, c, L) from the sensitivity spectrum and the moduli.

    m = m_u + sigma_min(H)^2 m_y, c = sigma_max(H - H_diag) sigma_max(H) L_y,
    L = L_u + sigma_max(H)^2 L_y, each multiplied by N under the
    N-scaled convention.  A constant past the floating-point range (as
    sigma_max(H) above ~1e154 gives) raises Overflow.
    """
    s = _svals(model.H)
    sigma_max_h = float(s[0])
    sigma_min_h = float(s[-1])
    sigma_off = float(_svals(model.H - model.H_diag)[0])
    k = _n_factor(model.n, convention)
    try:
        L = k * (obj.L_u + sigma_max_h**2 * obj.L_y)
    except OverflowError:
        L = math.inf
    c = k * sigma_off * sigma_max_h * obj.L_y
    # m <= L: it is finite when L is
    if not (math.isfinite(L) and math.isfinite(c)):
        raise Overflow(f"a monotonicity constant at sigma_max(H) = {sigma_max_h:.6g}")
    return MonotonicityConstants(
        m=k * (obj.m_u + sigma_min_h**2 * obj.m_y),
        c=c,
        L=L,
        sigma_max_h=sigma_max_h,
        sigma_min_h=sigma_min_h,
        sigma_max_offdiag=sigma_off,
    )


def _coupling(obj, k: MonotonicityConstants) -> tuple[bool, float, float]:
    """(c < m, lhs, rhs) from the tight constants ``k``; rhs is inf if sigma_max(H) L_y is 0."""
    scale = k.sigma_max_h * obj.L_y
    return k.c < k.m, k.sigma_max_offdiag, k.m / scale if scale > 0.0 else np.inf


def coupling_condition(
    obj: SeparableObjective, model: SensitivityModel
) -> tuple[bool, float, float]:
    """Diagonal-dominance condition in its convention-free form.

    Returns (satisfied, lhs, rhs): ``satisfied`` is c < m on the tight
    constants (the agent-count factor cancels), and lhs, rhs are its two
    sides in singular-value form,
    sigma_max(H - H_diag) < (m_u + sigma_min(H)^2 m_y) / (sigma_max(H) L_y).
    """
    return _coupling(obj, monotonicity_constants(obj, model))


def _gradient(obj, model, G, d, u):
    """F_G(u) = grad_u(u) + G^T grad_y(Hu + d)."""
    y = model.H @ u + d
    return obj.input_gradient(u) + G.T @ obj.output_gradient(y)


def _iterate(grad_fn, u0, tau):
    u = u0.copy()
    for k in range(MAX_ITER):
        g = grad_fn(u)
        res = float(np.linalg.norm(g))
        if not np.isfinite(res):
            raise NoConvergence(k, res)
        if res <= SOLVE_TOL:
            return u, res
        u = u - tau * g
    raise NoConvergence(MAX_ITER, float(np.linalg.norm(grad_fn(u))))


def _solve(obj, model, d, G, label, step_size, certified=True) -> EquilibriumSolution:
    """The zero of F_G; ``label`` names the point in a singular-solve error.

    Quadratic objectives are solved exactly through the linear equations
    (gamma1 I + gamma2 G^T H) u = gamma2 G^T (y_ref - d); anything else
    runs the fixed-step iteration u <- u - tau F_G(u) from u = 0 to
    residual SOLVE_TOL, with tau = ``step_size()``.
    """
    if obj.n != model.n:
        raise DimensionMismatch(f"objective has {obj.n} agents, model has {model.n}")
    d = as_vector(d, model.n, "d")
    H = model.H
    if isinstance(obj, QuadraticObjective):
        lhs = obj.gamma1 * np.eye(model.n) + obj.gamma2 * G.T @ H
        rhs = obj.gamma2 * G.T @ (obj.y_ref - d)
        try:
            u = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix(f"{label} equations are singular: {exc}") from exc
    else:
        u, _ = _iterate(
            lambda v: _gradient(obj, model, G, d, v), np.zeros(model.n), step_size()
        )
    residual = float(np.linalg.norm(_gradient(obj, model, G, d, u)))
    return EquilibriumSolution(
        u=u, y=H @ u + d, residual=residual, uniqueness_certified=certified
    )


def global_optimum(obj: SeparableObjective, model: SensitivityModel, d) -> EquilibriumSolution:
    """Solve for the unique minimizer of the steady-state design problem (G = H).

    The iteration step is tau = m / L^2 with the tight constants m, L.
    """

    def step_size():
        k = monotonicity_constants(obj, model)
        return k.m / k.L**2

    return _solve(obj, model, d, model.H, "global optimum", step_size)


def decentralized_fixed_point(
    obj: SeparableObjective, model: SensitivityModel, d
) -> EquilibriumSolution:
    """Solve for the zero of the pseudo-gradient, the Nash equilibrium (G = H_diag).

    When the diagonal-dominance margin fails, the solver still runs but
    the result carries ``uniqueness_certified=False`` instead of raising:
    exploration beyond the certified regime is allowed, just unlabeled.
    The iteration step is (m - c) / L_d^2 with the tight constants m, c
    and L_d = L_u + max_i |H_ii| sigma_max(H) L_y.
    """
    k = monotonicity_constants(obj, model)
    certified = _coupling(obj, k)[0]

    def step_size():
        L = obj.L_u + _max_abs_diag(model) * k.sigma_max_h * obj.L_y
        # m - c > 0 makes tau provably contractive; otherwise best effort.
        return (k.m - k.c) / L**2 if certified else k.m / L**2

    return _solve(
        obj, model, d, model.H_diag, "decentralized fixed point", step_size, certified
    )
