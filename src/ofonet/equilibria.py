"""Global optimum, decentralized fixed point and the monotonicity constants behind them.

The steady-state design problem is min_u Phi(u, Hu + d).  Both reference
points are zeros of one gradient,

    F_G(u) = grad_u(u) + G^T grad_y(Hu + d).

With G = H it is the full gradient, whose unique zero u_star is the
minimizer.  With G = diag(H), the matrix of H's diagonal that
``_diagonal`` builds from H, it is the pseudo-gradient of the
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
``analysis`` re-exports them among the certificates.  The constants are
computed in two steps, the spectra and then the formula.  The spectra,
the formulas and the quadratic solve work on stacks of instances, one
row per instance: the conductance sweep takes each over all its rows at
once, and the per-instance functions are the one-row case.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionMismatch, NoConvergence, Overflow, SingularMatrix, _norm, as_vector
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
# The largest float whose square does not overflow.
ROOT_MAX = math.sqrt(sys.float_info.max)


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
    """Singular values of M, or of each slice of a (B, ., .) stack, largest first.

    Values below SVAL_TOL times their slice's largest one are exact zeros.
    """
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    top = s[..., :1]
    return np.where((top > 0.0) & (s < SVAL_TOL * top), 0.0, s)


def _n_factor(n: int, convention: Convention) -> float:
    return float(n) if convention is Convention.PAPER else 1.0


def _diagonal(H):
    """diag(H): the matrix holding H's diagonal and zeros elsewhere, per slice of a stack."""
    return np.where(np.eye(H.shape[-1], dtype=bool), H, 0.0)


def _max_abs_diag(H):
    """max_i |H_ii|, the spectral norm of diag(H), per slice of a stack; 0 without agents."""
    return np.max(np.abs(np.diagonal(H, axis1=-2, axis2=-1)), axis=-1, initial=0.0)


def _h_spectra(H):
    """(sigma_max(H), sigma_min(H), sigma_max(H - diag(H))) of one H, or per slice of a stack."""
    s = _svals(H)
    return s[..., 0], s[..., -1], _svals(H - _diagonal(H))[..., 0]


def _square(x):
    """x ** 2 of each entry of the array ``x`` through Python's float power:
    every certificate and step size squares through here, which keeps the
    bits of libm pow (numpy's square may round apart in the last bit); inf
    where the power would overflow, past ROOT_MAX."""
    squares = [math.inf if abs(v) > ROOT_MAX else v**2 for v in np.ravel(x).tolist()]
    return np.array(squares).reshape(np.shape(x))


def _constants(obj, n: int, spectra, convention: Convention):
    """(m, c, L) of ``n``-agent instances from the rows of their ``_h_spectra``, as
    in ``monotonicity_constants``, each field an array over the rows; and per
    row the Overflow that a constant past the floating-point range raises, or None."""
    sigma_max_h, sigma_min_h, sigma_off = (np.asarray(s, dtype=float) for s in spectra)
    k = _n_factor(n, convention)
    with np.errstate(over="ignore", invalid="ignore"):
        L = k * (obj.L_u + _square(sigma_max_h) * obj.L_y)
        c = k * sigma_off * sigma_max_h * obj.L_y
        m = k * (obj.m_u + _square(sigma_min_h) * obj.m_y)
    # m <= L: it is finite when L is
    errors = [
        None if ok else Overflow(f"a monotonicity constant at sigma_max(H) = {s:.6g}")
        for ok, s in zip((np.isfinite(L) & np.isfinite(c)).tolist(), sigma_max_h.tolist())
    ]
    return MonotonicityConstants(m, c, L, sigma_max_h, sigma_min_h, sigma_off), errors


def _model_constants(obj, model, convention: Convention) -> MonotonicityConstants:
    """``_constants`` of one model as a one-row stack; past the range it raises Overflow."""
    spectra = _h_spectra(model.H[None])
    consts, (error,) = _constants(obj, model.n, spectra, convention)
    if error is not None:
        raise error
    return consts


def _take(consts: MonotonicityConstants, rows) -> MonotonicityConstants:
    """The ``rows`` of per-row constants; for an int index, that row's as floats."""
    pick = float if isinstance(rows, int) else np.asarray
    return dataclasses.replace(consts, **{k: pick(v[rows]) for k, v in vars(consts).items()})


def monotonicity_constants(
    obj: SeparableObjective,
    model: SensitivityModel,
    convention: Convention = Convention.TIGHT,
) -> MonotonicityConstants:
    """Compute (m, c, L) from the sensitivity spectrum and the moduli.

    m = m_u + sigma_min(H)^2 m_y, c = sigma_max(H - diag(H)) sigma_max(H) L_y,
    L = L_u + sigma_max(H)^2 L_y, each multiplied by N under the
    N-scaled convention.  A constant past the floating-point range (as
    sigma_max(H) above ~1e154 gives) raises Overflow.
    """
    return _take(_model_constants(obj, model, convention), 0)


def _coupling(obj, k: MonotonicityConstants):
    """(c < m, lhs, rhs) per row of the tight constants ``k``; rhs is inf where
    sigma_max(H) L_y is 0 or m / (sigma_max(H) L_y) overflows."""
    scale = k.sigma_max_h * obj.L_y
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return k.c < k.m, k.sigma_max_offdiag, np.where(scale > 0.0, k.m / scale, np.inf)


def coupling_condition(
    obj: SeparableObjective, model: SensitivityModel
) -> tuple[bool, float, float]:
    """Diagonal-dominance condition in its convention-free form.

    Returns (satisfied, lhs, rhs): ``satisfied`` is c < m on the tight
    constants (the agent-count factor cancels), and lhs, rhs are its two
    sides in singular-value form,
    sigma_max(H - diag(H)) < (m_u + sigma_min(H)^2 m_y) / (sigma_max(H) L_y).
    """
    satisfied, lhs, rhs = _coupling(obj, _model_constants(obj, model, Convention.TIGHT))
    return bool(satisfied[0]), float(lhs[0]), float(rhs[0])


def _gradient(obj, model, G, d, u):
    """F_G(u) = grad_u(u) + G^T grad_y(Hu + d)."""
    y = model.H.dot(u) + d
    return obj.input_gradient(u) + G.T.dot(obj.output_gradient(y))


def _iterate(grad_fn, u0, tau):
    u = u0.copy()
    for k in range(MAX_ITER):
        g = grad_fn(u)
        with np.errstate(over="ignore"):
            res = math.sqrt(g.dot(g))  # np.linalg.norm's value for a float vector
        if not math.isfinite(res):
            # the square may overflow where the norm does not
            raise NoConvergence(k, _norm(g))
        if res <= SOLVE_TOL:
            return u, res
        u = u - tau * g
    raise NoConvergence(MAX_ITER, _norm(grad_fn(u)))


def _quadratic_points(gamma1, gamma2, y_ref, d, H, G, label):
    """Per slice of the (B, ...) stacks, the zero of F_G for the quadratic
    objective (gamma1, gamma2, y_ref): the solution of

        (gamma1 I + gamma2 G^T H) u = gamma2 G^T (y_ref - d),

    or the error its equations raise, named by ``label``: Overflow for a
    coefficient or a solution past the floating-point range, SingularMatrix
    for singular equations.  Returns the (B, n) solutions, NaN on a slice
    whose equations fail, and per slice its error or None.  One stacked
    solve; when a slice is singular, each slice is solved alone.
    """
    G_t = np.swapaxes(G, -1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = gamma1 * np.eye(H.shape[-1]) + gamma2 * G_t @ H
        rhs = gamma2 * G_t @ (y_ref - d)[..., None]
    finite = np.isfinite(lhs).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=(1, 2))
    errors = [
        None if ok else Overflow(f"a coefficient of the {label} equations") for ok in finite.tolist()
    ]
    u = np.full(rhs.shape[:-1], np.nan)
    rows = np.flatnonzero(finite)
    try:
        u[rows] = np.linalg.solve(lhs[rows], rhs[rows])[..., 0]
    except np.linalg.LinAlgError:
        for b in rows.tolist():
            try:
                u[b] = np.linalg.solve(lhs[b], rhs[b])[:, 0]
            except np.linalg.LinAlgError as exc:
                errors[b] = SingularMatrix(f"{label} equations are singular: {exc}")
                errors[b].__cause__ = exc
    for b in np.flatnonzero(~np.isfinite(u).all(axis=-1)).tolist():
        errors[b] = errors[b] or Overflow(f"the {label}")
    return u, errors


def _solve(obj, model, d, G, label, step_size, certified=True) -> EquilibriumSolution:
    """The zero of F_G; ``label`` names the point in its errors.

    Quadratic objectives are solved exactly by ``_quadratic_points``,
    whose errors this raises; anything else runs the fixed-step iteration
    u <- u - tau F_G(u) from u = 0 to residual SOLVE_TOL, with tau = m / L^2
    for (m, L) = ``step_size()``, and raises Overflow where L^2 or tau is
    past the floating-point range.
    """
    if obj.n != model.n:
        raise DimensionMismatch(f"objective has {obj.n} agents, model has {model.n}")
    d = as_vector(d, model.n, "d")
    H = model.H
    if isinstance(obj, QuadraticObjective):
        u, (error,) = _quadratic_points(
            obj.gamma1, obj.gamma2, obj.y_ref, d, H[None], G[None], label
        )
        if error is not None:
            raise error
        u = u[0]
    else:
        m, L = step_size()
        with np.errstate(divide="ignore", invalid="ignore"):
            square = _square(L)
            tau = float(m / square)
        if not (np.isfinite(square) and math.isfinite(tau)):
            raise Overflow(f"the {label}'s iteration step")
        u, _ = _iterate(lambda v: _gradient(obj, model, G, d, v), np.zeros(model.n), tau)
    residual = _norm(_gradient(obj, model, G, d, u))
    return EquilibriumSolution(
        u=u, y=H @ u + d, residual=residual, uniqueness_certified=certified
    )


def global_optimum(obj: SeparableObjective, model: SensitivityModel, d) -> EquilibriumSolution:
    """Solve for the unique minimizer of the steady-state design problem (G = H).

    The iteration step is tau = m / L^2 with the tight constants m, L.
    """

    def step_size():
        k = monotonicity_constants(obj, model)
        return k.m, k.L

    return _solve(obj, model, d, model.H, "global optimum", step_size)


def decentralized_fixed_point(
    obj: SeparableObjective, model: SensitivityModel, d
) -> EquilibriumSolution:
    """Solve for the zero of the pseudo-gradient, the Nash equilibrium (G = diag(H)).

    When the diagonal-dominance margin fails, the solver still runs but
    the result carries ``uniqueness_certified=False`` instead of raising:
    exploration beyond the certified regime is allowed, just unlabeled.
    The iteration step is (m - c) / L_d^2 with the tight constants m, c
    and L_d = L_u + max_i |H_ii| sigma_max(H) L_y.
    """
    rows = _model_constants(obj, model, Convention.TIGHT)
    k, certified = _take(rows, 0), bool(_coupling(obj, rows)[0][0])

    def step_size():
        L = obj.L_u + float(_max_abs_diag(model.H)) * k.sigma_max_h * obj.L_y
        # m - c > 0 makes tau provably contractive; otherwise best effort.
        return (k.m - k.c if certified else k.m), L

    G = _diagonal(model.H)
    return _solve(obj, model, d, G, "decentralized fixed point", step_size, certified)
