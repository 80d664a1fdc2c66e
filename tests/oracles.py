"""Sampled and brute-force oracles for the paper's claims, kept beside the tests.

No command, report or benchmark runs these; the tests check the package
against them.  Each oracle restates what it checks from the per-agent
callables of a ``SeparableObjective`` and the matrices of a
``SensitivityModel``: the pseudo-gradient, the contraction rate rho(eta),
the neglected-coupling bias and, for quadratic objectives, the exact
step limit of the algebraic loop and the exact monotonicity modulus of
the pseudo-gradient.  They import only public ``ofonet`` names, so none
of them reuses the code it checks.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ofonet.errors import DimensionMismatch, as_vector
from ofonet.objective import QuadraticObjective

# Additive slack on per-step trajectory inequalities.
TRACK_SLACK = 1e-9


def step(plant, x, u) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Advance the plant one sample: returns (x_next, y) for state x, input u."""
    x = as_vector(x, plant.n_state, "state")
    u = as_vector(u, plant.n, "input")
    x_next = plant.A @ x + plant.B @ u
    y = plant.C @ x + plant.D @ u + plant.d
    return x_next, y


def spectral_radius(a) -> float:
    """max |eig(a)|, from numpy alone: the radius the Schur screen must report."""
    return float(np.abs(np.linalg.eigvals(a)).max())


def value(obj, u, y) -> float:
    """Total cost sum_i phi_i1(u_i) + phi_i2(y_i), summed over the per-agent callables."""
    pairs = itertools.chain(
        zip(obj.input_costs, as_vector(u, obj.n, "u")),
        zip(obj.output_costs, as_vector(y, obj.n, "y")),
    )
    return float(sum(f(float(v)) for (f, _), v in pairs))


def _derivatives(costs, v) -> NDArray[np.float64]:
    """Component i is the derivative of the i-th (cost, derivative) pair at v_i."""
    return np.array([df(float(vi)) for (_, df), vi in zip(costs, v)])


def _pseudo_gradient(obj, model, d, u) -> NDArray[np.float64]:
    """Player i's own derivative dphi_i1(u_i) + H_ii dphi_i2(y_i), with y = H u + d."""
    own_output = _derivatives(obj.output_costs, model.H @ u + d)
    return _derivatives(obj.input_costs, u) + np.diag(model.H) * own_output


def nash_residual(obj, model, d, u) -> float:
    """Norm of the pseudo-gradient at u; zero iff u is a Nash equilibrium."""
    d = as_vector(d, model.n, "d")
    u = as_vector(u, model.n, "u")
    return float(np.linalg.norm(_pseudo_gradient(obj, model, d, u)))


def _player_cost(obj, model, d, u, i):
    y_i = float(model.H[i] @ u + d[i])
    return obj.input_costs[i][0](float(u[i])) + obj.output_costs[i][0](y_i)


def best_response_check(obj, model, d, u, i: int, grid_radius: float, tol: float = 1e-8) -> bool:
    """Brute-force unilateral-deviation test for player i.

    Scans 201 evenly spaced deviations of u_i over
    [-grid_radius, +grid_radius] and reports whether none of them lowers
    player i's own cost by more than ``tol``.  It evaluates costs only,
    no gradient, so it can serve as the solvers' oracle.
    """
    n = model.n
    d = as_vector(d, n, "d")
    u = as_vector(u, n, "u")
    if not 0 <= i < n:
        raise DimensionMismatch(f"agent index {i} out of range for n={n}")
    if grid_radius <= 0.0:
        raise ValueError(f"grid_radius must be positive, got {grid_radius}")
    base = _player_cost(obj, model, d, u, i)
    trial = u.copy()
    for delta in np.linspace(-grid_radius, grid_radius, 201):
        trial[i] = u[i] + delta
        if _player_cost(obj, model, d, trial, i) < base - tol:
            return False
    return True


def monotonicity_gap_test(obj, model, d, consts, trials: int, rng: np.random.Generator) -> float:
    """Empirical check of (m - c)-strong monotonicity of the pseudo-gradient.

    Draws ``trials`` random pairs in [-10, 10]^n and returns the minimum
    of <F(u1) - F(u2), u1 - u2> - (m - c) ||u1 - u2||^2; nonnegative up
    to roundoff when the constants are valid for the instance.
    """
    d = as_vector(d, model.n, "d")
    margin = consts.m - consts.c
    worst = math.inf
    for _ in range(trials):
        u1 = rng.uniform(-10.0, 10.0, size=model.n)
        u2 = rng.uniform(-10.0, 10.0, size=model.n)
        diff = u1 - u2
        gain = _pseudo_gradient(obj, model, d, u1) - _pseudo_gradient(obj, model, d, u2)
        worst = min(worst, float(np.dot(gain, diff) - margin * np.dot(diff, diff)))
    return worst


def _pseudo_gradient_jacobian(obj, model) -> NDArray[np.float64]:
    """M = gamma1 I + gamma2 H_diag H, the constant Jacobian of a quadratic's pseudo-gradient."""
    if not isinstance(obj, QuadraticObjective):
        raise TypeError("the exact oracles need a quadratic objective")
    return obj.gamma1 * np.eye(model.n) + obj.gamma2 * np.diag(np.diag(model.H)) @ model.H


def exact_algebraic_eta_limit(obj, model) -> float:
    """The step size above which the decentralized algebraic loop diverges.

    For a quadratic objective the loop u+ = u - eta (gamma1 u + gamma2
    H_diag (H u + d - y_ref)) is affine with iteration matrix I - eta M,
    M = gamma1 I + gamma2 H_diag H.  It converges iff |1 - eta lam| < 1
    for every eigenvalue lam of M, that is iff eta < 2 Re lam / |lam|^2
    for each of them; the minimum over the spectrum is returned.
    """
    lam = np.linalg.eigvals(_pseudo_gradient_jacobian(obj, model))
    return float(np.min(2.0 * lam.real / np.abs(lam) ** 2))


def exact_pseudo_gradient_modulus(obj, model) -> float:
    """The exact strong-monotonicity modulus of the decentralized pseudo-gradient.

    For a quadratic objective F(u1) - F(u2) = M (u1 - u2) with
    M = gamma1 I + gamma2 H_diag H, so <F(u1) - F(u2), u1 - u2> >=
    lam ||u1 - u2||^2 holds for lam = lambda_min((M + M^T) / 2) and for
    no larger lam.  The certified modulus m - c may not exceed it, and
    the pseudo-gradient is strongly monotone, its zero unique, iff lam > 0.
    """
    M = _pseudo_gradient_jacobian(obj, model)
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


@dataclass(frozen=True)
class TrackingCheck:
    """Per-step verdicts of the linear tracking inequality along a run."""

    one_step_ok: NDArray[np.bool_]
    telescoped_ok: NDArray[np.bool_]
    rho: float
    admissible: bool
    bias: float


def tracking_inequality_check(trajectory, obj, model, u_star, y_star, consts, eta: float):
    """Verify the linear tracking inequality along a decentralized run.

    For each step the one-step form
        ||u_{k+1} - u*|| <= rho ||u_k - u*|| + eta * bias + TRACK_SLACK
    and the telescoped form
        ||u_k - u*|| <= rho^k ||u_0 - u*|| + eta * bias * sum_{j<k} rho^j
    are evaluated, where rho = sqrt(1 - 2 m eta + L^2 eta^2) + c eta and
    bias = ||(H^T - H_diag) grad_y(y*)||.  With an inadmissible eta the
    flags are still produced, just not meaningful as a certificate;
    ``admissible`` says which case applies.
    """
    u_star = np.asarray(u_star, dtype=float)
    y_star = np.asarray(y_star, dtype=float)
    radicand = 1.0 - 2.0 * consts.m * eta + (consts.L * eta) ** 2
    rho = math.sqrt(radicand) + consts.c * eta if radicand >= 0.0 else math.nan
    admissible = bool(not math.isnan(rho) and 0.0 < rho < 1.0)
    coupling = model.H.T - np.diag(np.diag(model.H))
    bias = float(np.linalg.norm(coupling @ _derivatives(obj.output_costs, y_star)))
    dist = np.linalg.norm(np.asarray(trajectory.u_series, dtype=float) - u_star, axis=1)
    one_step = dist[1:] <= rho * dist[:-1] + eta * bias + TRACK_SLACK
    telescoped = np.zeros(len(dist), dtype=bool)
    geo = 0.0  # sum_{j<k} rho^j
    pw = 1.0  # rho^k
    for k in range(len(dist)):
        telescoped[k] = dist[k] <= pw * dist[0] + eta * bias * geo + TRACK_SLACK
        geo += pw
        pw *= rho
    return TrackingCheck(
        one_step_ok=one_step,
        telescoped_ok=telescoped,
        rho=rho,
        admissible=admissible,
        bias=bias,
    )
