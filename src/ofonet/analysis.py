"""Closed-form stability and sub-optimality certificates.

Three layers of guarantees for the decentralized loop, all derived from
singular values of the sensitivity and the declared objective moduli:

* monotonicity constants (m, c, L) of the pseudo-gradient and the
  diagonal-dominance condition m > c in its singular-value form
  (``Convention``, ``MonotonicityConstants``, ``monotonicity_constants``
  and ``coupling_condition``, owned by ``equilibria`` and re-exported);
* the algebraic-loop contraction rate rho(eta) and the admissible step
  interval, plus the distance bound between the decentralized fixed
  point and the global optimum;
* the dynamic-loop certificate: a 2x2 matrix Xi(eta) whose largest
  eigenvalue bounds the per-step decay of the combined squared error
  ||x - H_x u||^2 + ||u - u_inf||^2, with the critical step size
  eta_star below which lam_max(Xi) < 1.

Every constant exists in two conventions.  The N-scaled convention
multiplies the aggregate moduli by the agent count N; the blockwise
(tight) convention drops that factor, which the separable structure
permits.  Both agree on the diagonal-dominance condition (N cancels),
and the N-scaled rate gate at eta is the tight one at N eta.  The
N-scaled sub-optimality bound undershoots the true distance: on the
seven default rows of ``figures fig4`` it lies below the measured
distance on every row, each flagged applicable (0.042 against 0.102
relative at g = 1), while the tight bound holds on all of them.  The
tight constants are therefore the checked ones (the ``ofo analyze``
gate and ``metrics.json``), and the N-scaled values are reported
alongside for comparison.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from . import objective as obj_mod
from .equilibria import (
    SVAL_TOL,
    Convention,
    MonotonicityConstants,
    _gradient,
    _max_abs_diag,
    _n_factor,
    _svals,
    coupling_condition,
    decentralized_fixed_point,
    global_optimum,
    monotonicity_constants,
)
from .errors import CouplingTooStrong, NotCertifiable, SingularMatrix
from .objective import SeparableObjective
from .plant import LtiPlant, SensitivityModel

__all__ = [
    "SVAL_TOL",
    "TRACK_SLACK",
    "Convention",
    "Branch",
    "MonotonicityConstants",
    "ContractionRate",
    "TrackingCheck",
    "SuboptimalityBound",
    "LtiRateCertificate",
    "monotonicity_constants",
    "coupling_condition",
    "contraction_rate",
    "tracking_inequality_check",
    "suboptimality_bound",
    "xi_matrix",
    "eta_star",
    "monotonicity_gap_test",
    "build_report",
]

# Additive slack on per-step trajectory inequalities.
TRACK_SLACK = 1e-9


class Branch(enum.Enum):
    ETA1 = "eta1"
    ETA2 = "eta2"


@dataclass(frozen=True)
class ContractionRate:
    """rho(eta) for the algebraic loop and the admissible open interval.

    ``eta_upper`` is the interval's upper end 2(m-c)/(L^2-m^2); it is
    +inf with ``degenerate=True`` when L = m makes the formula divide by
    zero, in which case admissibility rests on rho < 1 alone.
    """

    rho: float
    admissible: bool
    eta_upper: float
    degenerate: bool = False


@dataclass(frozen=True)
class TrackingCheck:
    """Per-step verdicts of the linear tracking inequality along a run."""

    one_step_ok: NDArray[np.bool_]
    telescoped_ok: NDArray[np.bool_]
    rho: float
    admissible: bool
    bias: float


@dataclass(frozen=True)
class SuboptimalityBound:
    bound: float
    applicable: bool


@dataclass(frozen=True)
class LtiRateCertificate:
    """Decay certificate for the closed loop with plant dynamics.

    lam_max bounds the one-step contraction factor of the combined
    squared error at the given eta.  eta_star is the critical step
    (None when the instance is not certifiable), capped at m'/L'.
    """

    xi: NDArray[np.float64]
    lam_max: float
    m_prime: float
    l_prime: float
    a1: float
    a2: float
    a3: float
    a4: float
    t: float
    eta: float
    eta_star: Optional[float] = None
    branch: Optional[Branch] = None

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if xi.shape != (2, 2):
            raise ValueError(f"xi must be 2x2, got shape {xi.shape}")
        if abs(xi[0, 1] - xi[1, 0]) > 0.0:
            raise ValueError("xi must be symmetric")
        xi.setflags(write=False)
        object.__setattr__(self, "xi", xi)


def _sigma_min_sq(M) -> float:
    # Smallest eigenvalue of M^T M: zero whenever M has more columns
    # than rows, regardless of its nonzero singular values.
    M = np.asarray(M, dtype=float)
    if M.shape[1] > M.shape[0]:
        return 0.0
    s = _svals(M)
    return float(s[-1] ** 2)


def _rho(consts: MonotonicityConstants, eta: float) -> float:
    """rho(eta) = sqrt(1 - 2 m eta + L^2 eta^2) + c eta; NaN for a negative radicand."""
    m, c, L = consts.m, consts.c, consts.L
    radicand = 1.0 - 2.0 * m * eta + (L * eta) ** 2
    return math.sqrt(radicand) + c * eta if radicand >= 0.0 else math.nan


def _neglected_coupling(obj, model, y) -> float:
    """||(H^T - H_diag) grad_y(y)||, the gradient term the decentralized loop drops."""
    return float(np.linalg.norm((model.H.T - model.H_diag) @ obj_mod.grad_y(obj, y)))


def contraction_rate(consts: MonotonicityConstants, eta: float) -> ContractionRate:
    """Linear rate rho = sqrt(1 - 2 m eta + L^2 eta^2) + c eta.

    The step is admissible when it lies in the open interval
    (0, 2(m-c)/(L^2-m^2)) and rho < 1; both are checked numerically
    rather than trusting either to imply the other.
    """
    m, c, L = consts.m, consts.c, consts.L
    if m <= c:
        raise CouplingTooStrong(f"m={m:.6g} <= c={c:.6g}")
    degenerate = L == m
    eta_upper = math.inf if degenerate else 2.0 * (m - c) / (L**2 - m**2)
    rho = _rho(consts, eta)
    admissible = bool(0.0 < eta < eta_upper and not math.isnan(rho) and rho < 1.0)
    return ContractionRate(
        rho=rho, admissible=admissible, eta_upper=eta_upper, degenerate=degenerate
    )


def tracking_inequality_check(
    trajectory,
    obj: SeparableObjective,
    model: SensitivityModel,
    u_star,
    y_star,
    consts: MonotonicityConstants,
    eta: float,
) -> TrackingCheck:
    """Verify the linear tracking inequality along a decentralized run.

    For each step the one-step form
        ||u_{k+1} - u*|| <= rho ||u_k - u*|| + eta * bias + TRACK_SLACK
    and the telescoped form
        ||u_k - u*|| <= rho^k ||u_0 - u*|| + eta * bias * sum_{j<k} rho^j
    are evaluated, where bias = ||(H^T - H_diag) grad_y(y*)||.  With an
    inadmissible eta the flags are still produced, just not meaningful
    as a certificate; ``admissible`` says which case applies.
    """
    u_star = np.asarray(u_star, dtype=float)
    y_star = np.asarray(y_star, dtype=float)
    rho = _rho(consts, eta)
    admissible = bool(not math.isnan(rho) and 0.0 < rho < 1.0)
    bias = _neglected_coupling(obj, model, y_star)
    u_series = np.asarray(trajectory.u_series, dtype=float)
    dist = np.linalg.norm(u_series - u_star, axis=1)
    n_steps = len(dist) - 1
    one_step = np.zeros(max(n_steps, 0), dtype=bool)
    for k in range(n_steps):
        one_step[k] = dist[k + 1] <= rho * dist[k] + eta * bias + TRACK_SLACK
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


def suboptimality_bound(
    obj: SeparableObjective,
    model: SensitivityModel,
    d,
    u_inf,
    consts: MonotonicityConstants,
) -> SuboptimalityBound:
    """Distance bound ||u* - u_inf|| <= ||(H^T - H_diag) grad_y(y_inf)|| / sqrt(2m - 1).

    ``applicable`` requires 2m > 1 together with the diagonal-dominance
    condition; the number is returned either way since it stays
    informative outside the certified regime.
    """
    u_inf = np.asarray(u_inf, dtype=float)
    d = np.asarray(d, dtype=float)
    y_inf = model.H @ u_inf + d
    lead = _neglected_coupling(obj, model, y_inf)
    two_m = 2.0 * consts.m
    satisfied, _, _ = coupling_condition(obj, model)
    if two_m > 1.0:
        bound = lead * math.sqrt(1.0 / (two_m - 1.0))
        applicable = satisfied
    else:
        bound = math.inf
        applicable = False
    return SuboptimalityBound(bound=bound, applicable=applicable)


def _xi_constants(plant, obj, model, convention):
    k = _n_factor(model.n, convention)
    consts = monotonicity_constants(obj, model, convention)
    sigma_h = consts.sigma_max_h
    sigma_hd = _max_abs_diag(model)
    sigma_c = float(_svals(plant.C)[0])
    sigma_c_min_sq = _sigma_min_sq(plant.C)
    sigma_off = consts.sigma_max_offdiag
    lam_h = float(_svals(model.H_x)[0] ** 2 + 1.0)
    s_a = float(_svals(model.H_x.T @ plant.A)[0])
    alpha = k * obj.L_u + k * obj.L_y * sigma_hd * sigma_h
    beta = k * obj.L_y * sigma_hd * sigma_c
    m_prime = 2.0 * (consts.m - consts.c)
    l_prime = lam_h * alpha**2
    a1 = lam_h * beta * alpha
    a2 = (
        s_a * alpha
        + 2.0 * k * obj.m_y * sigma_c * sigma_h
        + k * obj.L_y * sigma_c * (sigma_off + sigma_h)
    )
    a3 = lam_h * beta**2
    a4 = 2.0 * (
        s_a * sigma_hd * sigma_c - (k * obj.m_y * sigma_c_min_sq - k * obj.L_y * sigma_c**2)
    )
    t = 1.0 - float(_svals(plant.A)[0] ** 2)
    return m_prime, l_prime, a1, a2, a3, a4, t


def _eta_star_from_constants(m_prime, l_prime, a1, a2, a3, a4, t):
    if m_prime <= 0.0:
        raise NotCertifiable(f"m' = {m_prime:.6g} <= 0 (coupling too strong)")
    if t <= 0.0:
        raise NotCertifiable(f"t = {t:.6g} <= 0 (sigma_max(A) >= 1)")
    disc = a3 * m_prime + 2.0 * a1 * a2 - a4 * l_prime
    lin = a4 * m_prime + a2**2 + t * l_prime
    if disc > 0.0:
        root = math.sqrt(lin**2 + 4.0 * t * m_prime * disc)
        value = (root - lin) / (2.0 * disc)
        branch = Branch.ETA1
    elif lin > 0.0:
        value = t * m_prime / lin
        branch = Branch.ETA2
    else:
        # Both quadratic and linear coefficients nonpositive: the decay
        # condition holds for every positive step below the cap.
        value = math.inf
        branch = Branch.ETA2
    return min(value, m_prime / l_prime), branch


def xi_matrix(
    plant: LtiPlant,
    obj: SeparableObjective,
    model: SensitivityModel,
    eta: float,
    convention: Convention = Convention.TIGHT,
) -> LtiRateCertificate:
    """Assemble Xi(eta) and its largest eigenvalue for the dynamic loop.

    Xi = [[sigma_max(A)^2 + a3 eta^2 + a4 eta,  a1 eta^2 + a2 eta],
          [a1 eta^2 + a2 eta,                  1 - m' eta + L' eta^2]].

    The eigenvalue comes from the 2x2 closed form.  eta_star and its
    branch are attached when the instance is certifiable, else left None.
    """
    m_prime, l_prime, a1, a2, a3, a4, t = _xi_constants(plant, obj, model, convention)
    if m_prime <= 0.0:
        raise CouplingTooStrong(f"m' = {m_prime:.6g} <= 0")
    lam_a = 1.0 - t
    off = a1 * eta**2 + a2 * eta
    xi = np.array(
        [
            [lam_a + a3 * eta**2 + a4 * eta, off],
            [off, 1.0 - m_prime * eta + l_prime * eta**2],
        ]
    )
    half_sum = 0.5 * (xi[0, 0] + xi[1, 1])
    half_diff = 0.5 * (xi[0, 0] - xi[1, 1])
    lam_max = half_sum + math.hypot(half_diff, off)
    try:
        star, branch = _eta_star_from_constants(m_prime, l_prime, a1, a2, a3, a4, t)
    except NotCertifiable:
        star, branch = None, None
    return LtiRateCertificate(
        xi=xi,
        lam_max=float(lam_max),
        m_prime=m_prime,
        l_prime=l_prime,
        a1=a1,
        a2=a2,
        a3=a3,
        a4=a4,
        t=t,
        eta=float(eta),
        eta_star=star,
        branch=branch,
    )


def eta_star(
    plant: LtiPlant,
    obj: SeparableObjective,
    model: SensitivityModel,
    convention: Convention = Convention.TIGHT,
) -> tuple[float, Branch]:
    """Critical step size below which lam_max(Xi) < 1.

    Two-branch closed form selected by the sign of
    a3 m' + 2 a1 a2 - a4 L', additionally capped at m'/L' (the cap is
    what keeps the (2,2) block of Xi a contraction).
    """
    consts = _xi_constants(plant, obj, model, convention)
    return _eta_star_from_constants(*consts)


def monotonicity_gap_test(
    obj: SeparableObjective,
    model: SensitivityModel,
    d,
    consts: MonotonicityConstants,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Empirical check of (m - c)-strong monotonicity of the pseudo-gradient.

    Draws ``trials`` random pairs in [-10, 10]^n and returns the minimum
    of <F(u1) - F(u2), u1 - u2> - (m - c) ||u1 - u2||^2; nonnegative up
    to roundoff when the constants are valid for the instance.
    """
    d = np.asarray(d, dtype=float)
    n = model.n
    margin = consts.m - consts.c
    pseudo = functools.partial(_gradient, obj, model, model.H_diag, d)
    worst = math.inf
    for _ in range(trials):
        u1 = rng.uniform(-10.0, 10.0, size=n)
        u2 = rng.uniform(-10.0, 10.0, size=n)
        diff = u1 - u2
        gap = float(np.dot(pseudo(u1) - pseudo(u2), diff) - margin * np.dot(diff, diff))
        worst = min(worst, gap)
    return worst


def _rate_entry(consts, eta):
    try:
        rate = contraction_rate(consts, eta)
    except CouplingTooStrong as exc:
        return {"eta": eta, "error": str(exc)}
    return {
        "eta": eta,
        "rho": None if math.isnan(rate.rho) else rate.rho,
        "admissible": rate.admissible,
        "eta_upper": None if math.isinf(rate.eta_upper) else rate.eta_upper,
        "degenerate": rate.degenerate,
    }


def build_report(
    obj: SeparableObjective,
    model: SensitivityModel,
    d,
    eta: float,
    eta_grid,
    plant: Optional[LtiPlant] = None,
) -> dict:
    """Aggregate every certificate into one JSON-serializable report.

    Both conventions are evaluated: constants, the rate table over
    ``eta_grid``, the sub-optimality bound against the solved fixed
    point, and (when a plant is supplied) the dynamic-loop certificate
    at ``eta`` with its critical step size.  When the fixed-point
    equations are singular, ``equilibrium.error`` holds the solver's
    message and the fields that need the fixed point are None.
    """
    d = np.asarray(d, dtype=float)
    satisfied, lhs, rhs = coupling_condition(obj, model)
    star = global_optimum(obj, model, d)
    norm_star = float(np.linalg.norm(star.u))
    equilibrium = dict.fromkeys(["u_inf", "distance", "relative_distance", "uniqueness_certified"])
    try:
        inf_sol = decentralized_fixed_point(obj, model, d)
    except SingularMatrix as exc:
        inf_sol, equilibrium["error"] = None, str(exc)
    else:
        distance = float(np.linalg.norm(star.u - inf_sol.u))
        equilibrium.update(
            u_inf=inf_sol.u.tolist(),
            distance=distance,
            relative_distance=distance / norm_star if norm_star > 0.0 else None,
            uniqueness_certified=inf_sol.uniqueness_certified,
        )
    report = {
        "n": model.n,
        "coupling": {"satisfied": satisfied, "lhs": lhs, "rhs": rhs},
        "equilibrium": {"u_star": star.u.tolist(), **equilibrium},
        "conventions": {},
    }
    for convention in (Convention.TIGHT, Convention.PAPER):
        consts = monotonicity_constants(obj, model, convention)
        entry = {
            "constants": asdict(consts),
            "rate_table": [_rate_entry(consts, float(e)) for e in eta_grid],
            "rate_at_eta": _rate_entry(consts, float(eta)),
            "suboptimality": None,
        }
        if inf_sol is not None:
            sub = suboptimality_bound(obj, model, d, inf_sol.u, consts)
            entry["suboptimality"] = {
                "bound": None if math.isinf(sub.bound) else sub.bound,
                "applicable": sub.applicable,
                "relative_bound": (
                    sub.bound / norm_star
                    if norm_star > 0.0 and not math.isinf(sub.bound)
                    else None
                ),
            }
        if plant is not None:
            try:
                cert = xi_matrix(plant, obj, model, eta, convention)
                entry["lti"] = {
                    **asdict(cert),
                    "xi": cert.xi.tolist(),
                    "branch": cert.branch.value if cert.branch else None,
                }
            except CouplingTooStrong as exc:
                entry["lti"] = {"error": str(exc)}
        report["conventions"][convention.value] = entry
    return report
