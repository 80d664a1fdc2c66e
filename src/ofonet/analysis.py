"""Closed-form stability and sub-optimality certificates.

Three layers of guarantees for the decentralized loop, all derived from
singular values of the sensitivity and the declared objective moduli:

* monotonicity constants (m, c, L) of the pseudo-gradient and the
  diagonal-dominance condition m > c in its singular-value form
  (``Convention``, ``MonotonicityConstants``, ``monotonicity_constants``
  and ``coupling_condition``, owned by ``equilibria`` and re-exported);
* the algebraic-loop contraction rate rho(eta) and the step interval
  (0, eta_upper) on which rho < 1 (``ContractionRate``), plus the
  distance bound between the decentralized fixed point and the global
  optimum (``SuboptimalityBound``);
* the dynamic-loop certificate (``LtiRateCertificate``, from
  ``xi_matrix``): a 2x2 matrix Xi(eta) whose largest eigenvalue bounds
  the per-step decay of the combined squared error
  ||x - H_x u||^2 + ||u - u_inf||^2, with the critical step size
  eta_star below which lam_max(Xi) < 1 and the branch that gives it.

A failing coupling (m <= c) is a value, not an error: the rate window is
empty (eta_upper = 0, rho >= 1 for every positive step) and Xi certifies
no step (lam_max >= 1, eta_star None).  ``build_report`` gathers all of
them into one JSON document.

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
    _max_abs_diag,
    _n_factor,
    _svals,
    coupling_condition,
    decentralized_fixed_point,
    global_optimum,
    monotonicity_constants,
)
from .errors import Overflow, SingularMatrix
from .objective import SeparableObjective
from .plant import LtiPlant, SensitivityModel

__all__ = [
    "SVAL_TOL",
    "Convention",
    "Branch",
    "MonotonicityConstants",
    "ContractionRate",
    "SuboptimalityBound",
    "LtiRateCertificate",
    "monotonicity_constants",
    "coupling_condition",
    "contraction_rate",
    "suboptimality_bound",
    "xi_matrix",
    "build_report",
]


class Branch(enum.Enum):
    ETA1 = "eta1"
    ETA2 = "eta2"


@dataclass(frozen=True)
class ContractionRate:
    """rho(eta) of the algebraic loop; rho < 1 exactly on (0, eta_upper)."""

    rho: float
    admissible: bool
    eta_upper: float


@dataclass(frozen=True)
class SuboptimalityBound:
    bound: float
    applicable: bool


@dataclass(frozen=True)
class LtiRateCertificate:
    """Decay certificate for the closed loop with plant dynamics.

    lam_max bounds the one-step contraction factor of the combined
    squared error at the given eta.  eta_star is the critical step
    (None when sigma_max(A) >= 1 or m' <= 0), capped at m'/L'.
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
        self.xi.setflags(write=False)


def _sigma_min_sq(M) -> float:
    # Smallest eigenvalue of M^T M: zero whenever M has more columns
    # than rows, regardless of its nonzero singular values.
    M = np.asarray(M, dtype=float)
    if M.shape[1] > M.shape[0]:
        return 0.0
    s = _svals(M)
    return float(s[-1] ** 2)


def contraction_rate(consts: MonotonicityConstants, eta: float) -> ContractionRate:
    """Linear rate rho = sqrt(1 - 2 m eta + L^2 eta^2) + c eta.

    The radicand is at least (1 - m eta)^2 as L >= m, so rho is defined
    for every eta and rho >= 1 + (c - m) eta.  When m > c, rho < 1
    exactly on (0, eta_upper), eta_upper = 2(m-c)/((L-c)(L+c)); when
    m <= c, rho >= 1 for every positive step and eta_upper is 0.
    Admissibility tests rho itself: a step that rounds onto the end is
    judged by the rate it gets.  A step whose rate leaves the
    floating-point range raises Overflow.
    """
    m, c, L = consts.m, consts.c, consts.L
    eta_upper = 2.0 * (m - c) / ((L - c) * (L + c)) if m > c else 0.0
    try:
        rho = math.sqrt(1.0 - 2.0 * m * eta + (L * eta) ** 2) + c * eta
    except OverflowError:
        rho = math.inf
    if not math.isfinite(rho):
        raise Overflow(f"the rate at step size {eta:.6g}")
    return ContractionRate(rho=rho, admissible=bool(0.0 < eta and rho < 1.0), eta_upper=eta_upper)


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
    # the gradient term the decentralized loop drops, at y_inf
    grad_y_inf = obj_mod.grad_y(obj, model.H @ u_inf + d)
    lead = float(np.linalg.norm((model.H.T - model.H_diag) @ grad_y_inf))
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
    """(eta_star, branch); (None, None) when t <= 0 (sigma_max(A) >= 1) or m' <= 0.

    Two-branch closed form selected by the sign of a3 m' + 2 a1 a2 - a4 L',
    capped at m'/L' (the cap is what keeps the (2,2) block of Xi a
    contraction).
    """
    if t <= 0.0 or m_prime <= 0.0:
        return None, None
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
    branch are attached when sigma_max(A) < 1 and m' > 0, else left None.
    A constant or an entry past the floating-point range raises Overflow.
    """
    try:
        m_prime, l_prime, a1, a2, a3, a4, t = _xi_constants(plant, obj, model, convention)
        eta_sq = eta**2
    except OverflowError as exc:
        raise Overflow(f"Xi at step size {eta:.6g}") from exc
    lam_a = 1.0 - t
    off = a1 * eta_sq + a2 * eta
    xi = np.array(
        [
            [lam_a + a3 * eta_sq + a4 * eta, off],
            [off, 1.0 - m_prime * eta + l_prime * eta_sq],
        ]
    )
    half_sum = 0.5 * (xi[0, 0] + xi[1, 1])
    half_diff = 0.5 * (xi[0, 0] - xi[1, 1])
    # lambda_max is finite only if every entry is
    lam_max = half_sum + math.hypot(half_diff, off)
    if not math.isfinite(lam_max):
        raise Overflow(f"Xi at step size {eta:.6g}")
    star, branch = _eta_star_from_constants(m_prime, l_prime, a1, a2, a3, a4, t)
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
        etas = [float(e) for e in (*eta_grid, eta)]
        rates = [{"eta": e, **asdict(contraction_rate(consts, e))} for e in etas]
        entry = {
            "constants": asdict(consts),
            "rate_table": rates[:-1],
            "rate_at_eta": rates[-1],
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
            cert = xi_matrix(plant, obj, model, eta, convention)
            branch = cert.branch.value if cert.branch else None
            entry["lti"] = {**asdict(cert), "xi": cert.xi.tolist(), "branch": branch}
        report["conventions"][convention.value] = entry
    return report
