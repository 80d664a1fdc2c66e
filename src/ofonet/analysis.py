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
  eta_star below which lam_max(Xi) < 1 and the branch that gives it,
  "eta1" or "eta2".

A failing coupling (m <= c) is a value, not an error: the rate window is
empty (eta_upper = 0, rho >= 1 for every positive step) and Xi certifies
no step (lam_max >= 1, eta_star None).  ``build_report`` gathers all of
them into one JSON document.  ``_sweep_certificates`` applies each formula
once over all rows of the conductance sweep, and each row equals the
per-instance functions bit for bit.  Every certificate is numpy
arithmetic whose squares go through ``equilibria._square``, and a
non-finite result raises one Overflow.

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

import math
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from . import objective as obj_mod
from .equilibria import (
    SVAL_TOL,
    Convention,
    MonotonicityConstants,
    _constants,
    _coupling,
    _diagonal,
    _h_spectra,
    _max_abs_diag,
    _model_constants,
    _n_factor,
    _quadratic_points,
    _square,
    _svals,
    _take,
    coupling_condition,
    decentralized_fixed_point,
    global_optimum,
    monotonicity_constants,
)
from .errors import Overflow, SingularMatrix, _norm
from .objective import SeparableObjective
from .plant import LtiPlant, SensitivityModel

__all__ = [
    "SVAL_TOL",
    "Convention",
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
    squared error at the caller's eta.  eta_star is the critical step
    (None when sigma_max(A) >= 1 or m' <= 0), capped at m'/L', and
    ``branch`` names the closed form that gives it, "eta1" or "eta2".
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
    eta_star: Optional[float] = None
    branch: Optional[str] = None

    def __post_init__(self):
        self.xi.setflags(write=False)


def contraction_rate(consts: MonotonicityConstants, eta: float) -> ContractionRate:
    """Linear rate rho = sqrt(1 - 2 m eta + L^2 eta^2) + c eta.

    The radicand is at least (1 - m eta)^2 as L >= m, so rho is defined
    for every eta and rho >= 1 + (c - m) eta.  When m > c, rho < 1
    exactly on (0, eta_upper), eta_upper = 2(m-c)/((L-c)(L+c)); when
    m <= c, rho >= 1 for every positive step and eta_upper is 0.
    Admissibility tests rho itself: a step that rounds onto the end is
    judged by the rate it gets.  A rate or an end past the floating-point
    range (as a denominator that underflows to zero gives) raises Overflow.
    """
    m, c, L = np.float64(consts.m), np.float64(consts.c), np.float64(consts.L)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        eta_upper = 2.0 * (m - c) / ((L - c) * (L + c)) if m > c else 0.0
        rho = np.sqrt(1.0 - 2.0 * m * eta + _square(L * eta)) + c * eta
    if not np.isfinite(eta_upper):
        raise Overflow("the window end eta_upper = 2(m - c)/((L - c)(L + c))")
    if not np.isfinite(rho):
        raise Overflow(f"the rate at step size {eta:.6g}")
    return ContractionRate(
        rho=float(rho), admissible=bool(0.0 < eta and rho < 1.0), eta_upper=float(eta_upper)
    )


def _dropped_gradient(H, grad_y):
    """||(H^T - diag(H)) grad_y||, the gradient term the decentralized loop drops,
    per slice of the stacks H (B, n, n) and grad_y (B, n), with grad_y the
    output gradient at the decentralized fixed point."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = (np.swapaxes(H, -1, -2) - _diagonal(H)) @ grad_y[..., None]
    return _norm(v[..., 0])


def _bound(lead, m, satisfied):
    """The bound lead / sqrt(2m - 1) of ``suboptimality_bound`` per row, inf where
    2m <= 1, and whether it applies: 2m > 1 and ``satisfied``, the coupling."""
    two_m = 2.0 * np.asarray(m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = np.where(two_m > 1.0, lead * np.sqrt(1.0 / (two_m - 1.0)), np.inf)
    return bound, (two_m > 1.0) & satisfied


def suboptimality_bound(
    obj: SeparableObjective,
    model: SensitivityModel,
    d,
    u_inf,
    consts: MonotonicityConstants,
) -> SuboptimalityBound:
    """Distance bound ||u* - u_inf|| <= ||(H^T - diag(H)) grad_y(y_inf)|| / sqrt(2m - 1).

    ``applicable`` requires 2m > 1 together with the diagonal-dominance
    condition; the number is returned either way since it stays
    informative outside the certified regime.
    """
    y_inf = model.H @ np.asarray(u_inf, dtype=float) + np.asarray(d, dtype=float)
    lead = _dropped_gradient(model.H[None], obj_mod.grad_y(obj, y_inf)[None])
    satisfied, _, _ = coupling_condition(obj, model)
    bound, applicable = _bound(lead[0], consts.m, satisfied)
    return SuboptimalityBound(bound=float(bound), applicable=bool(applicable))


def _xi_spectra(C, H_x, A, sigma_a=None):
    """The spectra behind the Xi constants: sigma_max(C), sigma_min(C), sigma_max(H_x),
    sigma_max(H_x^T A) and sigma_max(A), per slice when H_x and A are stacks sharing C.

    sigma_min(C) is the root of the smallest eigenvalue of C^T C: zero
    whenever C has more columns than rows, whatever its singular values.
    ``sigma_a``, when given, is sigma_max(A) (the Schur screen takes it).
    """
    s_c = _svals(C)
    wide = C.shape[-1] > C.shape[-2]
    return (
        s_c[..., 0],
        0.0 if wide else s_c[..., -1],
        _svals(H_x)[..., 0],
        _svals(np.swapaxes(H_x, -1, -2) @ A)[..., 0],
        _svals(A)[..., 0] if sigma_a is None else sigma_a,
    )


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
    A constant, an entry or eta_star past the floating-point range raises Overflow.
    """
    consts = _model_constants(obj, model, convention)
    spectra = _xi_spectra(plant.C, model.H_x[None], plant.A[None])
    (x11, x12, x22), (fields,), (error,) = _xi_certificate(
        obj, model.n, consts, _max_abs_diag(model.H[None]), spectra, eta, convention
    )
    if error is not None:
        raise error
    return LtiRateCertificate(np.array([[x11[0], x12[0]], [x12[0], x22[0]]]), *fields)


def _xi_certificate(obj, n, consts, sigma_hd, spectra, eta, convention):
    """Xi(eta) of ``xi_matrix`` per row, from the constants ``consts`` in
    ``convention``, max_i |H_ii| and the ``_xi_spectra``.  Returns its entries
    (Xi_11, Xi_12, Xi_22), each an array over the rows; per row the fields of
    its ``LtiRateCertificate`` after xi, (lam_max, m', L', a1, a2, a3, a4, t,
    eta_star, branch); and per row the Overflow it raises, or None.  It
    raises one where, checked in this order, lam_max, the cap m'/L' or the
    root or linear coefficient of eta_star's branch leaves the
    floating-point range.

    eta_star is the two-branch closed form selected by the sign of
    a3 m' + 2 a1 a2 - a4 L', capped at m'/L' (the cap is what keeps the
    (2,2) block of Xi a contraction); it and its branch are None where
    t <= 0 (sigma_max(A) >= 1) or m' <= 0.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sigma_c, sigma_c_min, sigma_hx, s_a, sigma_a = spectra
        k = _n_factor(n, convention)
        sigma_h, sigma_off = consts.sigma_max_h, consts.sigma_max_offdiag
        lam_h = _square(sigma_hx) + 1.0
        alpha = k * obj.L_u + k * obj.L_y * sigma_hd * sigma_h
        beta = k * obj.L_y * sigma_hd * sigma_c
        m_prime = 2.0 * (consts.m - consts.c)
        l_prime = lam_h * _square(alpha)
        a1 = lam_h * beta * alpha
        a2 = (
            s_a * alpha
            + 2.0 * k * obj.m_y * sigma_c * sigma_h
            + k * obj.L_y * sigma_c * (sigma_off + sigma_h)
        )
        a3 = lam_h * _square(beta)
        a4 = 2.0 * (
            s_a * sigma_hd * sigma_c
            - (k * obj.m_y * _square(sigma_c_min) - k * obj.L_y * _square(sigma_c))
        )
        t = 1.0 - _square(sigma_a)
        eta_sq = _square(eta)
        off = a1 * eta_sq + a2 * eta
        xi = ((1.0 - t) + a3 * eta_sq + a4 * eta, off, 1.0 - m_prime * eta + l_prime * eta_sq)
        half_sum, half_diff = 0.5 * (xi[0] + xi[2]), 0.5 * (xi[0] - xi[2])
        disc = a3 * m_prime + 2.0 * a1 * a2 - a4 * l_prime
        lin = a4 * m_prime + _square(a2) + t * l_prime
        root = np.sqrt(_square(lin) + 4.0 * t * m_prime * disc)
        eta1 = disc > 0.0
        # where both coefficients are nonpositive, the decay condition
        # holds for every positive step below the cap
        linear = np.where(lin > 0.0, t * m_prime / lin, np.inf)
        cap = m_prime / l_prime
        star = np.minimum(np.where(eta1, (root - lin) / (2.0 * disc), linear), cap)
    # hypot one row at a time: math.hypot and numpy's hypot may round apart
    rows = zip(half_sum.tolist(), half_diff.tolist(), off.tolist())
    lam_max = np.array([s + math.hypot(d, o) for s, d, o in rows])
    defined = (t > 0.0) & (m_prime > 0.0)
    failed = np.select(
        [
            ~np.isfinite(lam_max),
            defined & ~np.isfinite(cap),
            defined & ~np.isfinite(np.where(eta1, root, lin)),
        ],
        [1, 2, 3],
    )
    what = (None, f"Xi at step size {eta:.6g}", "the cap m'/L' of eta_star", "eta_star")
    errors = [Overflow(what[k]) if k else None for k in failed.tolist()]
    star, branch = (np.where(defined, c, None) for c in (star, np.where(eta1, "eta1", "eta2")))
    columns = (lam_max, m_prime, l_prime, a1, a2, a3, a4, t, star, branch)
    return xi, list(zip(*(c.tolist() for c in columns))), errors


def build_report(
    obj: SeparableObjective,
    model: SensitivityModel,
    d,
    eta: float,
    eta_grid,
    plant: LtiPlant,
) -> dict:
    """Aggregate every certificate into one JSON-serializable report.

    Both conventions are evaluated: constants, the rate table over
    ``eta_grid``, the sub-optimality bound against the solved fixed
    point, and the dynamic-loop certificate of ``plant`` at ``eta`` with
    its critical step size.  When the fixed-point equations are singular,
    ``equilibrium.error`` holds the solver's message and the fields that
    need the fixed point are None.
    """
    d = np.asarray(d, dtype=float)
    satisfied, lhs, rhs = coupling_condition(obj, model)
    star = global_optimum(obj, model, d)
    norm_star = _norm(star.u)
    equilibrium = dict.fromkeys(["u_inf", "distance", "relative_distance", "uniqueness_certified"])
    try:
        inf_sol = decentralized_fixed_point(obj, model, d)
    except SingularMatrix as exc:
        inf_sol, equilibrium["error"] = None, str(exc)
    else:
        distance = _norm(star.u - inf_sol.u)
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
        cert = xi_matrix(plant, obj, model, eta, convention)
        entry["lti"] = {**asdict(cert), "xi": cert.xi.tolist(), "eta": etas[-1]}
        report["conventions"][convention.value] = entry
    return report


# the sweep's certificate columns: the keys of each row of ``_sweep_certificates``, in order
CERTIFICATE_COLUMNS = (
    "coupling_ok",
    "coupling_lhs",
    "coupling_rhs",
    "rel_subopt",
    "bound_tight_rel",
    "bound_tight_applicable",
    "bound_paper_rel",
    "bound_paper_applicable",
    "lam_max_xi",
    "eta_star",
)


def _sweep_certificates(gamma1, gamma2, grids, y_ref, stable, sigma_a, eta: float):
    """Per row of the sweep's ``grids`` (stacks A, H, H_x, d_eff; a shared C) under
    the objective (gamma1, gamma2, ``y_ref``): its cells, keyed by ``CERTIFICATE_COLUMNS``,
    Xi only where its Schur screen (``stable``, ``sigma_a``) passes; the error
    that the per-instance functions raise first on it, or None; and its
    decentralized fixed point."""
    H, n = grids.H, grids.H.shape[-1]
    obj = SimpleNamespace(L_u=gamma1, m_u=gamma1, L_y=gamma2, m_y=gamma2)  # all the formulas read
    (star, star_errors), (fixed, fixed_errors) = (
        _quadratic_points(gamma1, gamma2, y_ref, grids.d_eff, H, G, label)
        for G, label in ((H, "global optimum"), (_diagonal(H), "decentralized fixed point"))
    )
    spectra = _h_spectra(H)
    tight, tight_errors = _constants(obj, n, spectra, Convention.TIGHT)
    paper, paper_errors = _constants(obj, n, spectra, Convention.PAPER)
    y_inf = (H @ fixed[..., None])[..., 0] + grids.d_eff
    lead = _dropped_gradient(H, gamma2 * (y_inf - y_ref))
    satisfied, lhs, rhs = _coupling(obj, tight)
    norm_star = _norm(star)
    with np.errstate(divide="ignore", invalid="ignore"):

        def relative(v):  # to ||u*||
            return np.where(norm_star > 0.0, v / norm_star, v)

        cols = dict(coupling_ok=satisfied, coupling_lhs=lhs, coupling_rhs=rhs)
        cols["rel_subopt"] = relative(_norm(star - fixed))
        for consts, name in ((tight, "bound_tight"), (paper, "bound_paper")):
            bound, applicable = _bound(lead, consts.m, satisfied)
            bound = relative(bound)
            cols[f"{name}_rel"] = np.where(np.isfinite(bound), bound, None)  # empty past the range
            cols[f"{name}_applicable"] = applicable
    cols = {key: col.tolist() for key, col in cols.items()}
    lam_max_xi, eta_star, xi_errors = ([None] * len(H) for _ in range(3))
    rows = np.flatnonzero(stable)
    spectra = _xi_spectra(grids.C, grids.H_x[rows], grids.A[rows], sigma_a[rows])
    _, fields, errors = _xi_certificate(
        obj, n, _take(tight, rows), _max_abs_diag(H[rows]), spectra, eta, Convention.TIGHT
    )
    for b, (lam, *_, star, _), error in zip(rows.tolist(), fields, errors):
        lam_max_xi[b], eta_star[b], xi_errors[b] = lam, star, error
    errors = [  # in the order in which the per-instance functions meet them
        next((e for e in row if e is not None), None)
        for row in zip(tight_errors, star_errors, fixed_errors, paper_errors, xi_errors)
    ]
    cols.update(lam_max_xi=lam_max_xi, eta_star=eta_star)
    return [dict(zip(cols, row)) for row in zip(*cols.values())], errors, fixed
