"""Certificate computations against hand-derived and frozen reference values."""

import json
import math
import re
from importlib import resources

import jsonschema
import numpy as np
import numpy.testing as npt
import pytest
from conftest import grid_instance, random_weakly_coupled, reference_instance, static_plant
from oracles import exact_algebraic_eta_limit, monotonicity_gap_test, tracking_inequality_check

import ofonet.analysis as an
import ofonet.equilibria as eq
from ofonet import cli
from ofonet.controller import ControllerConfig, Mode, update_map
from ofonet.equilibria import decentralized_fixed_point, global_optimum
from ofonet.errors import Overflow, _norm
from ofonet.objective import QuadraticObjective
from ofonet.plant import LtiPlant, SensitivityModel, compute_sensitivity
from ofonet.sim import run_algebraic


def test_tight_constants_2x2():
    _, model, obj, _ = reference_instance()
    c = an.monotonicity_constants(obj, model, an.Convention.TIGHT)
    assert c.m == pytest.approx(1.6096, abs=1e-4)
    assert c.c == pytest.approx(0.6404, abs=1e-4)
    assert c.L == pytest.approx(2.6404, abs=1e-4)
    assert c.sigma_min_h == pytest.approx(0.7808, abs=1e-4)
    assert c.sigma_max_h == pytest.approx(1.2808, abs=1e-4)
    assert c.sigma_max_offdiag == pytest.approx(0.5)


def test_paper_constants_scale_by_agent_count():
    _, model, obj, _ = reference_instance()
    tight = an.monotonicity_constants(obj, model, an.Convention.TIGHT)
    paper = an.monotonicity_constants(obj, model, an.Convention.PAPER)
    assert paper.m == pytest.approx(2.0 * tight.m)
    assert paper.c == pytest.approx(2.0 * tight.c)
    assert paper.L == pytest.approx(2.0 * tight.L)


def test_constants_match_singular_values(rng):
    for _ in range(10):
        _, model, obj, _ = random_weakly_coupled(rng)
        c = an.monotonicity_constants(obj, model)
        s = np.linalg.svd(model.H, compute_uv=False)
        off = np.linalg.svd(model.H - np.diag(np.diag(model.H)), compute_uv=False)
        assert c.m == pytest.approx(obj.m_u + s[-1] ** 2 * obj.m_y, rel=1e-12)
        assert c.c == pytest.approx(off[0] * s[0] * obj.L_y, rel=1e-12, abs=1e-15)
        assert c.L == pytest.approx(obj.L_u + s[0] ** 2 * obj.L_y, rel=1e-12)


def _bits(*values):
    return [np.asarray(v, dtype=float).tobytes() for v in values]


def test_diagonal_read_from_h_gives_the_bits_of_a_diagonal_matrix():
    # H holds -0.0 on and off its diagonal: each certificate, the fixed point
    # and the decentralized map equal their formulas on H_d = diag(diag(H))
    h = np.array([[-0.0, 0.2, -0.0], [0.1, 1.5, -0.3], [-0.0, 0.25, 2.0]])
    h_d = np.diag(np.diag(h))
    assert eq._diagonal(h).tobytes() == eq._diagonal(h[None]).tobytes() == h_d.tobytes()
    d = np.array([0.5, -1.0, 0.25])
    plant, _ = static_plant(h, d)
    model = SensitivityModel(H=h, H_x=plant.B)
    obj = QuadraticObjective(gamma1=1.0, gamma2=2.0, y_ref=np.array([1.0, -0.5, 0.0]))
    n, eta = 3, 0.05
    s = eq._svals(h[None])
    spectra = s[..., 0], s[..., -1], eq._svals((h - h_d)[None])[..., 0]
    consts, _ = eq._constants(obj, n, spectra, an.Convention.TIGHT)
    satisfied, lhs, rhs = eq._coupling(obj, consts)
    ok, got_lhs, got_rhs = an.coupling_condition(obj, model)
    assert ok is bool(satisfied[0])
    assert _bits(got_lhs, got_rhs) == _bits(lhs[0], rhs[0])

    u, _ = eq._quadratic_points(1.0, 2.0, obj.y_ref, d[None], h[None], h_d[None], "point")
    point = decentralized_fixed_point(obj, model, d)
    assert _bits(point.u) == _bits(u[0])

    grad = obj.output_gradient(h @ u[0] + d)
    lead = _norm(((h.T - h_d)[None] @ grad[None, :, None])[..., 0])
    bound, applicable = an._bound(lead[0], consts.m[0], satisfied[0])
    got = an.suboptimality_bound(obj, model, d, point.u, eq._take(consts, 0))
    assert (_bits(got.bound), got.applicable) == (_bits(bound), bool(applicable))

    xi_spectra = an._xi_spectra(plant.C, model.H_x[None], plant.A[None])
    sigma_hd = np.abs(np.diag(h_d)).max()[None]
    xi, lam_max, _ = an._xi_certificate(
        obj, n, consts, sigma_hd, xi_spectra, eta, an.Convention.TIGHT
    )
    cert = an.xi_matrix(plant, obj, model, eta)
    assert _bits(cert.lam_max) == _bits(lam_max[0])
    assert _bits(cert.xi[0, 0], cert.xi[0, 1], cert.xi[1, 1]) == _bits(*(x[0] for x in xi))

    cfg = ControllerConfig(Mode.DECENTRALIZED, eta)
    u0, y0 = np.array([-0.0, 1.0, -2.0]), np.array([0.0, -0.0, 3.0])
    expected = u0 - eta * (obj.input_gradient(u0) + np.diag(h_d) * obj.output_gradient(y0))
    assert _bits(update_map(cfg, obj, model)(u0, y0)) == _bits(expected)


def test_coupling_condition_2x2():
    _, model, obj, _ = reference_instance()
    ok, lhs, rhs = an.coupling_condition(obj, model)
    assert ok
    assert lhs == pytest.approx(0.5)
    assert rhs == pytest.approx(1.2567, abs=1e-4)


def test_coupling_condition_is_convention_free():
    # same (satisfied, lhs, rhs) regardless of the constant convention,
    # and equivalent to m > c in either one
    _, model, obj, _ = reference_instance()
    ok, _, _ = an.coupling_condition(obj, model)
    for conv in an.Convention:
        c = an.monotonicity_constants(obj, model, conv)
        assert (c.m > c.c) == ok


def _identity_instance():
    # H = I makes L = m and c = 0: rho = |1 - m eta|, the window (0, 2/m)
    _, model = static_plant(np.eye(3), np.zeros(3))
    return model, QuadraticObjective(gamma1=1.0, gamma2=1.0, y_ref=np.zeros(3))


def _rate_instance(name):
    if name == "identity":
        return _identity_instance()
    if name == "grid":
        return grid_instance()[1:3]
    if name == "reference":
        _, model, obj, _ = reference_instance()
    else:  # random-<seed>
        _, model, obj, _ = random_weakly_coupled(np.random.default_rng(int(name[7:])))
    return model, obj


@pytest.mark.parametrize("convention", list(an.Convention), ids=lambda conv: conv.value)
@pytest.mark.parametrize(
    "name", ["reference", "grid", "identity", *(f"random-{seed}" for seed in range(5))]
)
def test_contraction_rate_window_ends_where_rho_crosses_one(name, convention):
    model, obj = _rate_instance(name)
    c = an.monotonicity_constants(obj, model, convention)
    upper = an.contraction_rate(c, 0.05).eta_upper
    assert upper == pytest.approx(2 * (c.m - c.c) / (c.L**2 - c.c**2), rel=1e-12)
    below = an.contraction_rate(c, upper * (1 - 1e-9))
    above = an.contraction_rate(c, upper * (1 + 1e-9))
    assert below.rho < 1.0 < above.rho
    assert below.admissible and not above.admissible
    for eta in np.logspace(-12, 3, 76):
        eta = float(eta)
        rate = an.contraction_rate(c, eta)
        expected = math.sqrt(1 - 2 * c.m * eta + (c.L * eta) ** 2) + c.c * eta
        assert rate.rho == pytest.approx(expected, rel=1e-12)
        assert math.isfinite(rate.rho)
        assert rate.eta_upper == upper
        assert rate.admissible == (eta < upper)
    for eta in (0.0, -1e-12, -0.5 * upper, -upper):
        assert not an.contraction_rate(c, eta).admissible


def test_eta_upper_is_below_the_exact_algebraic_limit(rng):
    # eta_upper is a certified window end: the decentralized algebraic loop
    # converges at every step below it, so it never exceeds the exact limit
    model, obj = _identity_instance()
    assert exact_algebraic_eta_limit(obj, model) == pytest.approx(1.0, rel=1e-12)
    assert an.contraction_rate(an.monotonicity_constants(obj, model), 0.5).eta_upper == (
        pytest.approx(1.0, rel=1e-12)
    )
    # on the default grid the window ends at 0.6175, the loop diverges above 1.075
    _, model, obj, _ = grid_instance()
    assert exact_algebraic_eta_limit(obj, model) == pytest.approx(1.075, abs=1e-3)
    assert an.contraction_rate(an.monotonicity_constants(obj, model), 0.5).eta_upper == (
        pytest.approx(0.6175, abs=1e-4)
    )
    cases = [_identity_instance(), reference_instance()[1:3]]
    cases += [grid_instance(g)[1:3] for g in cli.FIG4_G_VALUES]
    cases += [random_weakly_coupled(rng)[1:3] for _ in range(50)]
    for model, obj in cases:
        limit = exact_algebraic_eta_limit(obj, model)
        for convention in an.Convention:
            consts = an.monotonicity_constants(obj, model, convention)
            assert an.contraction_rate(consts, 1e-3).eta_upper <= limit * (1 + 1e-12)


def test_contraction_rate_inadmissible_outside_interval():
    _, model, obj, _ = reference_instance()
    c = an.monotonicity_constants(obj, model)
    upper = an.contraction_rate(c, 0.05).eta_upper
    rate = an.contraction_rate(c, upper * 1.01)
    assert not rate.admissible
    assert rate.rho is not None


@pytest.mark.parametrize("eta", [1e155, 1e200, 1.7e308])
def test_certificates_at_an_overflowing_step_raise(eta):
    plant, model, obj, _ = reference_instance()
    consts = an.monotonicity_constants(obj, model)
    with pytest.raises(Overflow, match=re.escape(f"the rate at step size {eta:.6g} leaves")):
        an.contraction_rate(consts, eta)
    with pytest.raises(Overflow, match=re.escape(f"Xi at step size {eta:.6g} leaves")):
        an.xi_matrix(plant, obj, model, eta)


def test_tracking_inequality_2x2():
    _, model, obj, d = reference_instance()
    consts = an.monotonicity_constants(obj, model)
    star = global_optimum(obj, model, d)
    cfg = ControllerConfig(mode=Mode.DECENTRALIZED, eta=0.05)
    traj = run_algebraic(model, obj, d, cfg, steps=500)
    check = tracking_inequality_check(
        traj, obj, model, star.u, star.y, consts, 0.05
    )
    assert check.admissible
    assert check.one_step_ok.all()
    assert check.telescoped_ok.all()
    assert check.bias > 0.0


def test_suboptimality_bound_2x2_tight():
    _, model, obj, d = reference_instance()
    consts = an.monotonicity_constants(obj, model)
    fp = decentralized_fixed_point(obj, model, d)
    sub = an.suboptimality_bound(obj, model, d, fp.u, consts)
    assert sub.applicable
    # lead term ||(H^T - H_diag) grad_y(y_inf)|| = ||(0, 0.1875)||
    assert sub.bound == pytest.approx(0.1875 * math.sqrt(1 / (2 * consts.m - 1)), rel=1e-10)
    assert sub.bound == pytest.approx(0.1259, abs=1e-4)
    star = global_optimum(obj, model, d)
    true_dist = np.linalg.norm(star.u - fp.u)
    assert true_dist == pytest.approx(0.0910, abs=1e-4)
    assert sub.bound >= true_dist


def test_suboptimality_bound_requires_2m_above_one():
    _, model = static_plant(np.eye(2) * 0.1, np.zeros(2))
    obj = QuadraticObjective(gamma1=0.2, gamma2=1.0, y_ref=np.zeros(2))
    consts = an.monotonicity_constants(obj, model)
    assert 2 * consts.m <= 1.0
    sub = an.suboptimality_bound(obj, model, np.zeros(2), np.zeros(2), consts)
    assert math.isinf(sub.bound)
    assert not sub.applicable


SCALAR_XI = np.array([[0.292, 0.115], [0.115, 0.9125]])


def scalar_dynamic_instance():
    plant = LtiPlant(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]], d=[0.0])
    model = compute_sensitivity(plant)
    obj = QuadraticObjective(gamma1=1.0, gamma2=1.0, y_ref=np.zeros(1))
    return plant, model, obj


def test_xi_matrix_scalar_oracle():
    plant, model, obj = scalar_dynamic_instance()
    cert = an.xi_matrix(plant, obj, model, eta=0.01)
    npt.assert_allclose(cert.xi, SCALAR_XI, atol=1e-12)
    assert cert.lam_max == pytest.approx(0.9331277, abs=1e-6)
    assert cert.lam_max < 1.0
    assert cert.t == pytest.approx(0.75)
    assert cert.m_prime == pytest.approx(2 * (5.0 - 0.0))
    assert cert.eta_star == pytest.approx(0.02712934, abs=1e-7)
    assert cert.branch is an.Branch.ETA1


def test_xi_matrix_is_read_only():
    plant, model, obj = scalar_dynamic_instance()
    cert = an.xi_matrix(plant, obj, model, eta=0.01)
    with pytest.raises(ValueError):
        cert.xi[0, 1] = 0.0


def test_eta_star_scalar_boundary():
    plant, model, obj = scalar_dynamic_instance()
    cert = an.xi_matrix(plant, obj, model, eta=0.01)
    star, branch = cert.eta_star, cert.branch
    assert branch is an.Branch.ETA1
    below = an.xi_matrix(plant, obj, model, eta=0.999 * star)
    above = an.xi_matrix(plant, obj, model, eta=1.001 * star)
    assert below.lam_max < 1.0 < above.lam_max


def test_eta_star_capped_by_descent_window():
    plant, model, obj = scalar_dynamic_instance()
    star = an.xi_matrix(plant, obj, model, eta=0.01).eta_star
    # the cap m'/L' = 10/125 sits above the certified root here
    assert star <= 10.0 / 125.0


def test_xi_lam_max_matches_eig(rng):
    from conftest import random_stable_instance

    for _ in range(10):
        plant, model, obj, _ = random_stable_instance(rng)
        star = an.xi_matrix(plant, obj, model, eta=0.0).eta_star
        cert = an.xi_matrix(plant, obj, model, eta=0.9 * star)
        npt.assert_allclose(cert.lam_max, np.linalg.eigvalsh(cert.xi)[-1], atol=1e-12)
        assert cert.lam_max < 1.0


def test_eta_star_absent_when_a_is_not_a_contraction():
    # sigma_max(A) >= 1 > rho(A) with a decoupled H = I: t < 0 leaves no critical step
    a = np.array([[0.2, 1.2], [0.0, 0.2]])
    plant = LtiPlant(A=a, B=np.eye(2) - a, C=np.eye(2), D=np.zeros((2, 2)), d=np.zeros(2))
    model = compute_sensitivity(plant)
    npt.assert_allclose(model.H, np.eye(2), atol=1e-12)
    obj = QuadraticObjective(gamma1=1.0, gamma2=1.0, y_ref=np.zeros(2))
    cert = an.xi_matrix(plant, obj, model, eta=0.05)
    assert cert.t == pytest.approx(-0.519, abs=1e-3)
    assert cert.eta_star is None
    assert cert.branch is None
    report = an.build_report(obj, model, plant.d, 0.05, [0.05], plant)
    assert report["conventions"]["tight"]["lti"]["eta_star"] is None


@pytest.mark.parametrize("instance", ["reference", "grid"])
def test_lti_certificate_holds_no_step_size(instance):
    # the step is the caller's input: the report writes it, the record does not keep it
    plant, model, obj, d = reference_instance() if instance == "reference" else grid_instance()
    cert = an.xi_matrix(plant, obj, model, 0.03)
    assert not hasattr(cert, "eta")
    report = an.build_report(obj, model, d, 0.03, [0.01, 0.05], plant)
    for convention in an.Convention:
        lti = report["conventions"][convention.value]["lti"]
        assert lti["eta"] == 0.03 and type(lti["eta"]) is float, convention


def test_eta_star_second_branch():
    # (m', L', a1, a2, a3, a4, t) = (1, 1, 0, 0, 0, 1, 0.5): a3 m' + 2 a1 a2 - a4 L' = -1
    # selects the linear branch t m' / (a4 m' + a2^2 + t L') = 0.5 / 1.5, below the cap m'/L' = 1
    star, branch = an._eta_star_from_constants(1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.5)
    assert star == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert branch is an.Branch.ETA2


def _coupling_failing_instance(name):
    """(plant, model, obj, d) of an instance whose coupling condition fails."""
    if name.startswith("grid-"):  # the default grid at a low conductance
        return grid_instance(float(name[5:]))
    if name == "upper":  # an off-diagonal entry ten times the diagonal
        plant, model = static_plant(np.array([[1.0, 10.0], [0.0, 1.0]]), np.ones(2))
        return plant, model, QuadraticObjective(1.0, 1.0, np.zeros(2)), plant.d
    rng = np.random.default_rng(int(name[7:]))  # random-<seed>: coupling 3x the diagonal
    n = int(rng.integers(2, 7))
    off = rng.standard_normal((n, n))
    np.fill_diagonal(off, 0.0)
    h = np.diag(rng.uniform(0.8, 1.5, n)) + 3.0 * off
    plant, model = static_plant(h, rng.uniform(-1.0, 1.0, n))
    obj = QuadraticObjective(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(-1, 1, n))
    return plant, model, obj, plant.d


@pytest.mark.parametrize("convention", list(an.Convention), ids=lambda conv: conv.value)
@pytest.mark.parametrize(
    "name", ["upper", "grid-0.1", "grid-0.3", *(f"random-{seed}" for seed in range(5))]
)
def test_failing_coupling_certifies_no_step(name, convention):
    # m <= c: rho >= 1 + (c - m) eta >= 1 and Xi_22 = 1 - m' eta + L' eta^2 >= 1
    # for every positive step, so both windows are empty and nothing raises
    plant, model, obj, d = _coupling_failing_instance(name)
    assert not an.coupling_condition(obj, model)[0]
    consts = an.monotonicity_constants(obj, model, convention)
    assert consts.m <= consts.c
    etas = np.logspace(-6, 2, 41)
    for eta in map(float, etas):
        rate = an.contraction_rate(consts, eta)
        assert rate.rho >= 1.0
        assert not rate.admissible
        assert rate.eta_upper == 0.0
        cert = an.xi_matrix(plant, obj, model, eta, convention)
        assert cert.m_prime <= 0.0
        assert cert.lam_max >= 1.0
        assert cert.eta_star is None and cert.branch is None
    report = an.build_report(obj, model, d, 0.01, etas, plant)
    entry = report["conventions"][convention.value]
    assert not report["coupling"]["satisfied"]
    assert all(not rate["admissible"] for rate in (*entry["rate_table"], entry["rate_at_eta"]))
    assert entry["lti"]["lam_max"] >= 1.0 and entry["lti"]["eta_star"] is None
    schema = resources.files("ofonet") / "schemas" / "analysis_report.schema.json"
    jsonschema.validate(json.loads(cli._dump_json(report)), json.loads(schema.read_text()))


def test_monotonicity_gap_2x2(rng):
    _, model, obj, d = reference_instance()
    consts = an.monotonicity_constants(obj, model)
    gap = monotonicity_gap_test(obj, model, d, consts, trials=1000, rng=rng)
    assert gap >= -1e-10


def test_build_report_structure():
    plant, model, obj, d = reference_instance()
    report = an.build_report(obj, model, d, 0.05, [0.01, 0.05], plant)
    assert report["n"] == 2
    assert report["coupling"]["satisfied"]
    npt.assert_allclose(report["equilibrium"]["u_star"], [-6 / 17, -10 / 17], atol=1e-10)
    for conv in ("tight", "paper"):
        entry = report["conventions"][conv]
        assert len(entry["rate_table"]) == 2
        assert "lti" in entry
        assert entry["lti"]["eta_star"] is None or entry["lti"]["eta_star"] > 0
    # Paper-convention constants are exactly N times the blockwise ones here
    assert report["conventions"]["paper"]["constants"]["m"] == pytest.approx(
        2 * report["conventions"]["tight"]["constants"]["m"]
    )
