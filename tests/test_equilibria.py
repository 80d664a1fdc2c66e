"""Equilibrium solvers checked against the closed-form 2x2 instance."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from conftest import grid_instance, random_weakly_coupled, reference_instance, static_plant
from oracles import best_response_check, exact_pseudo_gradient_modulus, nash_residual
from test_objective import quadratic_as_generic

import ofonet.equilibria as eq
from ofonet.cli import FIG4_G_VALUES
from ofonet.errors import DimensionMismatch, NoConvergence, Overflow, SingularMatrix, _norm
from ofonet.objective import QuadraticObjective
from ofonet.plant import LtiPlant, SensitivityModel, compute_sensitivity

U_STAR = np.array([-6.0 / 17.0, -10.0 / 17.0])
U_INF = np.array([-0.375, -0.5])


def test_svals_cuts_each_slice_of_a_stack_at_its_own_largest_value():
    # 1e-10 lies below SVAL_TOL times its slice's 1e3, 1e-11 above SVAL_TOL
    # times its slice's 1; a cut at the stack's largest value would zero both
    stack = np.array([np.diag([1e3, 1e-10]), np.diag([1.0, 1e-11]), np.zeros((2, 2))])
    s = eq._svals(stack)
    assert s.tolist() == [[1e3, 0.0], [1.0, 1e-11], [0.0, 0.0]]
    for one, row in zip(stack, s):
        assert eq._svals(one).tobytes() == row.tobytes()


def test_quadratic_points_solve_a_stack_and_keep_each_slice_error():
    # a regular slice, one whose fixed-point equations I + H_diag H = I + H
    # are singular, and one whose H_diag H overflows: the stacked solve fails
    # and each slice is solved alone
    H = np.array(
        [[[1.0, 0.5], [0.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]], [[1e200, 0.0], [0.0, 1.0]]]
    )
    y_ref, d = np.zeros((3, 2)), np.ones((3, 2))
    label = "decentralized fixed point"
    u, (none, singular, overflow) = eq._quadratic_points(1.0, 1.0, y_ref, d, H, H * np.eye(2), label)
    alone = eq.decentralized_fixed_point(
        QuadraticObjective(1.0, 1.0, y_ref[0]), SensitivityModel(H=H[0], H_x=np.eye(2)), d[0]
    )
    assert none is None
    assert u[0].tobytes() == alone.u.tobytes()
    assert np.isnan(u[1:]).all()
    assert isinstance(singular, SingularMatrix)
    assert str(singular) == f"{label} equations are singular: Singular matrix"
    assert isinstance(overflow, Overflow)
    assert str(overflow) == f"a coefficient of the {label} equations leaves the floating-point range"


def test_global_optimum_oracle():
    _, model, obj, d = reference_instance()
    sol = eq.global_optimum(obj, model, d)
    npt.assert_allclose(sol.u, U_STAR, atol=1e-10)
    npt.assert_allclose(sol.y, model.H @ U_STAR + d, atol=1e-10)


def test_fixed_point_oracle():
    _, model, obj, d = reference_instance()
    sol = eq.decentralized_fixed_point(obj, model, d)
    npt.assert_allclose(sol.u, U_INF, atol=1e-10)
    assert sol.uniqueness_certified


@pytest.mark.parametrize("solve", [eq.global_optimum, eq.decentralized_fixed_point])
def test_solution_is_read_only(solve):
    _, model, obj, d = reference_instance()
    sol = solve(obj, model, d)
    for arr in (sol.u, sol.y):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("solve", [eq.global_optimum, eq.decentralized_fixed_point])
@pytest.mark.parametrize("n", [1, 3])
def test_solvers_reject_an_objective_of_another_agent_count(solve, n):
    # a one-agent quadratic would broadcast against the two-agent model
    _, model, _, d = reference_instance()
    with pytest.raises(DimensionMismatch, match=f"objective has {n} agents, model has 2"):
        solve(QuadraticObjective(1.0, 1.0, np.zeros(n)), model, d)


def test_nash_residual_at_fixed_point():
    _, model, obj, d = reference_instance()
    assert nash_residual(obj, model, d, U_INF) <= 1e-10


def test_nash_residual_at_origin():
    _, model, obj, d = reference_instance()
    # H_diag = I here, so the pseudo-gradient at u=0 is H_diag d
    assert nash_residual(obj, model, d, np.zeros(2)) == pytest.approx(np.sqrt(2.0))


def test_best_response_at_fixed_point():
    _, model, obj, d = reference_instance()
    for i in range(2):
        assert best_response_check(obj, model, d, U_INF, i, grid_radius=1.0)


def test_best_response_fails_at_optimum():
    _, model, obj, d = reference_instance()
    # u* is not a Nash point of the surrogate game: agent 2 can deviate
    assert not best_response_check(obj, model, d, U_STAR, 1, grid_radius=1.0)


def test_general_path_matches_quadratic(rng):
    for _ in range(5):
        _, model, obj, d = random_weakly_coupled(rng)
        generic = quadratic_as_generic(obj.gamma1, obj.gamma2, obj.y_ref)
        fast = eq.global_optimum(obj, model, d)
        slow = eq.global_optimum(generic, model, d)
        npt.assert_allclose(slow.u, fast.u, atol=1e-7)
        fast_fp = eq.decentralized_fixed_point(obj, model, d)
        slow_fp = eq.decentralized_fixed_point(generic, model, d)
        npt.assert_allclose(slow_fp.u, fast_fp.u, atol=1e-7)


def test_uncertified_fixed_point_flagged():
    h = np.array([[1.0, 10.0], [0.0, 1.0]])  # coupling dominates the diagonal
    _, model = static_plant(h, np.zeros(2))
    obj = QuadraticObjective(gamma1=1.0, gamma2=1.0, y_ref=np.zeros(2))
    sol = eq.decentralized_fixed_point(obj, model, np.array([1.0, 1.0]))
    assert not sol.uniqueness_certified


def test_zero_sensitivity_coupling_has_an_infinite_right_side():
    # H = 0: c = 0 < m = gamma1, and rhs = m / (sigma_max(H) L_y) does not divide by 0
    _, model = static_plant(np.zeros((2, 2)), np.ones(2))
    obj = QuadraticObjective(gamma1=1.0, gamma2=1.0, y_ref=np.zeros(2))
    assert eq.coupling_condition(obj, model) == (True, 0.0, math.inf)
    sol = eq.decentralized_fixed_point(obj, model, np.ones(2))
    assert sol.uniqueness_certified
    npt.assert_array_equal(sol.u, np.zeros(2))


@pytest.mark.parametrize("gain", [1e155, 1e200, 1e308])
def test_overflowing_constants_raise(gain):
    # H is finite, but sigma_max(H)^2 is not
    _, model = static_plant([[gain]], [0.0])
    obj = QuadraticObjective(gamma1=1.0, gamma2=1.0, y_ref=[0.0])
    for convention in eq.Convention:
        with pytest.raises(Overflow, match="a monotonicity constant at sigma_max"):
            eq.monotonicity_constants(obj, model, convention)
    with pytest.raises(Overflow, match="a monotonicity constant at sigma_max"):
        eq.decentralized_fixed_point(obj, model, [0.0])


def _random_coupled(rng, scale):
    """(model, obj) with random-signed diagonal and off-diagonal coupling times ``scale``."""
    n = int(rng.integers(2, 7))
    off = rng.standard_normal((n, n))
    np.fill_diagonal(off, 0.0)
    diag = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.5, n)
    _, model = static_plant(np.diag(diag) + scale * off, np.zeros(n))
    gamma1, gamma2 = rng.uniform(0.1, 2.0, 2)
    return model, QuadraticObjective(gamma1=gamma1, gamma2=gamma2, y_ref=np.zeros(n))


def test_coupling_decision_against_the_exact_modulus(rng):
    # the tight m - c never exceeds the exact modulus lam of the pseudo-gradient,
    # so a satisfied coupling condition (c < m) certifies lam > 0, a unique zero
    cases = [grid_instance(g)[1:3] for g in (0.1, 0.3, *FIG4_G_VALUES)]
    cases += [random_weakly_coupled(rng)[1:3] for _ in range(50)]
    cases += [_random_coupled(rng, scale) for scale in np.logspace(-2, 1, 200)]
    satisfied = 0
    for model, obj in cases:
        lam = exact_pseudo_gradient_modulus(obj, model)
        k = eq.monotonicity_constants(obj, model)
        assert k.m - k.c <= lam + 1e-10 * max(1.0, abs(lam))
        ok = eq.coupling_condition(obj, model)[0]
        assert ok == (k.c < k.m)
        if ok:
            assert lam > 0.0
            satisfied += 1
    # both outcomes occur: the grids at g = 0.1 and 0.3 fail, the weakly coupled pass
    assert 0 < satisfied < len(cases)
    assert not any(eq.coupling_condition(obj, model)[0] for model, obj in cases[:2])


def test_no_convergence_carries_state(monkeypatch):
    _, model, _, d = reference_instance()
    generic = quadratic_as_generic(1.0, 1.0, np.zeros(2))
    monkeypatch.setattr(eq, "MAX_ITER", 3)
    with pytest.raises(NoConvergence) as info:
        eq.global_optimum(generic, model, d)
    assert info.value.iterations == 3
    assert info.value.residual > 0.0


def test_overflowing_residual_square_stops_with_the_norm_and_no_warning():
    # H = 2 and d = 1e300: the gradient at u = 0 is 2e300, finite, but its
    # square overflows; the solver stops at once with the representable norm
    plant = LtiPlant(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]], d=[1e300])
    model = compute_sensitivity(plant)
    generic = quadratic_as_generic(1.0, 1.0, np.zeros(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence) as info:
            eq.global_optimum(generic, model, plant.d)
    assert info.value.iterations == 0
    gradient = eq._gradient(generic, model, model.H, plant.d, np.zeros(1))
    assert info.value.residual == _norm(gradient) == 2e300


def test_solution_residual_reported():
    _, model, obj, d = reference_instance()
    sol = eq.global_optimum(obj, model, d)
    assert sol.residual <= 1e-10
    sol_fp = eq.decentralized_fixed_point(obj, model, d)
    assert sol_fp.residual <= 1e-10


def test_gradient_of_optimum_vanishes(rng):
    # first-order condition: grad_u + H^T grad_y = 0 at u*
    from ofonet.objective import grad_u, grad_y

    for _ in range(5):
        _, model, obj, d = random_weakly_coupled(rng)
        sol = eq.global_optimum(obj, model, d)
        y = model.H @ sol.u + d
        full = grad_u(obj, sol.u) + model.H.T @ grad_y(obj, y)
        assert np.linalg.norm(full) <= 1e-8
