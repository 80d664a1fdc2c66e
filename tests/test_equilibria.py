"""Equilibrium solvers checked against the closed-form 2x2 instance."""

import numpy as np
import numpy.testing as npt
import pytest
from conftest import random_weakly_coupled, reference_instance, static_plant
from oracles import best_response_check, nash_residual
from test_objective import quadratic_as_generic

import ofonet.equilibria as eq
from ofonet.errors import DimensionMismatch, NoConvergence
from ofonet.objective import QuadraticObjective

U_STAR = np.array([-6.0 / 17.0, -10.0 / 17.0])
U_INF = np.array([-0.375, -0.5])


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


def test_no_convergence_carries_state(monkeypatch):
    _, model, _, d = reference_instance()
    generic = quadratic_as_generic(1.0, 1.0, np.zeros(2))
    monkeypatch.setattr(eq, "MAX_ITER", 3)
    with pytest.raises(NoConvergence) as info:
        eq.global_optimum(generic, model, d)
    assert info.value.iterations == 3
    assert info.value.residual > 0.0


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
