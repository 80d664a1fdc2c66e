import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import value

from ofonet.objective import QuadraticObjective, SeparableObjective, grad_u, grad_y


def quadratic_as_generic(gamma1, gamma2, y_ref):
    """Same quadratic costs routed through the per-agent callable path."""
    n = len(y_ref)
    input_costs = tuple(
        (lambda v, g=gamma1: 0.5 * g * v * v, lambda v, g=gamma1: g * v)
        for _ in range(n)
    )
    output_costs = tuple(
        (
            lambda v, g=gamma2, r=float(y_ref[i]): 0.5 * g * (v - r) ** 2,
            lambda v, g=gamma2, r=float(y_ref[i]): g * (v - r),
        )
        for i in range(n)
    )
    return SeparableObjective(
        input_costs=input_costs,
        output_costs=output_costs,
        L_u=gamma1,
        m_u=gamma1,
        L_y=gamma2,
        m_y=gamma2,
    )


def test_identity_gradient_oracle():
    obj = QuadraticObjective(gamma1=1.0, gamma2=1.0, y_ref=np.zeros(2))
    npt.assert_allclose(grad_y(obj, np.array([0.375, 0.5])), [0.375, 0.5])


def test_quadratic_gradients_and_value():
    y_ref = np.array([1.0, -1.0, 0.5])
    obj = QuadraticObjective(gamma1=2.0, gamma2=0.5, y_ref=y_ref)
    u = np.array([1.0, 2.0, 3.0])
    y = np.array([0.0, 1.0, 2.0])
    npt.assert_allclose(grad_u(obj, u), 2.0 * u)
    npt.assert_allclose(grad_y(obj, y), 0.5 * (y - y_ref))
    expected = 0.5 * (2.0 * u @ u + 0.5 * (y - y_ref) @ (y - y_ref))
    assert value(obj, u, y) == pytest.approx(expected)


def test_quadratic_moduli():
    obj = QuadraticObjective(gamma1=2.0, gamma2=0.5, y_ref=np.zeros(4))
    assert (obj.L_u, obj.m_u, obj.L_y, obj.m_y) == (2.0, 2.0, 0.5, 0.5)
    assert obj.n == 4


def test_generic_path_matches_vectorized(rng):
    y_ref = rng.standard_normal(5)
    fast = QuadraticObjective(gamma1=1.3, gamma2=0.7, y_ref=y_ref)
    slow = quadratic_as_generic(1.3, 0.7, y_ref)
    for _ in range(20):
        u = rng.standard_normal(5)
        y = rng.standard_normal(5)
        npt.assert_allclose(grad_u(slow, u), grad_u(fast, u), atol=1e-12)
        npt.assert_allclose(grad_y(slow, y), grad_y(fast, y), atol=1e-12)
        assert value(slow, u, y) == pytest.approx(value(fast, u, y), abs=1e-12)


def test_gradients_match_finite_differences(rng):
    y_ref = rng.standard_normal(3)
    obj = QuadraticObjective(gamma1=0.9, gamma2=1.4, y_ref=y_ref)
    h = 1e-6
    for _ in range(10):
        u = rng.standard_normal(3)
        y = rng.standard_normal(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd_u = (value(obj, u + e, y) - value(obj, u - e, y)) / (2 * h)
            fd_y = (value(obj, u, y + e) - value(obj, u, y - e)) / (2 * h)
            assert grad_u(obj, u)[i] == pytest.approx(fd_u, rel=1e-6, abs=1e-8)
            assert grad_y(obj, y)[i] == pytest.approx(fd_y, rel=1e-6, abs=1e-8)


def test_invalid_moduli_rejected():
    costs = ((lambda v: v, lambda v: 1.0),)
    with pytest.raises(ValueError):
        SeparableObjective(costs, costs, L_u=1.0, m_u=2.0, L_y=1.0, m_y=1.0)
    with pytest.raises(ValueError):
        SeparableObjective(costs, costs, L_u=1.0, m_u=0.0, L_y=1.0, m_y=1.0)
    with pytest.raises(ValueError):
        QuadraticObjective(gamma1=-1.0, gamma2=1.0, y_ref=np.zeros(2))


def test_agent_count_mismatch_rejected():
    from ofonet.errors import DimensionMismatch

    costs = ((lambda v: v, lambda v: 1.0),)
    with pytest.raises(DimensionMismatch):
        SeparableObjective(costs, costs * 2, L_u=1.0, m_u=1.0, L_y=1.0, m_y=1.0)


def test_gradient_shape_check():
    from ofonet.errors import DimensionMismatch

    obj = QuadraticObjective(gamma1=1.0, gamma2=1.0, y_ref=np.zeros(2))
    with pytest.raises(DimensionMismatch):
        grad_u(obj, np.zeros(3))
    with pytest.raises(DimensionMismatch):
        grad_y(obj, np.zeros(1))


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.integers(-(2**62), 2**62), st.booleans(), st.floats()), min_size=1, max_size=6
    ),
    shared=st.booleans(),
)
def test_int_and_bool_derivatives_give_the_floats_of_a_list(values, shared):
    # the gradient takes each derivative's value as a float: an int or a bool
    # gives the float that the array of the list of values holds once promoted
    n = len(values)
    if shared:  # one derivative, read at v = i for agent i
        costs = ((lambda v: 0.0, lambda v: values[int(v)]),) * n
    else:
        costs = tuple((lambda v: 0.0, lambda v, r=r: r) for r in values)
    obj = SeparableObjective(costs, costs, 1.0, 1.0, 1.0, 1.0)
    as_list = np.array(values).astype(float)
    v = np.arange(n, dtype=float)
    assert grad_u(obj, v).tobytes() == as_list.tobytes()
    assert grad_y(obj, v).tobytes() == as_list.tobytes()


def _half_square(v):
    return 0.5 * v * v


@pytest.mark.parametrize("side", ["input", "output"])
@pytest.mark.parametrize(
    "bad",
    [_half_square, (_half_square,), (_half_square,) * 3, (_half_square, 1.0), None, "ab"],
    ids=["bare", "single", "triple", "derivative-not-callable", "none", "string"],
)
def test_malformed_cost_raises_naming_side_and_agent(side, bad):
    good = ((_half_square, lambda v: v),) * 3
    costs = {"input": good, "output": good, side: good[:2] + (bad,)}
    with pytest.raises(TypeError, match=f"^{side} cost of agent 2 is not a"):
        SeparableObjective(costs["input"], costs["output"], 1.0, 1.0, 1.0, 1.0)
