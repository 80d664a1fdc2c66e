import math

import numpy as np
import numpy.testing as npt
import pytest
from conftest import logcosh_objective, scalar_gradients, static_plant
from hypothesis import given, settings
from hypothesis import strategies as st

from ofonet.controller import (
    ControllerConfig,
    Mode,
    centralized_step,
    decentralized_step,
    update_map,
)
from ofonet.objective import QuadraticObjective, SeparableObjective


def unit_objective(n):
    return QuadraticObjective(gamma1=1.0, gamma2=1.0, y_ref=np.zeros(n))


def test_centralized_scalar_oracle():
    _, model = static_plant([[2.0]], [0.0])
    cfg = ControllerConfig(mode=Mode.CENTRALIZED, eta=0.1)
    out = centralized_step(cfg, unit_objective(1), model, np.array([1.0]), np.array([2.0]))
    npt.assert_allclose(out, [0.5])


def test_centralized_2x2_oracle():
    _, model = static_plant([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])
    cfg = ControllerConfig(mode=Mode.CENTRALIZED, eta=0.1)
    out = centralized_step(
        cfg, unit_objective(2), model, np.array([1.0, 1.0]), np.array([1.5, 1.0])
    )
    npt.assert_allclose(out, [0.75, 0.725])


def test_decentralized_scalar_coincides_with_centralized():
    _, model = static_plant([[2.0]], [0.0])
    cfg = ControllerConfig(mode=Mode.DECENTRALIZED, eta=0.1)
    out = decentralized_step(cfg, unit_objective(1), model, np.array([1.0]), np.array([2.0]))
    npt.assert_allclose(out, [0.5])


def test_decentralized_2x2_oracle():
    _, model = static_plant([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])
    cfg = ControllerConfig(mode=Mode.DECENTRALIZED, eta=0.1)
    out = decentralized_step(
        cfg, unit_objective(2), model, np.array([1.0, 1.0]), np.array([1.5, 1.0])
    )
    npt.assert_allclose(out, [0.75, 0.8])


def test_mode_mismatch_rejected():
    _, model = static_plant([[2.0]], [0.0])
    cen = ControllerConfig(mode=Mode.CENTRALIZED, eta=0.1)
    dec = ControllerConfig(mode=Mode.DECENTRALIZED, eta=0.1)
    u, y = np.array([1.0]), np.array([2.0])
    with pytest.raises(ValueError):
        centralized_step(dec, unit_objective(1), model, u, y)
    with pytest.raises(ValueError):
        decentralized_step(cen, unit_objective(1), model, u, y)


def test_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(mode=Mode.CENTRALIZED, eta=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(mode=Mode.CENTRALIZED, eta=-0.1)
    with pytest.raises(ValueError):
        ControllerConfig(mode=Mode.DECENTRALIZED, eta=float("inf"))


def test_decentralized_ignores_off_diagonal(rng):
    # the decentralized update may depend on H only through its diagonal
    diag = np.diag(rng.uniform(0.5, 2.0, 4))
    off = rng.standard_normal((4, 4))
    np.fill_diagonal(off, 0.0)
    _, model_a = static_plant(diag, np.zeros(4))
    _, model_b = static_plant(diag + off, np.zeros(4))
    cfg = ControllerConfig(mode=Mode.DECENTRALIZED, eta=0.07)
    obj = unit_objective(4)
    u = rng.standard_normal(4)
    y = rng.standard_normal(4)
    npt.assert_allclose(
        decentralized_step(cfg, obj, model_a, u, y),
        decentralized_step(cfg, obj, model_b, u, y),
        atol=1e-15,
    )


def test_steps_agree_when_h_diagonal(rng):
    h = np.diag(rng.uniform(0.5, 2.0, 3))
    _, model = static_plant(h, np.zeros(3))
    obj = unit_objective(3)
    u = rng.standard_normal(3)
    y = rng.standard_normal(3)
    cen = centralized_step(
        ControllerConfig(mode=Mode.CENTRALIZED, eta=0.05), obj, model, u, y
    )
    dec = decentralized_step(
        ControllerConfig(mode=Mode.DECENTRALIZED, eta=0.05), obj, model, u, y
    )
    npt.assert_allclose(cen, dec, atol=1e-15)


def log_cosh_objective(n):
    """Non-quadratic separable objective with per-agent offsets."""
    input_costs = tuple(
        (
            lambda a, c=0.3 * i: 0.5 * a * a + math.log(math.cosh(a - c)),
            lambda a, c=0.3 * i: a + math.tanh(a - c),
        )
        for i in range(n)
    )
    output_costs = tuple(
        (
            lambda b, r=0.1 * i - 0.2: math.log(math.cosh(b - r)) + 0.25 * (b - r) ** 2,
            lambda b, r=0.1 * i - 0.2: math.tanh(b - r) + 0.5 * (b - r),
        )
        for i in range(n)
    )
    return SeparableObjective(input_costs, output_costs, 2.0, 1.0, 1.5, 0.5)


def per_agent_step(cfg, obj, model, u, y):
    """Agent-wise decentralized update: component i reads only (u_i, y_i, H_ii)."""
    h_ii = np.diag(model.H)
    out = np.empty(model.n)
    for i in range(model.n):
        dphi1 = obj.input_costs[i][1]
        dphi2 = obj.output_costs[i][1]
        out[i] = u[i] - cfg.eta * (dphi1(float(u[i])) + h_ii[i] * dphi2(float(y[i])))
    return out


@pytest.mark.parametrize(
    "make_obj",
    [log_cosh_objective, lambda n: QuadraticObjective(0.7, 1.3, np.linspace(-1.0, 1.0, n))],
    ids=["callable", "quadratic"],
)
def test_decentralized_step_matches_per_agent_bit_for_bit(rng, make_obj):
    n = 5
    h = np.diag(rng.uniform(0.5, 2.0, n)) + 0.2 * rng.standard_normal((n, n))
    _, model = static_plant(h, np.zeros(n))
    obj = make_obj(n)
    cfg = ControllerConfig(mode=Mode.DECENTRALIZED, eta=0.037)
    for _ in range(20):
        u = rng.standard_normal(n)
        y = rng.standard_normal(n)
        expected = per_agent_step(cfg, obj, model, u, y)
        assert decentralized_step(cfg, obj, model, u, y).tobytes() == expected.tobytes()


# bit patterns weighted in beside the uniform ones: +-0, subnormals, the
# smallest normal, values whose products overflow, inf and nan
_SPECIAL = (0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e308, -3e307)
_SPECIAL_BITS = [
    int(np.float64(v).view(np.uint64)) for v in _SPECIAL + (math.inf, -math.inf, math.nan)
]


def _vectors(n):
    """Float64 vectors of length n drawn from raw bit patterns."""
    bits = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(_SPECIAL_BITS))
    return st.lists(bits, min_size=n, max_size=n).map(
        lambda b: np.array(b, dtype=np.uint64).view(np.float64)
    )


_H = np.array(
    [
        [2.5, -0.4, 0.0, 1e-3, 0.3],
        [0.7, -1.5, 0.2, 0.0, -2.0],
        [0.0, 0.1, 0.9, -0.6, 0.0],
        [-3.0, 0.0, 0.5, 1.25, 0.4],
        [0.2, 0.8, 0.0, -0.1, -0.75],
    ]
)
_OBJECTIVES = {
    "quadratic": lambda n: QuadraticObjective(1.3, 2.5, np.linspace(-1.0, 1.0, n)),
    "shared": logcosh_objective,
    "closures": lambda n: logcosh_objective(n, shared=False),
}


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("name", list(_OBJECTIVES))
@settings(max_examples=150, deadline=None)
@given(u=_vectors(5), y=_vectors(5))
def test_update_map_matches_the_scalar_form_bit_for_bit(mode, name, u, y):
    # the in-place update and the one-pass gradients give the bits of
    # u - eta (grad_u(u) + G^T grad_y(y)) with a Python-float step size and
    # scalar-form gradients, nan payloads and signed zeros included
    _, model = static_plant(_H, np.zeros(5))
    obj = _OBJECTIVES[name](5)
    cfg = ControllerConfig(mode=mode, eta=0.3)
    grad_u, grad_y = scalar_gradients(obj)
    h = np.diag(model.H)
    apply_gt = model.H.T.dot if mode is Mode.CENTRALIZED else h.__mul__
    u_bits, y_bits = u.tobytes(), y.tobytes()
    with np.errstate(all="ignore"):
        assert obj.input_gradient(u).tobytes() == grad_u(u).tobytes()
        assert obj.output_gradient(y).tobytes() == grad_y(y).tobytes()
        expected = u - cfg.eta * (grad_u(u) + apply_gt(grad_y(y)))
        assert update_map(cfg, obj, model)(u, y).tobytes() == expected.tobytes()
    assert (u.tobytes(), y.tobytes()) == (u_bits, y_bits)
