"""One-step update maps of the gradient feedback controllers.

The centralized update descends along the true steady-state sensitivity,

    u+ = u - eta (grad_u(u) + H^T grad_y(y)),

while the decentralized one replaces H by its diagonal, so each agent
only needs its own measurement and self-sensitivity:

    u_i+ = u_i - eta (dphi_i1(u_i) + H_ii dphi_i2(y_i)).

Both are one formula, u+ = u - eta (grad_u(u) + G^T grad_y(y)) with
G = H or G = diag(H), built once per run by ``update_map``.  It consumes
the measured output y and never recomputes it from u, so the same map
serves the algebraic and the dynamic closed loop.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionMismatch, as_vector
from .objective import QuadraticObjective, SeparableObjective
from .plant import SensitivityModel

__all__ = ["Mode", "ControllerConfig", "centralized_step", "decentralized_step"]


class Mode(enum.Enum):
    CENTRALIZED = "centralized"
    DECENTRALIZED = "decentralized"


@dataclass(frozen=True)
class ControllerConfig:
    mode: Mode
    eta: float

    def __post_init__(self):
        if not isinstance(self.mode, Mode):
            raise ValueError(f"mode must be a Mode member, got {self.mode!r}")
        if not (self.eta > 0.0 and np.isfinite(self.eta)):
            raise ValueError(f"step size must be positive and finite, got {self.eta}")


def update_map(
    cfg: ControllerConfig, obj: SeparableObjective, model: SensitivityModel
) -> Callable[..., NDArray[np.float64]]:
    """The update u, y -> u - eta (grad_u(u) + G^T grad_y(y)) of ``cfg.mode``.

    Package-internal: the step functions and the closed loops in ``sim``
    all apply this one map.  G and the gradient form are fixed here,
    once per run: G^T is H^T (centralized) or the elementwise product
    with diag(H) (decentralized), where component i reads only
    (u_i, y_i, H_ii).  The returned map does no validation; it expects
    float vectors of length ``model.n``.

    ``update(u, y, out=None)`` writes u+ into ``out`` and returns it;
    without ``out`` it returns a fresh array.  Its temporaries live in three
    length-n buffers allocated here, once per map: a quadratic objective's
    two gradients (a subclass's gradients are not given them), and s, which
    takes G^T grad_y(y), then s = grad_u(u) + G^T grad_y(y), then eta * s.
    u - eta * s goes into ``out``: the formula's operands in its order, so
    its bits.  No buffer leaves the map, and it writes into no array but
    its buffers and ``out``, since an objective may return its argument or
    a cached array.
    """
    if obj.n != model.n:
        raise DimensionMismatch(f"objective has {obj.n} agents, model has {model.n}")
    n = model.n
    eta = np.full(n, cfg.eta, dtype=float)
    grad_u, grad_y = obj.input_gradient, obj.output_gradient
    if type(obj) not in (SeparableObjective, QuadraticObjective):
        # a subclass may override a gradient with one that takes no ``out``
        grad_u, grad_y = _ignoring_out(grad_u), _ignoring_out(grad_y)
    if cfg.mode is Mode.CENTRALIZED:
        apply_gt = model.H.T.dot
    else:
        apply_gt = functools.partial(np.multiply, model.H.diagonal())
    add, multiply, subtract = np.add, np.multiply, np.subtract
    gu, gy, s = np.empty(n), np.empty(n), np.empty(n)

    def update(u, y, out=None):
        add(grad_u(u, gu), apply_gt(grad_y(y, gy), s), s)
        multiply(eta, s, s)
        return subtract(u, s, out)

    return update


def _ignoring_out(gradient):
    return lambda v, out: gradient(v)


def _step(cfg, expected: Mode, obj, model, u, y) -> NDArray[np.float64]:
    if cfg.mode is not expected:
        raise ValueError(f"config mode is {cfg.mode}, expected {expected.name}")
    n = model.n
    return update_map(cfg, obj, model)(as_vector(u, n, "u"), as_vector(y, n, "y"))


def centralized_step(
    cfg: ControllerConfig,
    obj: SeparableObjective,
    model: SensitivityModel,
    u,
    y,
) -> NDArray[np.float64]:
    """Full-information update using the complete sensitivity H."""
    return _step(cfg, Mode.CENTRALIZED, obj, model, u, y)


def decentralized_step(
    cfg: ControllerConfig,
    obj: SeparableObjective,
    model: SensitivityModel,
    u,
    y,
) -> NDArray[np.float64]:
    """Communication-free update using only the diagonal of H."""
    return _step(cfg, Mode.DECENTRALIZED, obj, model, u, y)
