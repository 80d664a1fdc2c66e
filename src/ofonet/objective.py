"""Separable per-agent objectives with declared smoothness and convexity moduli.

Each agent i carries an input cost phi_i1(u_i) and an output cost
phi_i2(y_i); the global objective is the sum over agents.  The moduli
(L_u, m_u, L_y, m_y) are declared by the caller and bound every agent.
The library checks only 0 < m <= L for each pair and never infers them,
since inference from point evaluations is ill-posed; the sampled check
of the monotonicity they imply lives in ``tests/oracles.py``.

The pairs are unpacked once, at construction: a gradient is one ``map``
over the derivatives, each result taken as a float.  A quadratic holds its
weights as length-n vectors, which round as the scalar weights do.

The gradient methods take an optional ``out``: a quadratic writes its
gradient into it, which spares a closed loop one array per gradient and
step; a callable objective ignores it.  Whoever passes ``out`` uses the
returned array.  Without ``out`` each call returns a fresh array, as
``grad_u`` and ``grad_y`` do.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionMismatch, as_vector

__all__ = [
    "ScalarCost",
    "SeparableObjective",
    "QuadraticObjective",
    "grad_u",
    "grad_y",
]

# A scalar cost is a (value, derivative) pair of callables float -> float.
ScalarCost = tuple[Callable[[float], float], Callable[[float], float]]

# operator.call is new in Python 3.11; the shim makes the same calls in the same order
_call = getattr(operator, "call", lambda df, v: df(v))


def _derivatives(costs, side: str) -> tuple:
    """The derivatives of ``costs``, one per agent, checked to be callable."""
    dfs = []
    for i, pair in enumerate(costs):
        df = pair[1] if isinstance(pair, (tuple, list)) and len(pair) == 2 else None
        if not callable(df):
            raise TypeError(f"{side} cost of agent {i} is not a (value, callable derivative) pair")
        dfs.append(df)
    return tuple(dfs)


@dataclass(frozen=True)
class SeparableObjective:
    """Sum of per-agent input and output costs.

    Attributes
    ----------
    input_costs : tuple of (callable, callable)
        Per-agent (phi_i1, dphi_i1) pairs.
    output_costs : tuple of (callable, callable)
        Per-agent (phi_i2, dphi_i2) pairs.
    L_u, m_u : float
        Smoothness and strong-convexity moduli bounding every input cost.
    L_y, m_y : float
        Same for the output costs.

    A subclass, of this class or of ``QuadraticObjective``, may override
    ``input_gradient`` and ``output_gradient`` with methods that take no
    ``out``: the closed loop passes ``out`` only to these two classes' own
    methods, calls a subclass's gradients with the vector alone
    (``controller.update_map`` wraps them) and uses the array they return.
    """

    input_costs: tuple[ScalarCost, ...]
    output_costs: tuple[ScalarCost, ...]
    L_u: float
    m_u: float
    L_y: float
    m_y: float

    def __post_init__(self):
        if len(self.input_costs) != len(self.output_costs):
            raise DimensionMismatch(
                f"{len(self.input_costs)} input costs vs "
                f"{len(self.output_costs)} output costs"
            )
        if len(self.input_costs) == 0:
            raise DimensionMismatch("objective needs at least one agent")
        if not (0.0 < self.m_u <= self.L_u):
            raise ValueError(f"need 0 < m_u <= L_u, got m_u={self.m_u}, L_u={self.L_u}")
        if not (0.0 < self.m_y <= self.L_y):
            raise ValueError(f"need 0 < m_y <= L_y, got m_y={self.m_y}, L_y={self.L_y}")
        object.__setattr__(self, "_input_dfs", _derivatives(self.input_costs, "input"))
        object.__setattr__(self, "_output_dfs", _derivatives(self.output_costs, "output"))

    @property
    def n(self) -> int:
        """Number of agents."""
        return len(self.input_costs)

    # The unchecked methods take float vectors of length n; grad_u and grad_y
    # check the length first, a closed loop checks once per run.
    # ``out`` is ignored here: np.fromiter makes the array
    def input_gradient(self, u: NDArray[np.float64], out=None) -> NDArray[np.float64]:
        """Unchecked grad_u: component i is dphi_i1(u_i)."""
        return np.fromiter(map(_call, self._input_dfs, u.tolist()), float, len(u))

    def output_gradient(self, y: NDArray[np.float64], out=None) -> NDArray[np.float64]:
        """Unchecked grad_y: component i is dphi_i2(y_i)."""
        return np.fromiter(map(_call, self._output_dfs, y.tolist()), float, len(y))


class QuadraticObjective(SeparableObjective):
    """Quadratic tracking objective 0.5 (gamma1 ||u||^2 + gamma2 ||y - y_ref||^2).

    The per-agent moduli collapse to L_u = m_u = gamma1 and
    L_y = m_y = gamma2, so every certificate is tight for this family.
    Its gradients write into ``out`` when given one (a closed loop passes
    buffers it owns) and return it; without one they return a fresh array.
    """

    gamma1: float
    gamma2: float
    y_ref: NDArray[np.float64]

    def __init__(self, gamma1: float, gamma2: float, y_ref):
        gamma1 = float(gamma1)
        gamma2 = float(gamma2)
        if not (gamma1 > 0.0 and gamma2 > 0.0):
            raise ValueError(f"weights must be positive, got ({gamma1}, {gamma2})")
        y_ref = np.asarray(y_ref, dtype=float)
        if y_ref.ndim != 1 or y_ref.size == 0:
            raise DimensionMismatch("y_ref must be a nonempty vector")
        if not np.all(np.isfinite(y_ref)):
            raise ValueError("y_ref contains non-finite entries")
        input_costs = tuple(
            (
                lambda a, g=gamma1: 0.5 * g * a * a,
                lambda a, g=gamma1: g * a,
            )
            for _ in range(y_ref.size)
        )
        output_costs = tuple(
            (
                lambda b, g=gamma2, r=float(ri): 0.5 * g * (b - r) ** 2,
                lambda b, g=gamma2, r=float(ri): g * (b - r),
            )
            for ri in y_ref
        )
        super().__init__(input_costs, output_costs, gamma1, gamma1, gamma2, gamma2)
        y_ref = y_ref.copy()
        y_ref.setflags(write=False)
        object.__setattr__(self, "gamma1", gamma1)
        object.__setattr__(self, "gamma2", gamma2)
        object.__setattr__(self, "y_ref", y_ref)
        object.__setattr__(self, "_gamma1", np.full(y_ref.size, gamma1))
        object.__setattr__(self, "_gamma2", np.full(y_ref.size, gamma2))

    def __post_init__(self):
        """Nothing to check or unpack: __init__ checks the weights, the gradients skip the pairs."""

    def input_gradient(self, u: NDArray[np.float64], out=None) -> NDArray[np.float64]:
        return np.multiply(self._gamma1, u, out)

    def output_gradient(self, y: NDArray[np.float64], out=None) -> NDArray[np.float64]:
        e = np.subtract(y, self.y_ref, out)
        return np.multiply(self._gamma2, e, e)


def grad_u(obj: SeparableObjective, u) -> NDArray[np.float64]:
    """Gradient of the summed input cost; component i is dphi_i1(u_i)."""
    return obj.input_gradient(as_vector(u, obj.n, "u"))


def grad_y(obj: SeparableObjective, y) -> NDArray[np.float64]:
    """Gradient of the summed output cost; component i is dphi_i2(y_i)."""
    return obj.output_gradient(as_vector(y, obj.n, "y"))
