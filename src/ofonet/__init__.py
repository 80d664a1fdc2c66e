"""Closed-loop feedback optimization of networked LTI systems.

The package simulates gradient feedback controllers driving a discrete
linear plant to an optimal steady state, in both a centralized variant
(full sensitivity) and a decentralized one (diagonal sensitivity, one
agent per channel), and computes the certificates that govern them:
contraction rates and step-size windows, coupling conditions, distance
bounds between the decentralized fixed point and the true optimum, and
linear convergence rates for the full plant-controller interconnection.
A DC power-grid case study exercises everything end to end.

Modules
-------
plant       discrete LTI plants and steady-state sensitivities
objective   separable agent costs and their gradients
controller  centralized and decentralized gradient feedback steps
equilibria  global optimum, decentralized fixed point, coupling condition
analysis    certificates: rates, step-size windows, distance bounds
sim         closed-loop execution, error metrics, CSV export
powergrid   DC-grid case study and conductance sweeps
cli         command-line interface (``ofo``)
"""

from .analysis import (
    Convention,
    contraction_rate,
    coupling_condition,
    monotonicity_constants,
    suboptimality_bound,
    xi_matrix,
)
from .controller import ControllerConfig, Mode
from .equilibria import decentralized_fixed_point, global_optimum
from .errors import OfonetError
from .objective import QuadraticObjective, SeparableObjective
from .plant import LtiPlant, SensitivityModel, compute_sensitivity
from .sim import Trajectory, metrics, run_algebraic, run_lti

__version__ = "0.1.0"

__all__ = [
    "Convention",
    "ControllerConfig",
    "LtiPlant",
    "Mode",
    "OfonetError",
    "QuadraticObjective",
    "SensitivityModel",
    "SeparableObjective",
    "Trajectory",
    "compute_sensitivity",
    "contraction_rate",
    "coupling_condition",
    "decentralized_fixed_point",
    "global_optimum",
    "metrics",
    "monotonicity_constants",
    "run_algebraic",
    "run_lti",
    "suboptimality_bound",
    "xi_matrix",
    "__version__",
]
