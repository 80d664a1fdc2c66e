"""Shared builders for the test suite.

The static-plant construction (A = 0, B = H, C = I, D = 0) realizes any
prescribed sensitivity H exactly, so algebraic-level facts can be tested
through the same code path as dynamic ones.
"""

import contextlib
import os
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

from ofonet import powergrid
from ofonet.analysis import coupling_condition
from ofonet.objective import QuadraticObjective, SeparableObjective
from ofonet.plant import LtiPlant, compute_sensitivity, sensitivity

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import bench_inputs  # noqa: E402

REF_H = np.array([[1.0, 0.5], [0.0, 1.0]])
REF_D = np.array([1.0, 1.0])


def static_plant(h, d):
    """Plant with sensitivity exactly h: one integrator-free state per node."""
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    plant = LtiPlant(
        A=np.zeros((n, n)),
        B=h,
        C=np.eye(n),
        D=np.zeros((n, n)),
        d=np.asarray(d, dtype=float),
    )
    return plant, compute_sensitivity(plant)


def logcosh_objective(n, shared=True):
    """perfbench's non-quadratic objective (generic-n64's): every agent holds
    the same two pairs, or, unless ``shared``, agent i its own closures over
    them, shifted by 0.1 i, which keeps the moduli."""
    obj = bench_inputs.logcosh_objective(n)
    if shared:
        return obj

    def shifted(costs):
        return tuple(
            (lambda v, f=f, c=0.1 * i: f(v - c), lambda v, df=df, c=0.1 * i: df(v - c))
            for i, (f, df) in enumerate(costs)
        )

    return SeparableObjective(
        shifted(obj.input_costs), shifted(obj.output_costs), obj.L_u, obj.m_u, obj.L_y, obj.m_y
    )


def scalar_gradients(obj):
    """grad_u and grad_y written out: a quadratic's with its Python-float weights,
    gamma1 * u and gamma2 * (y - y_ref), a callable objective's one agent at a
    time into a list."""
    if isinstance(obj, QuadraticObjective):
        return (lambda u: obj.gamma1 * u), (lambda y: obj.gamma2 * (y - obj.y_ref))

    def per_agent(costs):
        return lambda v: np.array([df(vi) for (_, df), vi in zip(costs, v.tolist())])

    return per_agent(obj.input_costs), per_agent(obj.output_costs)


def reference_instance():
    """The 2x2 upper-triangular coupling instance used throughout."""
    plant, model = static_plant(REF_H, REF_D)
    obj = QuadraticObjective(gamma1=1.0, gamma2=1.0, y_ref=np.zeros(2))
    return plant, model, obj, REF_D.copy()


def grid_row(spec):
    """``spec`` discretized one instance at a time, as (plant, model, d_eff, radius).

    The row's ``_raw_matrices`` slice goes through ``sensitivity`` and
    ``LtiPlant``, none of the sweep's stacked steps: plant is None and
    radius the spectral radius where ``LtiPlant`` rejects A_d as unstable,
    radius is None otherwise.  A singular (I - A_d) raises SingularMatrix.
    """
    (a_d,), b_d, c_d = powergrid._raw_matrices(spec, spec.g_node[None])
    d_d = np.zeros((spec.n_nodes, spec.n_nodes))
    model = sensitivity(a_d, b_d, c_d, d_d)
    d_eff = model.H @ (spec.i_star - spec.delta_i) + spec.d_meas
    try:
        return LtiPlant(A=a_d, B=b_d, C=c_d, D=d_d, d=d_eff), model, d_eff, None
    except ValueError as exc:
        return None, model, d_eff, exc.spectral_radius


def grid_instance(g=1.0):
    """The default grid with every node conductance g, as (plant, model, obj, d).

    The sensitivity exists for every g > 0, also where the Euler step
    leaves the grid unstable (g >= 50, plant None), as in the fig4 sweep.
    """
    spec = powergrid.GridSpec(g_node=np.full(8, float(g)))
    plant, model, d, _ = grid_row(spec)
    return plant, model, powergrid.grid_objective(spec, model), d


def random_weakly_coupled(rng, n=None, gamma2_max=2.0):
    """Random instance satisfying the diagonal-dominance condition.

    Off-diagonal coupling is halved until the condition holds with a 20%
    margin, which always terminates because the left side scales linearly
    with the coupling while the right side stays bounded away from zero.
    """
    if n is None:
        n = int(rng.integers(2, 7))
    diag = rng.uniform(0.8, 1.5, n)
    off = rng.standard_normal((n, n))
    np.fill_diagonal(off, 0.0)
    gamma1 = float(rng.uniform(0.5, 2.0))
    gamma2 = float(rng.uniform(0.5, gamma2_max))
    y_ref = rng.uniform(-1.0, 1.0, n)
    d = rng.uniform(-1.0, 1.0, n)
    obj = QuadraticObjective(gamma1=gamma1, gamma2=gamma2, y_ref=y_ref)
    scale = 0.5
    for _ in range(200):
        h = np.diag(diag) + scale * off
        plant, model = static_plant(h, d)
        ok, lhs, rhs = coupling_condition(obj, model)
        if ok and lhs <= 0.8 * rhs:
            return plant, model, obj, d
        scale *= 0.5
    raise AssertionError("coupling shrink did not terminate")


def random_stable_instance(rng, n=None, gamma2_max=1.0):
    """Random Schur-stable dynamic plant whose sensitivity is weakly coupled.

    With C = H (I - A) and B = I the steady-state map is exactly H, so the
    algebraic certificates carry over to the dynamic loop unchanged.
    """
    _, model0, obj, d = random_weakly_coupled(rng, n=n, gamma2_max=gamma2_max)
    n = model0.n
    raw = rng.standard_normal((n, n))
    target = float(rng.uniform(0.3, 0.85))
    a = raw * (target / np.linalg.svd(raw, compute_uv=False)[0])
    plant = LtiPlant(
        A=a,
        B=np.eye(n),
        C=model0.H @ (np.eye(n) - a),
        D=np.zeros((n, n)),
        d=d,
    )
    return plant, compute_sensitivity(plant), obj, d


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture(autouse=True)
def no_process_left(monkeypatch):
    """Fail a test that leaves a child process behind, running or unreaped.

    Children forked through ``os.fork`` during the test, such as CSV
    workers, are killed and reaped first.
    """
    forked = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    for pid in forked:
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    pytest.fail("the test left a child process behind")
