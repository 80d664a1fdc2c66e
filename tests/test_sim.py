import contextlib
import csv
import dataclasses
import io
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    grid_instance,
    logcosh_objective,
    random_stable_instance,
    reference_instance,
    scalar_gradients,
    static_plant,
)

import ofonet.sim as sim
from ofonet.controller import ControllerConfig, Mode, centralized_step, decentralized_step
from ofonet.equilibria import global_optimum
from ofonet.errors import NonFinite
from ofonet.objective import QuadraticObjective, grad_u, grad_y
from ofonet.plant import LtiPlant, compute_sensitivity

U_STAR = np.array([-6.0 / 17.0, -10.0 / 17.0])
U_INF = np.array([-0.375, -0.5])


def dec(eta):
    return ControllerConfig(mode=Mode.DECENTRALIZED, eta=eta)


def cen(eta):
    return ControllerConfig(mode=Mode.CENTRALIZED, eta=eta)


def test_decentralized_algebraic_reaches_fixed_point():
    _, model, obj, d = reference_instance()
    traj = sim.run_algebraic(model, obj, d, dec(0.1), steps=10**4)
    npt.assert_allclose(traj.u_series[-1], U_INF, atol=1e-8)


def test_centralized_algebraic_reaches_optimum():
    _, model, obj, d = reference_instance()
    traj = sim.run_algebraic(model, obj, d, cen(0.1), steps=10**4)
    npt.assert_allclose(traj.u_series[-1], U_STAR, atol=1e-8)


def test_scalar_lti_drives_input_to_zero():
    plant = LtiPlant(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]], d=[0.0])
    obj = QuadraticObjective(gamma1=1.0, gamma2=1.0, y_ref=np.zeros(1))
    traj = sim.run_lti(plant, obj, dec(0.02), u0=np.array([1.0]), steps=10**5)
    npt.assert_allclose(traj.u_series[-1], [0.0], atol=1e-10)


def test_early_stop_flags():
    _, model, obj, d = reference_instance()
    traj = sim.run_algebraic(model, obj, d, dec(0.1), steps=10**5)
    assert traj.info.early_stopped
    assert traj.info.iterations < 10**5
    assert len(traj) == traj.info.iterations + 1


def test_lti_records_states_and_output_semantics():
    _, model, obj, d = reference_instance()
    plant = LtiPlant(
        A=np.zeros((2, 2)), B=model.H, C=np.eye(2), D=np.zeros((2, 2)), d=d
    )
    traj = sim.run_lti(plant, obj, dec(0.1), steps=50)
    assert traj.x_series is not None
    # y_k = C x_k + D u_k + d, row-aligned with (u_k, x_k)
    for k in range(len(traj)):
        npt.assert_allclose(
            traj.y_series[k], plant.C @ traj.x_series[k] + plant.d, atol=1e-14
        )


def test_algebraic_and_lti_limits_agree():
    _, model, obj, d = reference_instance()
    plant = LtiPlant(
        A=np.zeros((2, 2)), B=model.H, C=np.eye(2), D=np.zeros((2, 2)), d=d
    )
    a = sim.run_algebraic(model, obj, d, dec(0.05), steps=10**5)
    b = sim.run_lti(plant, obj, dec(0.05), steps=10**5)
    npt.assert_allclose(a.u_series[-1], b.u_series[-1], atol=1e-8)


def test_rel_err_eventually_monotone():
    _, model, obj, d = reference_instance()
    traj = sim.run_algebraic(model, obj, d, dec(0.1), steps=10**4)
    err = sim.metrics(traj, U_INF).rel_err_u
    below = np.nonzero(err < 1e-6)[0]
    assert below.size > 0
    tail = err[below[0]:]
    assert (np.diff(tail) <= 1e-14).all()


def test_divergence_raises_with_partial_trajectory():
    _, model, obj, d = reference_instance()
    with pytest.raises(NonFinite) as info:
        sim.run_algebraic(model, obj, d, cen(1e3), steps=10**4)
    exc = info.value
    assert exc.step > 0
    assert exc.trajectory is not None
    assert np.isfinite(exc.trajectory.u_series).all()
    assert len(exc.trajectory) == exc.step


def test_lti_divergence_raises_with_partial_trajectory():
    _, model, obj, d = reference_instance()
    plant = LtiPlant(
        A=np.zeros((2, 2)), B=model.H, C=np.eye(2), D=np.zeros((2, 2)), d=d
    )
    with pytest.raises(NonFinite) as info:
        sim.run_lti(plant, obj, cen(2.0), steps=10**4)
    exc = info.value
    traj = exc.trajectory
    assert exc.step > 0
    assert traj is not None
    assert len(traj) == exc.step
    # the prefix spans more than one recorder block
    assert len(traj) > sim.RECORD_BLOCK
    assert traj.x_series.shape[0] == traj.u_series.shape[0]
    for series in (traj.u_series, traj.y_series, traj.x_series):
        assert np.isfinite(series).all()


@pytest.mark.parametrize("steps", [1, 5])
def test_lti_state_only_divergence_on_last_step(steps):
    # x_1 = 0.5 x_0 + u_0 overflows while y_0 and u_1 stay finite; the
    # input's step norm overflows to inf, the state's is the NaN of a
    # divergence, which must not be lost by combining the two norms
    plant = LtiPlant(A=[[0.5]], B=[[1.0]], C=[[1e-300]], D=[[0.0]], d=[0.0])
    obj = QuadraticObjective(1.0, 1.0, [0.0])
    with pytest.raises(NonFinite) as info:
        sim.run_lti(plant, obj, dec(0.01), x0=[1.5e308], u0=[1.5e308], steps=steps)
    assert info.value.step == 1
    assert len(info.value.trajectory) == 1


@pytest.mark.parametrize("loop", ["algebraic", "lti"])
def test_last_output_overflow_raises_with_the_finite_rows(loop):
    # steady-state gain 100 (through B, or through D with no state path):
    # each update multiplies u by 1 - 0.1 (1 + 100^2) = -999.1, so from
    # u_0 = 5.5e6 every update stays finite and u_100 ~ 5e306, but the
    # last output y_100 = 100 u_100 overflows
    obj = QuadraticObjective(1.0, 1.0, [0.0])
    with pytest.raises(NonFinite) as info:
        if loop == "lti":
            plant = LtiPlant(A=[[0.0]], B=[[0.0]], C=[[0.0]], D=[[100.0]], d=[0.0])
            sim.run_lti(plant, obj, dec(0.1), u0=[5.5e6], steps=100)
        else:
            _, model = static_plant([[100.0]], [0.0])
            sim.run_algebraic(model, obj, [0.0], dec(0.1), u0=[5.5e6], steps=100)
    traj = info.value.trajectory
    assert info.value.step == 100
    assert len(traj) == 100
    assert traj.info.iterations == 100
    assert np.isfinite(traj.u_series).all() and np.isfinite(traj.y_series).all()


def test_overflowing_step_norm_is_not_divergence():
    # finite iterates whose squared norms overflow keep running, unstopped
    _, model, obj, d = reference_instance()
    traj = sim.run_algebraic(model, obj, d, dec(0.01), u0=[1e200, -1e200], steps=3)
    assert len(traj) == 4
    assert not traj.info.early_stopped


def test_batched_loop_divergence_steps_match_run_algebraic():
    # scalar scenarios, eta = gamma1 = gamma2 = 1: u_1 = -inf (diverges at
    # step 1 through u); u_1 = 1e308 with an overflowing step norm, then
    # y_1 = inf (diverges at step 1 through y); a contraction that early-stops
    H = np.array([[[1e300]], [[5.0]], [[0.5]]])
    d = np.array([[0.0], [1.5e308], [1.0]])
    y_ref = np.array([[-1e10], [1.7e308], [0.0]])
    finals, diverged = sim._run_algebraic_batch(H, d, y_ref, 1.0, 1.0, 1.0, 50)
    outcomes = []
    for h, d_b, y_b, final, step in zip(H, d, y_ref, finals, diverged):
        obj = QuadraticObjective(gamma1=1.0, gamma2=1.0, y_ref=y_b)
        _, model = static_plant(h, d_b)
        try:
            traj = sim.run_algebraic(model, obj, d_b, dec(1.0), steps=50)
        except NonFinite as exc:
            assert step == exc.step
            outcomes.append(step)
            continue
        assert step is None
        assert np.array_equal(final, traj.u_series[-1])
        outcomes.append(traj.info.early_stopped)
    assert outcomes == [1, 1, True]


def _generic_size_instance(seed):
    """A seeded stable plant of generic-n64's size (n = 64, n_state = 128), where
    a BLAS may split a matrix-vector product across threads."""
    rng = np.random.default_rng(seed)
    n, m = 64, 128
    a = rng.standard_normal((m, m))
    a *= 0.8 / np.linalg.svd(a, compute_uv=False)[0]
    plant = LtiPlant(
        A=a,
        B=rng.standard_normal((m, n)) / np.sqrt(m),
        C=rng.standard_normal((n, m)) / np.sqrt(m),
        D=0.1 * rng.standard_normal((n, n)),
        d=rng.uniform(-1.0, 1.0, n),
    )
    obj = QuadraticObjective(gamma1=1.0, gamma2=1.0, y_ref=rng.uniform(-1.0, 1.0, n))
    return plant, compute_sensitivity(plant), obj, plant.d


def _matmul_loop(plant, model, obj, d, cfg, loop, steps):
    """The recording closed loop written out with ``@`` for every product, the
    scalar-form gradients and both increments taken on every step: its rows
    (u, y[, x]), then its RunInfo, or None and the step at which y was first not
    finite."""
    H, A, B, C, D = model.H, plant.A, plant.B, plant.C, plant.D
    grad_u, grad_y = scalar_gradients(obj)
    h = np.diag(model.H)
    if cfg.mode is Mode.CENTRALIZED:
        apply_gt = lambda g: H.T @ g  # noqa: E731
    else:
        apply_gt = lambda g: h * g  # noqa: E731
    u = np.zeros(model.n)
    x = np.zeros(plant.n_state) if loop == "lti" else None
    rows, early = [], False
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            if x is None:
                x_next, y = None, H @ u + d
            else:
                x_next, y = A @ x + B @ u, C @ x + D @ u + plant.d
            if not np.isfinite(y).all():
                return rows, None, k
            rows.append((u, y) if x is None else (u, y, x))
            if k == steps or early:
                return rows, sim.RunInfo(k, early), None
            u_next = u - cfg.eta * (grad_u(u) + apply_gt(grad_y(y)))
            du, dx = u_next - u, None if x is None else x_next - x
            delta_u = np.sqrt(du @ du)
            delta_x = 0.0 if x is None else np.sqrt(dx @ dx)
            u, x = u_next, x_next
            early = delta_u < sim.EARLY_STOP_TOL and delta_x < sim.EARLY_STOP_TOL


def test_recorded_rows_replay_bit_for_bit():
    # every recorded row, across recorder blocks, is one loop step with ``@``
    # products and scalar-form gradients, in both modes and both loops, on the
    # 2x2 instance and on one of generic-n64's size, the latter with its
    # quadratic and with a callable objective whose agents share their
    # derivatives or hold their own; a diverging step size checks the
    # NonFinite step
    plant, model, obj, d = _generic_size_instance(7)
    instances = [
        ("2x2", reference_instance(), 2500, (0.01, 2.0)),
        ("n64", (plant, model, obj, d), 1100, (0.01, 5.0)),
        ("n64-shared", (plant, model, logcosh_objective(64), d), 1100, (0.01, 5.0)),
        ("n64-closures", (plant, model, logcosh_objective(64, False), d), 1100, (0.01, 5.0)),
    ]
    diverged = set()
    for name, (plant, model, obj, d), steps, etas in instances:
        for cfg in [make(eta) for make in (dec, cen) for eta in etas]:
            for loop in ("algebraic", "lti"):
                case = (name, cfg.mode.value, cfg.eta, loop)
                rows, info, step = _matmul_loop(plant, model, obj, d, cfg, loop, steps)
                try:
                    if loop == "algebraic":
                        traj = sim.run_algebraic(model, obj, d, cfg, steps=steps)
                    else:
                        traj = sim.run_lti(plant, obj, cfg, steps=steps)
                    assert (step, traj.info) == (None, info), case
                except NonFinite as exc:
                    assert (exc.step, info) == (step, None), case
                    diverged.add(case)
                    traj = exc.trajectory
                assert len(traj) == len(rows), case
                series = [traj.u_series, traj.y_series]
                if loop == "lti":
                    series.append(traj.x_series)
                for i, column in enumerate(series):
                    expected = np.array([r[i] for r in rows])
                    assert column.tobytes() == expected.tobytes(), (case, i)
                if name == "2x2" and cfg.eta == 0.01:
                    assert len(traj) > sim.RECORD_BLOCK
    # the diverging step sizes diverge in every mode and loop
    assert len(diverged) == 4 * len(instances)


class _AliasingObjective(QuadraticObjective):
    """gamma1 = gamma2 = 1 with gradients that alias: grad_u returns u itself,
    grad_y one buffer that every call overwrites."""

    def __init__(self, y_ref):
        super().__init__(1.0, 1.0, y_ref)
        object.__setattr__(self, "_buffer", np.empty(len(y_ref)))

    def input_gradient(self, u):
        return u

    def output_gradient(self, y):
        return np.subtract(y, self.y_ref, out=self._buffer)


@pytest.mark.parametrize("decimation", [1, 3])
def test_aliasing_gradients_leave_the_run_unchanged(monkeypatch, decimation):
    # an objective may return its argument or a cached array: the update map
    # writes into no array but its buffers and the row it is given, so the run
    # equals a copying twin's, rows held between two kept ones included, and u0
    # comes back as given
    plant, model, _, d = reference_instance()
    y_ref = np.array([0.25, -0.5])
    start = np.array([0.5, -1.5])
    for cfg in (dec(0.1), cen(0.1)):
        runs = []
        for obj in (_AliasingObjective(y_ref), QuadraticObjective(1.0, 1.0, y_ref)):
            u0 = start.copy()
            runs.append(
                [
                    sim.run_algebraic(model, obj, d, cfg, u0=u0, steps=50, decimation=decimation),
                    sim.run_lti(plant, obj, cfg, u0=u0, steps=50, decimation=decimation),
                ]
            )
            assert u0.tobytes() == start.tobytes()
        for aliased, copied in zip(*runs):
            assert (aliased.info, aliased.kept) == (copied.info, copied.kept)
            for name in ("u_series", "y_series", "x_series"):
                a, b = getattr(aliased, name), getattr(copied, name)
                assert (a is None and b is None) or a.tobytes() == b.tobytes(), (cfg, name)

    # the public step and gradient functions return fresh arrays, never a buffer
    # of the update map or of the objective
    obj = QuadraticObjective(1.0, 1.0, y_ref)
    for call in (
        lambda: grad_u(obj, start),
        lambda: grad_y(obj, start),
        lambda: centralized_step(cen(0.1), obj, model, start, y_ref),
        lambda: decentralized_step(dec(0.1), obj, model, start, y_ref),
    ):
        first, second = call(), call()
        assert first.tobytes() == second.tobytes()
        assert not any(np.shares_memory(first, a) for a in (second, start, y_ref))

    # the loop writes no array once it has given it to the objective: a quadratic
    # that keeps each u and y it is given, and takes the run's buffers, finds each
    # as it was after the run, across many blocks of 4 rows
    received = []
    for name in ("input_gradient", "output_gradient"):

        def keeping(self, v, out=None, gradient=getattr(QuadraticObjective, name)):
            received.append((v, v.copy()))
            return gradient(self, v, out)

        monkeypatch.setattr(QuadraticObjective, name, keeping)
    monkeypatch.setattr(sim, "RECORD_BLOCK", 4)
    obj = QuadraticObjective(1.0, 1.0, y_ref)
    for cfg in (dec(0.1), cen(0.1)):
        sim.run_algebraic(model, obj, d, cfg, u0=start, steps=50, decimation=decimation)
        sim.run_lti(plant, obj, cfg, u0=start, steps=50, decimation=decimation)
    assert len(received) == 4 * 2 * 50
    assert all(v.tobytes() == copy.tobytes() for v, copy in received)


def test_the_state_increment_can_decide_the_early_stop():
    # the input increment falls below the tolerance at step 114, the state's
    # only at step 26,936: the run stops where a loop that takes both
    # increments on every step stops
    plant = LtiPlant(A=[[0.999]], B=[[1.0]], C=[[1e-13]], D=[[1.0]], d=[1.0])
    obj = QuadraticObjective(gamma1=1.0, gamma2=1.0, y_ref=np.zeros(1))
    model = compute_sensitivity(plant)
    traj = sim.run_lti(plant, obj, dec(0.1))
    _, info, _ = _matmul_loop(plant, model, obj, plant.d, dec(0.1), "lti", sim.DEFAULT_STEPS)
    assert traj.info == info == sim.RunInfo(26936, True)
    du = np.linalg.norm(np.diff(traj.u_series, axis=0), axis=1)
    assert np.flatnonzero(du < sim.EARLY_STOP_TOL)[0] == 114


def test_metrics_absolute_fallback():
    _, model, obj, d = reference_instance()
    traj = sim.run_algebraic(model, obj, d, dec(0.1), steps=100)
    err = sim.metrics(traj, np.zeros(2))
    assert err.absolute
    err_rel = sim.metrics(traj, U_INF)
    assert not err_rel.absolute


def test_metrics_norm_fits_where_its_squares_overflow():
    # rows 1 and 2 square past the float range, yet their norms fit
    _, model, obj, d = reference_instance()
    plant = LtiPlant(A=np.zeros((2, 2)), B=model.H, C=np.eye(2), D=np.zeros((2, 2)), d=d)
    traj = sim.run_lti(plant, obj, dec(0.1), steps=3)
    big = 2.0**600
    u = np.array([[1.0, -2.0], [3 * big, -4 * big], [1e308, 1e308], [1e-200, 0.0]])
    traj = dataclasses.replace(traj, u_series=u)
    err = sim.metrics(traj, np.zeros(2)).rel_err_u
    assert err[1] == 5 * big
    assert err[2] == np.sqrt(2.0) * 1e308
    for k in (0, 3):
        assert err[k].tobytes() == np.linalg.norm(u[k]).tobytes()
    # against this reference row 2's difference itself overflows: its norm
    # stays inf, and so does its squared combined error, rather than NaN
    against = sim.metrics(traj, [-1e308, 0.0], model)
    assert against.combined_sq[2] == np.inf
    # ||u_ref|| = 1e308 fits although its square overflows, as do the other
    # rows' errors (each 1e308 to the last bit)
    assert not against.absolute
    npt.assert_array_equal(against.rel_err_u, [1.0, 1.0, np.inf, 1.0])


def test_combined_sq_needs_states_and_model():
    _, model, obj, d = reference_instance()
    traj = sim.run_algebraic(model, obj, d, dec(0.1), steps=100)
    assert sim.metrics(traj, U_INF, model).combined_sq is None
    plant = LtiPlant(
        A=np.zeros((2, 2)), B=model.H, C=np.eye(2), D=np.zeros((2, 2)), d=d
    )
    ltraj = sim.run_lti(plant, obj, dec(0.1), steps=100)
    combined = sim.metrics(ltraj, U_INF, model).combined_sq
    assert combined is not None
    resid = ltraj.x_series - ltraj.u_series @ model.H_x.T
    expected = np.sum(resid**2, axis=1) + np.sum(
        (ltraj.u_series - U_INF) ** 2, axis=1
    )
    npt.assert_allclose(combined, expected, rtol=1e-12)


def test_csv_format_and_roundtrip(tmp_path):
    _, model, obj, d = reference_instance()
    traj = sim.run_algebraic(model, obj, d, dec(0.1), steps=20)
    err = sim.metrics(traj, U_INF)
    path = tmp_path / "traj.csv"
    sim.write_trajectory_csv(path, traj, err)
    raw = path.read_bytes().decode("utf-8")
    assert "\r" not in raw
    rows = list(csv.reader(raw.splitlines()))
    assert rows[0] == ["k", "u_1", "u_2", "y_1", "y_2", "rel_err_u"]
    assert len(rows) == len(traj) + 1
    # 17 significant digits round-trip exactly
    for k in (0, 1, len(traj) - 1):
        npt.assert_array_equal(
            np.array(rows[1 + k][1:3], dtype=float), traj.u_series[k]
        )


def _reference_csv(trajectory, err, decimate=1):
    """Per-value format(v, ".17g") writer the row-template writer must match."""

    def fmt(v):
        return format(float(v), ".17g")

    n = trajectory.u_series.shape[1]
    header = ["k"] + [f"u_{i + 1}" for i in range(n)] + [f"y_{i + 1}" for i in range(n)]
    if trajectory.x_series is not None:
        header += [f"x_{i + 1}" for i in range(trajectory.x_series.shape[1])]
    header.append("rel_err_u")
    if err.combined_sq is not None:
        header.append("combined_sq")
    lines = [",".join(header)]
    for k in range(0, len(trajectory), decimate):
        row = [str(k)]
        row += [fmt(v) for v in trajectory.u_series[k]]
        row += [fmt(v) for v in trajectory.y_series[k]]
        if trajectory.x_series is not None:
            row += [fmt(v) for v in trajectory.x_series[k]]
        row.append(fmt(err.rel_err_u[k]))
        if err.combined_sq is not None:
            row.append(fmt(err.combined_sq[k]))
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode("utf-8")


EDGE_VALUES = (-0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308)


def _edge_case_run(loop):
    """A run of more than one recorder block whose cells include float edge cases."""
    _, model, obj, d = reference_instance()
    if loop == "lti":
        plant = LtiPlant(
            A=np.zeros((2, 2)), B=model.H, C=np.eye(2), D=np.zeros((2, 2)), d=d
        )
        traj = sim.run_lti(plant, obj, dec(0.01), steps=2500)
    else:
        traj = sim.run_algebraic(model, obj, d, dec(0.01), steps=2500)
    # more rows than one recorder block, which this process formats a chunk at a time
    assert len(traj) > sim.RECORD_BLOCK
    err = sim.metrics(traj, U_INF, model)
    # edge-case cells: signed zero, subnormals, the largest double, and
    # the overflowed metrics of a diverging tail
    u = traj.u_series.copy()
    u[0, :] = EDGE_VALUES[:2]
    u[7, :] = EDGE_VALUES[2:]
    y = traj.y_series.copy()
    y[14, :] = EDGE_VALUES[1::2]
    traj = dataclasses.replace(traj, u_series=u, y_series=y)
    rel = err.rel_err_u.copy()
    rel[:3] = (np.inf, np.nan, -0.0)
    return traj, dataclasses.replace(err, rel_err_u=rel)


def _kept(length, decimate):
    """The rows of a full run of ``length`` rows that the run at ``decimate`` records."""
    rows = list(range(0, length, decimate))
    return rows if rows[-1] == length - 1 else rows + [length - 1]


def _replay(trajectory, stream=None, decimate=1):
    """Record ``trajectory`` row by row as a run at ``decimate`` would, handing its
    full blocks to ``stream``; the trajectory that run records."""
    u, y, x = trajectory.u_series, trajectory.y_series, trajectory.x_series
    on_full = None if stream is None else stream._take
    rec = sim._Recorder(u.shape[1], None if x is None else x.shape[1], decimate, on_full)
    row = sim._FRESH
    for k in range(len(trajectory)):
        # the run fills the row the recorder gives, or new arrays for a row
        # passed over, then records it
        values = (u[k], y[k], None if x is None else x[k])
        if row[0] is None:
            row = [None if v is None else v.copy() for v in values]
        else:
            for a, v in zip(row, values):
                a[...] = v
        *_, row = rec.record(*row)
    return rec.trajectory(trajectory.info)


def _decimated(trajectory, err, decimate, stream=None):
    """A full ``trajectory`` and its ``err`` as the run at ``decimate`` records
    them, its full blocks handed to ``stream``."""
    traj = _replay(trajectory, stream, decimate)
    # the rows the run holds: those the stream did not take
    rows = _kept(len(trajectory), decimate)[traj.first :]
    combined = None if err.combined_sq is None else err.combined_sq[rows]
    err = dataclasses.replace(err, rel_err_u=err.rel_err_u[rows], combined_sq=combined)
    return traj, err


@pytest.mark.parametrize("loop", ["algebraic", "lti"])
@pytest.mark.parametrize("decimate", [1, 7])
def test_csv_matches_per_value_reference(tmp_path, loop, decimate):
    traj, err = _edge_case_run(loop)
    path = tmp_path / "traj.csv"
    sim.write_trajectory_csv(path, *_decimated(traj, err, decimate))
    assert path.read_bytes() == _reference_csv(traj, err, decimate)


def _python_table(table):
    """The lines of ``table`` by Python's own formatting, one row template per row."""
    row = b"%d" + b",%.17g" * (table.shape[1] - 1) + b"\n"
    return b"".join(row % tuple(r) for r in table.tolist())


def _assert_formats_as_python(values, width, first=0, decimation=1):
    """``values`` as the cells of rows ``width`` wide (k first), padded with 1.0 to
    whole rows: ``_write_table`` writes Python's bytes."""
    values = np.asarray(values, dtype=float).ravel()
    cells = np.ones(-(-values.size // (width - 1)) * (width - 1))
    cells[: values.size] = values
    table = sim._table(first, decimation, [cells.reshape(-1, width - 1)])
    out = io.BytesIO()
    sim._write_table(out, table)
    assert out.getvalue() == _python_table(table)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300),
    st.sampled_from([2, 18, 36, 259]),
)
def test_write_table_formats_any_bit_pattern_as_python(bits, width):
    _assert_formats_as_python(np.array(bits, dtype=np.uint64).view(np.float64), width)


def test_write_table_formats_exact_ties_as_python():
    # an odd m times 2^-p is m 5^p / 10^p: its decimal digits are those of m 5^p,
    # the last a 5, so with 18 of them its 17-digit rounding is an exact tie
    rng = np.random.default_rng(3)
    odd = np.concatenate([np.arange(1, 400, 2), 2 * rng.integers(0, 2**40, 400) + 1])
    multiples = [np.ldexp(odd.astype(float), -p) for p in range(25, 61)]
    ties = []
    for p in range(2, 26):
        low, high = -(-10**17 // 5**p), min(10**18 // 5**p, 2**53)
        ties.append(np.ldexp((rng.integers(low // 2, high // 2, 400) * 2 + 1).astype(float), -p))
    values = np.concatenate([*multiples, *ties])
    _assert_formats_as_python(np.concatenate([values, -values]), 36)


def test_write_table_formats_powers_of_ten_and_form_edges_as_python():
    powers = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in range(-323, 309)])
    near = [powers * (1 + j * 2.0**-52) for j in range(-4, 5)]
    edges = np.array([1e-5, 1e-4, 1e16, 1e17, 1e-280, 1e280, 1e-28, 2.0**-25, 1e300, 2e17])
    steps = [np.nextafter(edges, limit) for limit in (0.0, np.inf)]
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072009e-308, 1e-310]
    values = np.concatenate([*near, edges, *steps, special])
    for width in (2, 18, 36):
        _assert_formats_as_python(np.concatenate([values, -values]), width)


@pytest.mark.parametrize("width", [2, 18, 36, 259])
@pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025])
def test_write_table_crosses_chunks_as_python(width, rows):
    # log-uniform magnitudes over most of the float range, with zeros, at k up to 10^6
    rng = np.random.default_rng(width * 10_000 + rows)
    cells = np.exp(rng.uniform(-700, 700, (rows, width - 1))) * rng.choice([-1, 1], (rows, width - 1))
    cells[rng.random(cells.shape) < 0.05] = 0.0
    _assert_formats_as_python(cells, width, first=20_000 - rows, decimation=50)


def test_power_table_holds_each_power_to_double_double_precision():
    from fractions import Fraction

    hi, lo = sim._pow10()
    for k, h, l in zip(range(-280, 301), hi.tolist(), lo.tolist()):
        exact = Fraction(10) ** k
        assert (h, l) == (float(exact), float(exact - Fraction(h))), k


def _formula_case(case, rng):
    """A run of 2 RECORD_BLOCK + 1 rows for ``case``, and the references of its cells.

    own_ref is the last iterate unless rows overflow: the held row's
    combined_sq is then its residual ||x - H_x u||^2 alone, which shows
    any change in the rounding of its product.
    """
    steps = 2 * sim.RECORD_BLOCK
    if case == "overflow":
        # rows whose squares, or whose differences from own_ref, overflow, in
        # both full blocks and in the held row
        _, model, obj, d = reference_instance()
        traj = sim.run_lti(_lti_plant(model, d), obj, dec(1e-4), steps=steps)
        u = traj.u_series.copy()
        big = 2.0**600
        u[[3, 1500, steps]] = [[3 * big, -4 * big], [1e308, 1e308], [-1e308, 1e-300]]
        return dataclasses.replace(traj, u_series=u), (U_STAR, model, [-1e308, 0.0])
    if case.startswith("grid"):
        plant, model, obj, d = grid_instance()
        u_ref = global_optimum(obj, model, d).u
        if case == "grid-algebraic":
            traj = sim.run_algebraic(model, obj, d, dec(1e-3), steps=steps)
        else:
            traj = sim.run_lti(plant, obj, dec(1e-3), steps=steps)
    else:
        plant, model, obj, _ = random_stable_instance(rng, n=int(case.split("-")[1]))
        u_ref = rng.standard_normal(model.n)
        traj = sim.run_lti(plant, obj, dec(1e-3), steps=steps)
    return traj, (u_ref, model, traj.u_series[-1])


@pytest.mark.parametrize(
    "case", ["grid-algebraic", "grid-lti", "random-64", "random-256", "overflow"]
)
def test_streamed_cells_are_metrics_bit_for_bit(tmp_path, rng, case):
    # the stream's cells of its blocks and metrics' cells come from one
    # formula: at the default RECORD_BLOCK two blocks go over and one row is
    # held, and every row equals one product over the whole run
    full, refs = _formula_case(case, rng)
    assert len(full) == 2 * sim.RECORD_BLOCK + 1
    path = tmp_path / "traj.csv"
    with sim.CsvStream(path, *refs) as stream:
        traj = _replay(full, stream)
        assert (traj.first, len(traj)) == (2 * sim.RECORD_BLOCK, 1)
        sim.write_trajectory_csv(path, traj, sim.metrics(traj, *refs), stream)
    err = sim.metrics(full, *refs)
    cells = [c for c in (err.rel_err_u, err.combined_sq) if c is not None]
    assert len(cells) == (1 if case == "grid-algebraic" else 2)
    written = np.loadtxt(path, delimiter=",", skiprows=1)[:, -len(cells) :]
    whole = sim._cells(full.u_series, full.x_series, *refs, len(full))
    for i, column in enumerate(cells):
        assert written[:, i].tobytes() == column.tobytes() == whole[i].tobytes()


def _assert_no_worker_left(directory, expected):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir(directory)) == sorted(expected)


def _count_forks(monkeypatch):
    """The pids of the processes forked from here on (the CSV workers)."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _streamed_csv(monkeypatch, path, trajectory, err, decimate=1):
    """Stream ``trajectory``, recorded at ``decimate``, into ``path``, with
    ``err``'s cells in every row: the stream computes its blocks' cells,
    and each table, the worker's too, gets ``err``'s in their place."""
    rows = _kept(len(trajectory), decimate)
    cells = np.column_stack([c[rows] for c in (err.rel_err_u, err.combined_sq) if c is not None])
    table = sim._table

    def with_cells(first, decimation, columns):
        t = table(first, decimation, columns)
        t[:, -cells.shape[1] :] = cells[first : first + len(t)]
        return t

    monkeypatch.setattr(sim, "_table", with_cells)
    with sim.CsvStream(path, U_INF, reference_instance()[1]) as stream:
        sim.write_trajectory_csv(path, *_decimated(trajectory, err, decimate, stream), stream)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("loop", ["algebraic", "lti"])
@pytest.mark.parametrize("decimate", [1, 7])
def test_csv_bytes_do_not_depend_on_worker_count(
    tmp_path, monkeypatch, workers, loop, decimate
):
    traj, err = _edge_case_run(loop)
    # small blocks: the stream takes many blocks, whose edge-case cells
    # reach the worker, and without a worker this process formats many
    # chunks and a short last one, for both decimations
    monkeypatch.setattr(sim, "RECORD_BLOCK", 32)
    rows = len(range(0, len(traj), decimate))
    assert rows // 32 >= 5 and rows % 32 != 0
    assert (len(traj) - 1) // (32 * decimate) >= 2
    forks = _count_forks(monkeypatch)
    if workers == 1:  # where the OS cannot fork, this process formats alone
        monkeypatch.delattr(os, "fork")
    path = tmp_path / "traj.csv"
    _streamed_csv(monkeypatch, path, traj, err, decimate)
    assert path.read_bytes() == _reference_csv(traj, err, decimate)
    # one worker per file, and none without fork
    assert len(forks) == workers - 1
    _assert_no_worker_left(tmp_path, ["traj.csv"])


def _worker_tables(fail):
    """A table writer whose forked worker raises (``fail``) or hangs."""
    parent = os.getpid()
    write_table = sim._write_table

    def write(fh, table):
        if os.getpid() == parent:
            return write_table(fh, table)
        if fail:
            raise RuntimeError("table formatting failed")
        # a worker the failing caller must kill; unkilled, it ends in 60 s
        time.sleep(60)
        os._exit(1)

    return write


def test_csv_worker_failure_raises(tmp_path, monkeypatch):
    traj, err = _edge_case_run("algebraic")
    monkeypatch.setattr(sim, "RECORD_BLOCK", 64)
    write, mine = _worker_tables(fail=True), []

    def counted(fh, table):
        mine.append(len(table))
        return write(fh, table)

    monkeypatch.setattr(sim, "_write_table", counted)
    forks = _count_forks(monkeypatch)
    with pytest.raises(OSError, match="CSV worker of .*traj.csv failed"):
        _streamed_csv(monkeypatch, tmp_path / "traj.csv", traj, err)
    assert len(forks) == 1
    # every block went to the dead worker, and this process formatted only
    # the rows it held, before it waited for the worker
    assert mine == [len(traj) % 64]
    # neither a truncated CSV nor its temporary file is left behind
    _assert_no_worker_left(tmp_path, [])


def test_csv_failure_keeps_previous_file(tmp_path, monkeypatch):
    traj, err = _edge_case_run("algebraic")
    path = tmp_path / "traj.csv"
    path.write_bytes(b"previous run\n")
    monkeypatch.setattr(sim, "RECORD_BLOCK", 64)
    monkeypatch.setattr(sim, "_write_table", _worker_tables(fail=True))
    forks = _count_forks(monkeypatch)
    with pytest.raises(OSError, match="CSV worker of .*traj.csv failed"):
        _streamed_csv(monkeypatch, path, traj, err)
    assert len(forks) == 1
    assert path.read_bytes() == b"previous run\n"
    _assert_no_worker_left(tmp_path, ["traj.csv"])


def test_csv_caller_failure_kills_workers(tmp_path, monkeypatch):
    traj, err = _edge_case_run("algebraic")
    monkeypatch.setattr(sim, "RECORD_BLOCK", 64)
    monkeypatch.setattr(sim, "_write_table", _worker_tables(fail=False))
    forks = _count_forks(monkeypatch)
    path = tmp_path / "traj.csv"
    start = time.monotonic()
    # the caller fails while its worker still formats
    with pytest.raises(ValueError, match="the stream is for .*traj.csv"):
        with sim.CsvStream(path, U_INF) as stream:
            _replay(traj, stream)
            sim.write_trajectory_csv(tmp_path / "other.csv", traj, err, stream=stream)
    assert len(forks) == 1
    # the hanging worker was killed, not waited for
    assert time.monotonic() - start < 30
    _assert_no_worker_left(tmp_path, [])


def test_this_process_formats_only_the_held_rows_of_a_slow_worker(tmp_path, monkeypatch):
    forks = _streaming(monkeypatch)
    parent, write_table = os.getpid(), sim._write_table
    mine = []  # the k of each row this process formats

    def write(fh, table):
        if os.getpid() == parent:
            mine.extend(table[:, 0].tolist())
        else:
            time.sleep(0.05)  # per block: the worker falls behind the run
        return write_table(fh, table)

    monkeypatch.setattr(sim, "_write_table", write)
    path = tmp_path / "traj.csv"
    steps = 20 * BLOCK + 7
    traj, _ = _stream_run(path, "lti", 1, steps=steps)
    assert path.read_bytes() == _reference_csv(*_reference_run("lti", steps))
    assert traj.first == 20 * BLOCK and len(forks) == 1
    # the worker formatted every block handed to it, however far behind it
    # was; this process formatted the rows the run held, and only those
    assert mine == list(range(20 * BLOCK, steps + 1))
    _assert_no_worker_left(tmp_path, ["traj.csv"])


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_failed_fork_leaks_no_descriptor(tmp_path, monkeypatch):
    _streaming(monkeypatch)

    def failing_fork():
        raise BlockingIOError("no process can be forked")

    monkeypatch.setattr(os, "fork", failing_fork)
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        _stream_run(tmp_path / "traj.csv", "lti", 1, steps=3 * BLOCK)
    assert len(os.listdir("/proc/self/fd")) == before
    _assert_no_worker_left(tmp_path, [])


# recorder block of the streaming tests, small enough for many blocks
BLOCK = 16


def _streaming(monkeypatch):
    monkeypatch.setattr(sim, "RECORD_BLOCK", BLOCK)
    return _count_forks(monkeypatch)


def _lti_plant(model, d):
    return LtiPlant(A=np.zeros((2, 2)), B=model.H, C=np.eye(2), D=np.zeros((2, 2)), d=d)


# fig3's composite: rel_err_u against u_star, combined_sq against the
# loop's own fixed point
COMPOSITE = (U_STAR, reference_instance()[1], U_INF)


class _DivergingObjective(QuadraticObjective):
    """The reference objective, except that its output gradient is inf at its
    ``at``-th call: that update makes u_at non-finite, and so y_at, and the run
    raises NonFinite(at) with its first ``at`` rows."""

    def __init__(self, at):
        super().__init__(1.0, 1.0, np.zeros(2))
        object.__setattr__(self, "_left", at)

    def output_gradient(self, y):
        object.__setattr__(self, "_left", self._left - 1)
        gradient = super().output_gradient(y)
        return np.full_like(gradient, np.inf) if self._left == 0 else gradient


def _reference_run(loop, steps, decimate=1, stream=None, diverge=None):
    """Run the reference instance at step 0.01, diverging at step ``diverge`` if
    given; the trajectory (its finite rows) and its metrics."""
    _, model, obj, d = reference_instance()
    if diverge is not None:
        obj = _DivergingObjective(diverge)
    run = {"steps": steps, "decimation": decimate, "stream": stream}
    try:
        if loop == "algebraic":
            traj = sim.run_algebraic(model, obj, d, cen(0.01), **run)
        else:
            traj = sim.run_lti(_lti_plant(model, d), obj, dec(0.01), **run)
    except NonFinite as exc:
        if exc.step != diverge:
            raise
        traj = exc.trajectory
    return traj, sim.metrics(traj, *COMPOSITE)


def _stream_run(path, loop, decimate, steps, diverge=None):
    """Run the reference instance streaming its CSV; the trajectory and its metrics."""
    with sim.CsvStream(path, *COMPOSITE) as stream:
        traj, err = _reference_run(loop, steps, decimate, stream, diverge)
        sim.write_trajectory_csv(path, traj, err, stream)
    return traj, err


@pytest.mark.parametrize(
    "blocks, extra, diverges",
    [(0, 2, 0), (1, -1, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 0, 1), (2, -1, 1)],
    ids=["2", "B-1", "B", "B+1", "2B+1", "diverge-2B", "diverge-2B-1"],
)
@pytest.mark.parametrize("loop", ["algebraic", "lti"])
@pytest.mark.parametrize("decimate", [1, 7])
def test_streamed_csv_matches_reference(
    tmp_path, monkeypatch, blocks, extra, diverges, loop, decimate
):
    forks = _streaming(monkeypatch)
    # B: the run rows of one full block, which keeps BLOCK rows
    unit = BLOCK * decimate
    if diverges:
        # the run diverges at kept row 2 BLOCK, the first of a block not yet
        # allocated, or at kept row 2 BLOCK - 1, the last of a full block: the
        # loop writes each row before its output test
        rows = (blocks * BLOCK + extra) * decimate
        run = {"steps": 10**4, "diverge": rows}
    else:
        rows = blocks * unit + extra
        run = {"steps": rows - 1}
    path = tmp_path / "traj.csv"
    traj, err = _stream_run(path, loop, decimate, **run)
    handed = traj.first
    full, full_err = _reference_run(loop, **run)
    assert len(full) == rows and not full.info.early_stopped
    # a full block goes over once the next kept row is recorded, and the
    # run holds only the rows after it
    assert handed == (rows - 1) // unit * BLOCK
    assert len(traj) == len(_kept(rows, decimate)) - handed
    assert path.read_bytes() == _reference_csv(full, full_err, decimate)
    assert len(forks) == (handed > 0)
    _assert_no_worker_left(tmp_path, ["traj.csv"])


def test_streamed_csv_has_the_mode_of_a_new_file(tmp_path, monkeypatch):
    # its temporary file is created as any new file is, not owner-only
    umask = os.umask(0o022)
    os.umask(umask)
    _streaming(monkeypatch)
    path = tmp_path / "traj.csv"
    traj, _ = _stream_run(path, "lti", 1, steps=3 * BLOCK)
    assert traj.first == 3 * BLOCK and path.stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("loop", ["algebraic", "lti"])
def test_streamed_csv_of_a_one_row_run(tmp_path, monkeypatch, loop):
    # a run has two rows at least unless it diverges at step 1
    forks = _streaming(monkeypatch)
    path = tmp_path / "traj.csv"
    obj = QuadraticObjective(1.0, 1.0, [0.0])
    with sim.CsvStream(path, [1.0]) as stream:
        with pytest.raises(NonFinite) as info:
            if loop == "algebraic":
                model = static_plant([[1.0]], [0.0])[1]
                sim.run_algebraic(model, obj, [0.0], cen(1e10), u0=[1e300], stream=stream)
            else:
                # the state-only divergence of test_lti_state_only_divergence_on_last_step
                plant = LtiPlant(A=[[0.5]], B=[[1.0]], C=[[1e-300]], D=[[0.0]], d=[0.0])
                sim.run_lti(plant, obj, dec(0.01), x0=[1.5e308], u0=[1.5e308], stream=stream)
        traj = info.value.trajectory
        assert info.value.step == 1 and len(traj) == 1
        err = sim.metrics(traj, [1.0])
        sim.write_trajectory_csv(path, traj, err, stream=stream)
    assert path.read_bytes() == _reference_csv(traj, err)
    assert forks == []
    _assert_no_worker_left(tmp_path, ["traj.csv"])


@pytest.mark.parametrize("decimate", [1, 7])
def test_stream_keeps_no_recorder_block(tmp_path, monkeypatch, decimate):
    # a streamed run holds only the rows it did not hand over, and no block
    # outlives its handover: memory follows RECORD_BLOCK, not the run
    _streaming(monkeypatch)
    handed, held = [], []
    take, trajectory = sim.CsvStream._take, sim._Recorder.trajectory

    def taken(self, block, decimation):
        handed.extend(weakref.ref(a) for a in block)
        return take(self, block, decimation)

    def watched(self, info):
        held.extend(weakref.ref(a) for block in self._blocks for a in block)
        return trajectory(self, info)

    def allocating(shape, *args, empty=np.empty, **kwargs):
        # a block handed over is gone before the next is allocated, which can
        # take its memory
        if isinstance(shape, tuple) and shape[:1] == (BLOCK,):
            assert all(ref() is None for ref in handed)
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(sim.CsvStream, "_take", taken)
    monkeypatch.setattr(sim._Recorder, "trajectory", watched)
    monkeypatch.setattr(np, "empty", allocating)
    _, model, obj, d = reference_instance()
    with sim.CsvStream(tmp_path / "traj.csv", U_INF, model) as stream:
        # 40 BLOCK + 1 kept rows and, at decimation 7, a final row between two
        # kept ones: forty full blocks, each handed over, and a 41st
        steps = 40 * BLOCK * decimate + (decimate > 1)
        traj = sim.run_lti(
            _lti_plant(model, d), obj, dec(1e-4), steps=steps, decimation=decimate, stream=stream
        )
        assert traj.info.iterations == steps
        assert traj.first == 40 * BLOCK and traj.kept == 40 * BLOCK + 1
    assert len(traj) == (1 if decimate == 1 else 2) <= BLOCK + 1
    assert len(handed) == 40 * 3 and len(held) == 3
    assert all(ref() is None for ref in handed + held)


def test_streamed_run_memory_does_not_follow_its_length(tmp_path, monkeypatch):
    monkeypatch.setattr(sim, "RECORD_BLOCK", 256)
    _, model, obj, d = reference_instance()

    def peak(blocks):
        """The traced peak of a streamed decimation-1 run of ``blocks`` full blocks."""
        path = tmp_path / f"{blocks}.csv"
        tracemalloc.start()
        try:
            with sim.CsvStream(path, U_INF, model) as stream:
                traj = sim.run_lti(
                    _lti_plant(model, d), obj, dec(1e-4), steps=blocks * 256, stream=stream
                )
                sim.write_trajectory_csv(path, traj, sim.metrics(traj, U_INF, model), stream)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short = peak(10)
    # one block of (u, y, x) rows, n = n_state = 2
    assert peak(40) <= short + 256 * 6 * 8


# the kept rows at which an "edge" run diverges: the first of the third block of
# BLOCK rows, which is not yet allocated, and the last of the second, a full block
EDGES = {"nonfinite-first": 2 * BLOCK, "nonfinite-last": 2 * BLOCK - 1}


def _ending_run(loop, ending, decimate=1, stream=None, spacing=None):
    """A run of the reference instance that ends as ``ending`` says, its trajectory
    (the finite rows when it diverges) and metrics against u_star.  An edge run
    diverges at its kept row EDGES[ending] at decimation ``spacing`` (``decimate``
    when None), whatever decimation it records at."""
    _, model, obj, d = reference_instance()
    if ending in EDGES:
        obj = _DivergingObjective(EDGES[ending] * (spacing or decimate))
    cfg, steps = {
        "early": (dec(0.1), 10**5),  # stops after 124 (algebraic) or 109 (lti) updates
        "budget": (dec(0.01), 999),
        "budget-kept": (dec(0.01), 1050),  # a multiple of every decimation tried
        "nonfinite": (cen(1e3 if loop == "algebraic" else 2.0), 10**4),  # steps 91, 1195
        "nonfinite-first": (dec(0.001), 10**4),  # stops after 11,124 or 11,114 updates
        "nonfinite-last": (dec(0.001), 10**4),
    }[ending]
    run = {"steps": steps, "decimation": decimate, "stream": stream}
    try:
        if loop == "algebraic":
            traj = sim.run_algebraic(model, obj, d, cfg, **run)
        else:
            traj = sim.run_lti(_lti_plant(model, d), obj, cfg, **run)
        step = None
    except NonFinite as exc:
        traj, step = exc.trajectory, exc.step
    return traj, step, sim.metrics(traj, U_STAR, model)


@pytest.mark.parametrize(
    "ending", ["early", "budget", "budget-kept", "nonfinite", "nonfinite-first", "nonfinite-last"]
)
@pytest.mark.parametrize("loop", ["algebraic", "lti"])
@pytest.mark.parametrize("decimate", [1, 7, 50])
def test_decimated_run_equals_the_full_run(tmp_path, monkeypatch, ending, loop, decimate):
    full, full_step, full_err = _ending_run(loop, ending, spacing=decimate)
    assert (full_step is None) == (not ending.startswith("nonfinite"))
    assert full.info.early_stopped == (ending == "early")
    _streaming(monkeypatch)
    path = tmp_path / "traj.csv"
    with sim.CsvStream(path, U_STAR, reference_instance()[1]) as stream:
        traj, step, err = _ending_run(loop, ending, decimate, stream)
        sim.write_trajectory_csv(path, traj, err, stream)
    # the same run without a stream holds every row it keeps
    plain, plain_step, _ = _ending_run(loop, ending, decimate)
    # the run holds the kept rows from ``first`` on, those not handed over
    first = traj.first
    rows = _kept(len(full), decimate)[first:]
    assert first % BLOCK == 0 and plain.first == 0
    assert step == plain_step == full_step and traj.info == plain.info == full.info
    assert traj.decimation == decimate and traj.kept == len(range(0, len(full), decimate))
    if ending in EDGES:
        # the second block goes over only once kept row 2 BLOCK is recorded
        assert step == EDGES[ending] * decimate and first == BLOCK
    for name in ("u_series", "y_series", "x_series"):
        kept, whole = getattr(traj, name), getattr(full, name)
        if whole is None:
            assert kept is None and getattr(plain, name) is None
            continue
        assert kept.tobytes() == whole[rows].tobytes()
        assert kept[: traj.kept - first].tobytes() == whole[::decimate][first:].tobytes()
        assert getattr(plain, name).tobytes() == whole[_kept(len(full), decimate)].tobytes()
    assert err.rel_err_u[-1].tobytes() == full_err.rel_err_u[-1].tobytes()
    assert path.read_bytes() == _reference_csv(full, full_err, decimate)


def test_run_rejects_decimation_below_one():
    _, model, obj, d = reference_instance()
    with pytest.raises(ValueError, match="decimation must be >= 1, got 0"):
        sim.run_algebraic(model, obj, d, dec(0.1), steps=10, decimation=0)


def test_decimated_run_records_one_block_in_a_long_run(monkeypatch):
    blocks = []
    trajectory = sim._Recorder.trajectory

    def watched(self, info):
        blocks.append(len(self._blocks))
        return trajectory(self, info)

    monkeypatch.setattr(sim._Recorder, "trajectory", watched)
    _, model, obj, d = reference_instance()
    traj = sim.run_lti(_lti_plant(model, d), obj, dec(1e-4), steps=20_000, decimation=100)
    assert traj.info == sim.RunInfo(20_000, False)
    # 201 kept rows, k = 0, 100, ..., 20,000: one block of RECORD_BLOCK rows
    assert blocks == [1] and len(traj) == traj.kept == 201
    assert traj.x_series.shape == (201, 2)


def test_streamed_csv_without_fork_hands_nothing_over(tmp_path, monkeypatch):
    forks = _streaming(monkeypatch)
    monkeypatch.delattr(os, "fork")
    path = tmp_path / "traj.csv"
    traj, err = _stream_run(path, "lti", 1, steps=3 * BLOCK)
    assert path.read_bytes() == _reference_csv(traj, err)
    # the run holds every row
    assert traj.first == 0 and len(traj) == 3 * BLOCK + 1 and forks == []
    _assert_no_worker_left(tmp_path, ["traj.csv"])


def _diverging_run(loop, stream=None):
    """The finite rows of a reference-instance run that diverges (at step 91 or 1195)."""
    _, model, obj, d = reference_instance()
    with pytest.raises(NonFinite) as info:
        if loop == "algebraic":
            sim.run_algebraic(model, obj, d, cen(1e3), steps=10**4, stream=stream)
        else:
            sim.run_lti(_lti_plant(model, d), obj, cen(2.0), steps=10**4, stream=stream)
    return info.value.trajectory


@pytest.mark.parametrize("loop", ["algebraic", "lti"])
def test_streamed_csv_of_a_diverged_run(tmp_path, monkeypatch, loop):
    forks = _streaming(monkeypatch)
    model = reference_instance()[1]
    full = _diverging_run(loop)
    path = tmp_path / "traj.csv"
    with sim.CsvStream(path, U_STAR, model) as stream:
        traj = _diverging_run(loop, stream)
        # blocks were streamed before the divergence
        assert traj.first >= BLOCK and len(forks) == 1
        sim.write_trajectory_csv(path, traj, sim.metrics(traj, U_STAR, model), stream=stream)
    assert path.read_bytes() == _reference_csv(full, sim.metrics(full, U_STAR, model))
    _assert_no_worker_left(tmp_path, ["traj.csv"])


def _alarm(seconds):
    """Fail the test, instead of hanging, once ``seconds`` have passed."""

    def expired(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    return previous


def _end_alarm(previous):
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_exception_in_the_loop_leaves_no_worker_or_file(tmp_path, monkeypatch):
    forks = _streaming(monkeypatch)
    update_map = sim.update_map

    def failing_update_map(*args):
        update = update_map(*args)
        calls = []

        def failing(u, y, out=None):
            calls.append(1)
            if len(calls) == 3 * BLOCK:
                raise RuntimeError("update failed")
            return update(u, y, out)

        return failing

    monkeypatch.setattr(sim, "update_map", failing_update_map)
    previous = _alarm(30)
    try:
        with pytest.raises(RuntimeError, match="update failed"):
            _stream_run(tmp_path / "traj.csv", "lti", 1, steps=10 * BLOCK)
    finally:
        _end_alarm(previous)
    assert len(forks) == 1
    _assert_no_worker_left(tmp_path, [])


def test_interleaved_streams_complete_first_one_first(tmp_path, monkeypatch):
    forks = _streaming(monkeypatch)
    _, model, obj, d = reference_instance()
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    previous = _alarm(30)
    try:
        with sim.CsvStream(paths[0], U_STAR) as first, sim.CsvStream(paths[1], U_STAR) as second:
            # the second worker is forked while the first stream's pipe is open
            runs = [
                sim.run_algebraic(model, obj, d, cen(0.01), steps=3 * BLOCK, stream=stream)
                for stream in (first, second)
            ]
            assert len(forks) == 2
            for path, traj, stream in zip(paths, runs, (first, second)):
                sim.write_trajectory_csv(path, traj, sim.metrics(traj, U_STAR), stream=stream)
    finally:
        _end_alarm(previous)
    expected = _reference_csv(*_reference_run("algebraic", 3 * BLOCK))
    assert [path.read_bytes() for path in paths] == [expected, expected]
    _assert_no_worker_left(tmp_path, ["first.csv", "second.csv"])


def test_a_process_holding_the_pipe_does_not_delay_completion(tmp_path, monkeypatch):
    forks = _streaming(monkeypatch)
    _, model, obj, d = reference_instance()
    path = tmp_path / "traj.csv"
    previous = _alarm(30)
    try:
        with sim.CsvStream(path, U_STAR) as stream:
            traj = sim.run_algebraic(model, obj, d, cen(0.01), steps=3 * BLOCK, stream=stream)
            # a child forked during the run, as a fork-started multiprocessing
            # one would be, holds the write end of the worker's pipe
            holder = os.fork()
            if holder == 0:
                time.sleep(60)
                os._exit(0)
            try:
                sim.write_trajectory_csv(path, traj, sim.metrics(traj, U_STAR), stream=stream)
            finally:
                os.kill(holder, signal.SIGKILL)
                os.waitpid(holder, 0)
    finally:
        _end_alarm(previous)
    assert len(forks) == 2
    assert path.read_bytes() == _reference_csv(*_reference_run("algebraic", 3 * BLOCK))
    _assert_no_worker_left(tmp_path, ["traj.csv"])


def _exited(pid) -> bool:
    """Whether ``pid``, not a child of this process, has exited (or awaits its reaper)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


def test_worker_exits_when_its_process_dies(tmp_path, monkeypatch):
    _streaming(monkeypatch)
    _, model, obj, d = reference_instance()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        # a process that dies, without cleanup, while its two streams' workers
        # wait for rows; the second worker was forked while the first
        # stream's pipe was open
        try:
            os.close(read_end)
            workers = []
            for name in ("first.csv", "second.csv"):
                stream = sim.CsvStream(tmp_path / name, U_STAR)
                sim.run_algebraic(model, obj, d, cen(0.01), steps=2 * BLOCK, stream=stream)
                workers.append(stream._pid)
            os.write(write_end, " ".join(map(str, workers)).encode())
        finally:
            os._exit(0)
    os.close(write_end)
    # one read, not one to the end: the workers inherited the write end too
    workers = [int(w) for w in os.read(read_end, 100).split()]
    os.close(read_end)
    os.waitpid(pid, 0)
    assert len(workers) == 2
    # each orphaned worker sees its pipe end and exits
    deadline = time.monotonic() + 30
    while not all(map(_exited, workers)):
        if time.monotonic() > deadline:
            for worker in workers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(worker, signal.SIGKILL)
            pytest.fail("a worker outlived its process")
        time.sleep(0.01)


# runs ``ofo`` with argv; prints the CSV worker's pid once the first handover
# has forked it, and waits there to be killed
KILLED_RUN = """
import sys, time
from ofonet import cli, sim

start = sim.CsvStream._start

def started(self, *args):
    start(self, *args)
    print(self._pid, flush=True)
    time.sleep(60)

sim.CsvStream._start = started
cli.main(sys.argv[1:])
"""


def test_a_killed_run_leaves_nothing_behind(tmp_path):
    config = tmp_path / "config.json"
    run = {"grid": {}, "controller": {"eta": 0.001}, "simulation": {"loop": "lti"}}
    config.write_text(json.dumps(run), encoding="utf-8")
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(sim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["--config", str(config), "--out", str(out), "grid", "simulate"]
    driver = subprocess.Popen(
        [sys.executable, "-c", KILLED_RUN, *argv], stdout=subprocess.PIPE, env=env
    )
    try:
        worker = int(driver.stdout.readline())
    finally:
        driver.kill()
        driver.wait()
        driver.stdout.close()
    # the orphaned worker sees its pipe end and exits
    deadline = time.monotonic() + 30
    while not _exited(worker):
        if time.monotonic() > deadline:
            os.kill(worker, signal.SIGKILL)
            pytest.fail("the worker outlived its killed process")
        time.sleep(0.01)
    assert os.listdir(out) == []


def test_csv_decimation(tmp_path):
    _, model, obj, d = reference_instance()
    traj = sim.run_algebraic(model, obj, d, dec(0.1), steps=22, decimation=5)
    err = sim.metrics(traj, U_INF)
    path = tmp_path / "dec.csv"
    sim.write_trajectory_csv(path, traj, err)
    rows = list(csv.reader(path.read_text().splitlines()))
    ks = [int(r[0]) for r in rows[1:]]
    # the final row, step 22, is recorded but not written
    assert ks == list(range(0, 23, 5)) and len(traj) == len(ks) + 1


def test_csv_includes_states_and_combined(tmp_path):
    _, model, obj, d = reference_instance()
    plant = LtiPlant(
        A=np.zeros((2, 2)), B=model.H, C=np.eye(2), D=np.zeros((2, 2)), d=d
    )
    traj = sim.run_lti(plant, obj, dec(0.1), steps=30)
    err = sim.metrics(traj, U_INF, model)
    path = tmp_path / "lti.csv"
    sim.write_trajectory_csv(path, traj, err)
    header = path.read_text().splitlines()[0].split(",")
    assert header == [
        "k", "u_1", "u_2", "y_1", "y_2", "x_1", "x_2", "rel_err_u", "combined_sq",
    ]


def test_steady_state_matches_sensitivity(rng):
    # holding u fixed, the dynamic loop settles onto y = H u + d
    from conftest import random_stable_instance

    plant, model, _, d = random_stable_instance(rng)
    u = rng.standard_normal(model.n)
    x = np.zeros(plant.n_state)
    for _ in range(3000):
        x = plant.A @ x + plant.B @ u
    y = plant.C @ x + plant.D @ u + d
    npt.assert_allclose(y, model.H @ u + d, atol=1e-8)
