import csv
import dataclasses
import os
import time

import numpy as np
import numpy.testing as npt
import pytest
from conftest import reference_instance, static_plant

import ofonet.sim as sim
from ofonet.controller import ControllerConfig, Mode, decentralized_step
from ofonet.errors import NonFinite
from ofonet.objective import QuadraticObjective
from ofonet.plant import LtiPlant

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


def test_recorded_rows_replay_bit_for_bit():
    # every recorded row, across recorder blocks, is one exact loop step
    _, model, obj, d = reference_instance()
    plant = LtiPlant(
        A=np.zeros((2, 2)), B=model.H, C=np.eye(2), D=np.zeros((2, 2)), d=d
    )
    cfg = dec(0.01)
    traj = sim.run_lti(plant, obj, cfg, steps=2500)
    assert len(traj) > sim.RECORD_BLOCK
    u, y, x = traj.u_series, traj.y_series, traj.x_series
    for k in range(len(traj) - 1):
        assert (x[k + 1] == plant.A @ x[k] + plant.B @ u[k]).all()
        assert (y[k] == plant.C @ x[k] + plant.D @ u[k] + plant.d).all()
        assert (u[k + 1] == decentralized_step(cfg, obj, model, u[k], y[k])).all()


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
    """A run of more than one CSV chunk whose cells include float edge cases."""
    _, model, obj, d = reference_instance()
    if loop == "lti":
        plant = LtiPlant(
            A=np.zeros((2, 2)), B=model.H, C=np.eye(2), D=np.zeros((2, 2)), d=d
        )
        traj = sim.run_lti(plant, obj, dec(0.01), steps=2500)
    else:
        traj = sim.run_algebraic(model, obj, d, dec(0.01), steps=2500)
    # more rows than one formatted chunk
    assert len(traj) > sim.CSV_CHUNK_ROWS
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


@pytest.mark.parametrize("loop", ["algebraic", "lti"])
@pytest.mark.parametrize("decimate", [1, 7])
def test_csv_matches_per_value_reference(tmp_path, loop, decimate):
    traj, err = _edge_case_run(loop)
    path = tmp_path / "traj.csv"
    sim.write_trajectory_csv(path, traj, err, decimate=decimate)
    assert path.read_bytes() == _reference_csv(traj, err, decimate)


def _assert_no_worker_left(directory, expected):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir(directory)) == sorted(expected)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("loop", ["algebraic", "lti"])
@pytest.mark.parametrize("decimate", [1, 7])
def test_csv_bytes_do_not_depend_on_worker_count(
    tmp_path, monkeypatch, workers, loop, decimate
):
    traj, err = _edge_case_run(loop)
    # small chunks: >= 5 of them and a short last one, for both decimations
    monkeypatch.setattr(sim, "CSV_CHUNK_ROWS", 32)
    rows = len(range(0, len(traj), decimate))
    assert rows // 32 >= 5 and rows % 32 != 0
    monkeypatch.setattr(sim, "_usable_cpus", lambda: workers)
    path = tmp_path / "traj.csv"
    sim.write_trajectory_csv(path, traj, err, decimate=decimate)
    assert path.read_bytes() == _reference_csv(traj, err, decimate)
    _assert_no_worker_left(tmp_path, ["traj.csv"])


def _failing_chunks(fail_in_worker):
    """A chunk writer that raises in the forked workers or in the caller."""
    parent = os.getpid()
    write_chunks = sim._write_chunks

    def write(fh, starts, **kwargs):
        if (os.getpid() != parent) == fail_in_worker:
            raise RuntimeError("chunk formatting failed")
        if fail_in_worker:
            return write_chunks(fh, starts, **kwargs)
        time.sleep(60)  # a worker the failing caller must kill

    return write


def test_csv_worker_failure_raises(tmp_path, monkeypatch):
    traj, err = _edge_case_run("algebraic")
    monkeypatch.setattr(sim, "CSV_CHUNK_ROWS", 32)
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(sim, "_write_chunks", _failing_chunks(fail_in_worker=True))
    with pytest.raises(OSError, match="share 2 of 3"):
        sim.write_trajectory_csv(tmp_path / "traj.csv", traj, err)
    # neither a truncated CSV nor its temporary file is left behind
    _assert_no_worker_left(tmp_path, [])


def test_csv_failure_keeps_previous_file(tmp_path, monkeypatch):
    traj, err = _edge_case_run("algebraic")
    path = tmp_path / "traj.csv"
    path.write_bytes(b"previous run\n")
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(sim, "_write_chunks", _failing_chunks(fail_in_worker=True))
    with pytest.raises(OSError, match="share 2 of 2"):
        sim.write_trajectory_csv(path, traj, err)
    assert path.read_bytes() == b"previous run\n"
    _assert_no_worker_left(tmp_path, ["traj.csv"])


def test_csv_caller_failure_kills_workers(tmp_path, monkeypatch):
    traj, err = _edge_case_run("algebraic")
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(sim, "_write_chunks", _failing_chunks(fail_in_worker=False))
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="chunk formatting failed"):
        sim.write_trajectory_csv(tmp_path / "traj.csv", traj, err)
    # the sleeping worker was killed, not waited for
    assert time.monotonic() - start < 30
    _assert_no_worker_left(tmp_path, [])


def test_csv_decimation(tmp_path):
    _, model, obj, d = reference_instance()
    traj = sim.run_algebraic(model, obj, d, dec(0.1), steps=20)
    err = sim.metrics(traj, U_INF)
    path = tmp_path / "dec.csv"
    sim.write_trajectory_csv(path, traj, err, decimate=5)
    rows = list(csv.reader(path.read_text().splitlines()))
    ks = [int(r[0]) for r in rows[1:]]
    assert ks == list(range(0, len(traj), 5))


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
