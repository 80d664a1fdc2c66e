import contextlib
import csv
import dataclasses
import os
import signal
import time
import weakref

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


def _replay(trajectory, stream):
    """Record ``trajectory`` row by row as a run would, handing its blocks to ``stream``."""
    u, y, x = trajectory.u_series, trajectory.y_series, trajectory.x_series
    rec = sim._Recorder(u.shape[1], None if x is None else x.shape[1], stream._take)
    for k in range(len(trajectory)):
        rec.append(u[k], y[k], None if x is None else x[k])


def _streamed_csv(path, trajectory, err, decimate=1):
    with sim.CsvStream(path, decimate) as stream:
        _replay(trajectory, stream)
        sim.write_trajectory_csv(path, trajectory, err, decimate, stream)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("loop", ["algebraic", "lti"])
@pytest.mark.parametrize("decimate", [1, 7])
def test_csv_bytes_do_not_depend_on_worker_count(
    tmp_path, monkeypatch, workers, loop, decimate
):
    traj, err = _edge_case_run(loop)
    # small blocks and chunks: the worker gets many blocks, its lines are
    # read back in pieces that split lines, and with one CPU this process
    # formats many chunks and a short last one, for both decimations
    monkeypatch.setattr(sim, "RECORD_BLOCK", 64)
    monkeypatch.setattr(sim, "CSV_CHUNK_ROWS", 32)
    monkeypatch.setattr(sim, "JOIN_BYTES", 1000)
    rows = len(range(0, len(traj), decimate))
    assert rows // 32 >= 5 and rows % 32 != 0
    assert (len(traj) - 1) // (64 * decimate) >= 2
    monkeypatch.setattr(sim, "_usable_cpus", lambda: workers)
    forks = _count_forks(monkeypatch)
    path = tmp_path / "traj.csv"
    _streamed_csv(path, traj, err, decimate)
    assert path.read_bytes() == _reference_csv(traj, err, decimate)
    # one worker per file, and none with one CPU
    assert len(forks) == (workers > 1)
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
    monkeypatch.setattr(sim, "CSV_CHUNK_ROWS", 32)
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(sim, "_write_table", _worker_tables(fail=True))
    forks = _count_forks(monkeypatch)
    with pytest.raises(OSError, match="CSV worker of .*traj.csv failed"):
        _streamed_csv(tmp_path / "traj.csv", traj, err)
    assert len(forks) == 1
    # neither a truncated CSV nor its temporary file is left behind
    _assert_no_worker_left(tmp_path, [])


def test_csv_failure_keeps_previous_file(tmp_path, monkeypatch):
    traj, err = _edge_case_run("algebraic")
    path = tmp_path / "traj.csv"
    path.write_bytes(b"previous run\n")
    monkeypatch.setattr(sim, "RECORD_BLOCK", 64)
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(sim, "_write_table", _worker_tables(fail=True))
    forks = _count_forks(monkeypatch)
    with pytest.raises(OSError, match="CSV worker of .*traj.csv failed"):
        _streamed_csv(path, traj, err)
    assert len(forks) == 1
    assert path.read_bytes() == b"previous run\n"
    _assert_no_worker_left(tmp_path, ["traj.csv"])


def test_csv_caller_failure_kills_workers(tmp_path, monkeypatch):
    traj, err = _edge_case_run("algebraic")
    monkeypatch.setattr(sim, "RECORD_BLOCK", 64)
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(sim, "_write_table", _worker_tables(fail=False))
    forks = _count_forks(monkeypatch)
    path = tmp_path / "traj.csv"
    start = time.monotonic()
    # the caller fails while its worker still formats
    with pytest.raises(ValueError, match="the stream is for .*traj.csv at decimation 1"):
        with sim.CsvStream(path) as stream:
            _replay(traj, stream)
            sim.write_trajectory_csv(path, traj, err, decimate=2, stream=stream)
    assert len(forks) == 1
    # the hanging worker was killed, not waited for
    assert time.monotonic() - start < 30
    _assert_no_worker_left(tmp_path, [])


# recorder block of the streaming tests, small enough for many blocks
BLOCK = 16


def _streaming(monkeypatch, workers=2):
    monkeypatch.setattr(sim, "RECORD_BLOCK", BLOCK)
    monkeypatch.setattr(sim, "CSV_CHUNK_ROWS", 5)
    # shorter than one line: some reads of the worker's lines hold no line end
    monkeypatch.setattr(sim, "JOIN_BYTES", 50)
    monkeypatch.setattr(sim, "_usable_cpus", lambda: workers)
    return _count_forks(monkeypatch)


def _lti_plant(model, d):
    return LtiPlant(A=np.zeros((2, 2)), B=model.H, C=np.eye(2), D=np.zeros((2, 2)), d=d)


def _stream_run(path, loop, decimate, steps, eta=0.01):
    """Run the reference instance streaming its CSV; the trajectory, its metrics, the stream."""
    _, model, obj, d = reference_instance()
    with sim.CsvStream(path, decimate) as stream:
        if loop == "algebraic":
            traj = sim.run_algebraic(model, obj, d, cen(eta), steps=steps, stream=stream)
            err = sim.metrics(traj, U_STAR)
        else:
            traj = sim.run_lti(_lti_plant(model, d), obj, dec(eta), steps=steps, stream=stream)
            # fig3's composite: rel_err_u against u_star, combined_sq against
            # the loop's own fixed point
            err = sim.metrics(traj, U_STAR)
            own = sim.metrics(traj, U_INF, model).combined_sq
            err = dataclasses.replace(err, combined_sq=own)
        handed = stream._handed
        sim.write_trajectory_csv(path, traj, err, decimate, stream)
    return traj, err, handed


@pytest.mark.parametrize(
    "blocks, extra", [(0, 2), (1, -1), (1, 0), (1, 1), (2, 1)], ids=["2", "B-1", "B", "B+1", "2B+1"]
)
@pytest.mark.parametrize("loop", ["algebraic", "lti"])
@pytest.mark.parametrize("decimate", [1, 7])
def test_streamed_csv_matches_reference(tmp_path, monkeypatch, blocks, extra, loop, decimate):
    forks = _streaming(monkeypatch)
    # B: the run rows of one handover, which keep BLOCK rows
    unit = BLOCK * decimate
    rows = blocks * unit + extra
    path = tmp_path / "traj.csv"
    traj, err, handed = _stream_run(path, loop, decimate, steps=rows - 1)
    assert len(traj) == rows and not traj.info.early_stopped
    assert path.read_bytes() == _reference_csv(traj, err, decimate)
    # the blocks of a handover go over once the next row is recorded
    assert handed == (rows - 1) // unit * unit
    assert len(forks) == (handed > 0)
    _assert_no_worker_left(tmp_path, ["traj.csv"])


@pytest.mark.parametrize("loop", ["algebraic", "lti"])
def test_streamed_csv_of_a_one_row_run(tmp_path, monkeypatch, loop):
    # a run has two rows at least unless it diverges at step 1
    forks = _streaming(monkeypatch)
    path = tmp_path / "traj.csv"
    obj = QuadraticObjective(1.0, 1.0, [0.0])
    with sim.CsvStream(path) as stream:
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
    # a block held past the run would keep the trajectory twice in memory
    _streaming(monkeypatch)
    refs = []
    trajectory = sim._Recorder.trajectory

    def watched(self, info):
        refs.extend(weakref.ref(a) for block in self._blocks for a in block)
        return trajectory(self, info)

    monkeypatch.setattr(sim._Recorder, "trajectory", watched)
    _, model, obj, d = reference_instance()
    with sim.CsvStream(tmp_path / "traj.csv", decimate) as stream:
        # three full blocks: one handover at decimation 1, none at 7
        sim.run_lti(_lti_plant(model, d), obj, dec(0.01), steps=3 * BLOCK + 1, stream=stream)
        assert len(refs) == 3 * 4 and all(ref() is None for ref in refs)


@pytest.mark.parametrize("without", ["cpus", "fork"])
def test_streamed_csv_with_one_cpu_hands_nothing_over(tmp_path, monkeypatch, without):
    forks = _streaming(monkeypatch, workers=1 if without == "cpus" else 2)
    if without == "fork":
        monkeypatch.delattr(os, "fork")
    path = tmp_path / "traj.csv"
    traj, err, handed = _stream_run(path, "lti", 1, steps=3 * BLOCK)
    assert path.read_bytes() == _reference_csv(traj, err)
    assert handed == 0 and forks == []
    _assert_no_worker_left(tmp_path, ["traj.csv"])


@pytest.mark.parametrize("loop", ["algebraic", "lti"])
def test_streamed_csv_of_a_diverged_run(tmp_path, monkeypatch, loop):
    forks = _streaming(monkeypatch)
    _, model, obj, d = reference_instance()
    path = tmp_path / "traj.csv"
    with sim.CsvStream(path) as stream:
        with pytest.raises(NonFinite) as info:
            if loop == "algebraic":
                sim.run_algebraic(model, obj, d, cen(1e3), steps=10**4, stream=stream)
            else:
                sim.run_lti(_lti_plant(model, d), obj, cen(2.0), steps=10**4, stream=stream)
        traj = info.value.trajectory
        err = sim.metrics(traj, U_STAR, model)
        # blocks were streamed before the divergence
        assert stream._handed >= BLOCK and len(forks) == 1
        sim.write_trajectory_csv(path, traj, err, stream=stream)
    assert path.read_bytes() == _reference_csv(traj, err)
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

        def failing(u, y):
            calls.append(1)
            if len(calls) == 3 * BLOCK:
                raise RuntimeError("update failed")
            return update(u, y)

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
        with sim.CsvStream(paths[0]) as first, sim.CsvStream(paths[1]) as second:
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
    for path, traj in zip(paths, runs):
        assert path.read_bytes() == _reference_csv(traj, sim.metrics(traj, U_STAR))
    _assert_no_worker_left(tmp_path, ["first.csv", "second.csv"])


def test_a_process_holding_the_pipe_does_not_delay_completion(tmp_path, monkeypatch):
    forks = _streaming(monkeypatch)
    _, model, obj, d = reference_instance()
    path = tmp_path / "traj.csv"
    previous = _alarm(30)
    try:
        with sim.CsvStream(path) as stream:
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
    assert path.read_bytes() == _reference_csv(traj, sim.metrics(traj, U_STAR))
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
                stream = sim.CsvStream(tmp_path / name)
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
