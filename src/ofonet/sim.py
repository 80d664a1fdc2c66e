"""Closed-loop execution of controller-plant interconnections.

Two loop kinds run one recording loop.  The algebraic loop evaluates the
steady-state map directly,

    y_k = H u_k + d,    u_{k+1} = controller(u_k, y_k),

while the dynamic loop adds the plant state: at iteration k the
controller reads y_k computed from (x_k, u_k), then the input and the
state both advance once (synchronous interconnection).  ``run_algebraic``
and ``run_lti`` only validate their inputs and choose the plant step,
with or without the state block; the loop itself, recording, divergence
and early stop included, is written once.

The loop applies one update map built by ``controller.update_map`` once
per run.  Runs early-stop when successive iterates move less than
EARLY_STOP_TOL.  The one divergence rule is the output test: a run
raises NonFinite(k), carrying the k rows before, when y_k is not finite,
the last output included.  It covers the input and the state, since a
non-finite u_k or x_k makes y_k non-finite.  So a ``Trajectory``, which
only the loop builds, is finite.  ``RunInfo`` holds only what the loop
found out: the updates performed and whether the run stopped early.

Sweep rows run as one batched loop, ``_run_algebraic_batch``: the
decentralized algebraic loop of B scenarios on stacked (B, n) arrays,
which reproduces each scenario's ``run_algebraic`` final iterate and
divergence step bit for bit and records no trajectory.

Rows are recorded into arrays that grow RECORD_BLOCK rows at a time, so
memory follows the iterations actually run, not the step budget.
``metrics`` alone computes a run's per-step errors (rel_err_u and, for a
dynamic run given a model, the combined squared error).

CSV format contract: each data row is formatted by one template,
"%d" for k then ",%.17g" per value, and written CSV_CHUNK_ROWS rows at a
time.  17 significant digits round-trip every float64 exactly, and
"%.17g" renders -0.0, subnormals, inf and nan as format(v, ".17g") does,
so identical configurations reproduce byte-identical files.  The chunks
are split into one contiguous share per usable CPU; forked workers
format every share but the first into temporary files, which are
appended in order, so the bytes do not depend on the CPU count.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import secrets
import shutil
import signal
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .controller import ControllerConfig, update_map
from .errors import NonFinite, as_vector
from .plant import LtiPlant, SensitivityModel, compute_sensitivity

__all__ = [
    "EARLY_STOP_TOL",
    "DEFAULT_STEPS",
    "RunInfo",
    "Trajectory",
    "ErrorMetrics",
    "run_algebraic",
    "run_lti",
    "metrics",
    "write_trajectory_csv",
]

EARLY_STOP_TOL = 1e-12
DEFAULT_STEPS = 10**5
# rows per recorder block and per formatted CSV chunk
RECORD_BLOCK = 1024
CSV_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class RunInfo:
    iterations: int  # controller updates performed
    early_stopped: bool


@dataclass(frozen=True)
class Trajectory:
    """Recorded closed-loop iterates; row k holds (u_k, y_k[, x_k]), each finite."""

    u_series: NDArray[np.float64]
    y_series: NDArray[np.float64]
    x_series: Optional[NDArray[np.float64]]
    info: RunInfo

    def __len__(self) -> int:
        return self.u_series.shape[0]


@dataclass(frozen=True)
class ErrorMetrics:
    """Per-step errors; ``absolute`` is set when the reference is zero."""

    rel_err_u: NDArray[np.float64]
    combined_sq: Optional[NDArray[np.float64]]
    absolute: bool = False


def _start(value, n: int, name: str) -> NDArray[np.float64]:
    """A finite start vector of length ``n``; zeros when ``value`` is None."""
    return np.zeros(n) if value is None else as_vector(value, n, name, finite=True)


class _Recorder:
    """Rows (u_k, y_k[, x_k]) of a run, in arrays grown RECORD_BLOCK rows at a time."""

    def __init__(self, n: int, n_state: Optional[int] = None):
        self._widths = (n, n) if n_state is None else (n, n, n_state)
        self._blocks: list = []
        self._row = RECORD_BLOCK

    def append(self, u, y, x=None) -> None:
        if self._row == RECORD_BLOCK:
            block = [np.empty((RECORD_BLOCK, w)) for w in self._widths]
            self._blocks.append(block)
            self._u, self._y, *rest = block
            self._x = rest[0] if rest else None
            self._row = 0
        r = self._row
        self._u[r] = u
        self._y[r] = y
        if x is not None:
            self._x[r] = x
        self._row = r + 1

    def trajectory(self, info: RunInfo) -> Optional[Trajectory]:
        """The recorded rows as a Trajectory; None when nothing was recorded."""
        if not self._blocks:
            return None
        *full, last = self._blocks
        series = [
            np.concatenate([b[i] for b in full] + [last[i][: self._row]])
            for i in range(len(self._widths))
        ]
        x = series[2] if len(series) == 3 else None
        return Trajectory(u_series=series[0], y_series=series[1], x_series=x, info=info)


def _finite(v) -> bool:
    """Whether every entry of the float vector ``v`` is finite.

    v @ v is finite only then, so the elementwise test runs only when
    that sum of squares is not: a non-finite entry, or an overflow.
    """
    return math.isfinite(v @ v) or bool(np.isfinite(v).all())


def _norm(v, axis=None):
    """np.linalg.norm(v, axis=axis) of a vector (axis None) or of each row (axis 1).

    A norm whose squares overflow reads inf although it may fit: it is
    recomputed as s ||v / s||, s the largest magnitude (fmax keeps inf
    where s is inf, which the rescaling would turn into NaN).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(v, axis=axis)
        big = np.isinf(norm)
        if big.any():
            norm, big = np.atleast_1d(norm, big)
            rows = np.atleast_2d(v)[big]
            scale = np.max(np.abs(rows), axis=1)
            norm[big] = np.fmax(scale, scale * np.linalg.norm(rows / scale[:, None], axis=1))
    return norm if axis is not None else norm.item()


def _step_norm(v_next, v) -> float:
    """||v_next - v|| as np.linalg.norm computes it; inf or nan never passes a tolerance."""
    dv = v_next - v
    return math.sqrt(dv @ dv)


def _run(advance, cfg, obj, model, u, x, steps) -> Trajectory:
    """The recording closed loop of ``run_algebraic`` and ``run_lti``.

    ``advance(x, u)`` returns the plant's next state (None when ``x`` is
    None: no state block) and its output y at (x, u).  ``u`` and ``x``
    are validated start vectors.  Only y is tested: a non-finite u_k or
    x_k makes y_k non-finite, which raises at step k all the same.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    update = update_map(cfg, obj, model)
    rec = _Recorder(u.size, None if x is None else x.size)
    early = False
    # overflow past float range is the divergence signal, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        # row k follows k updates; the last pass (k == steps, or early) only records
        for k in range(steps + 1):
            x_next, y = advance(x, u)
            if not _finite(y):
                raise NonFinite(k, rec.trajectory(RunInfo(k, early)))
            rec.append(u, y, x)
            if k == steps or early:
                return rec.trajectory(RunInfo(k, early))
            u_next = update(u, y)
            delta_u = _step_norm(u_next, u)
            delta_x = 0.0 if x is None else _step_norm(x_next, x)
            u, x = u_next, x_next
            early = delta_u < EARLY_STOP_TOL and delta_x < EARLY_STOP_TOL


def run_algebraic(
    model: SensitivityModel,
    obj,
    d,
    cfg: ControllerConfig,
    u0=None,
    steps: int = DEFAULT_STEPS,
) -> Trajectory:
    """Run the steady-state (algebraic) closed loop for up to ``steps`` updates.

    The output is y = H u + d itself, with no state term, so a -0.0
    output stays -0.0.
    """
    H, d = model.H, _start(d, model.n, "d")
    u = _start(u0, model.n, "u0")
    return _run(lambda x, u: (None, H @ u + d), cfg, obj, model, u, None, steps)


def run_lti(
    plant: LtiPlant,
    obj,
    cfg: ControllerConfig,
    x0=None,
    u0=None,
    steps: int = DEFAULT_STEPS,
) -> Trajectory:
    """Run the closed loop against the full plant dynamics.

    Early stop requires both the input and the state increments to fall
    below EARLY_STOP_TOL, so a still-settling plant keeps the run alive
    even once the controller has effectively frozen.
    """
    A, B, C, D, dist = plant.A, plant.B, plant.C, plant.D, plant.d
    x = _start(x0, plant.n_state, "x0")
    u = _start(u0, plant.n, "u0")
    return _run(
        lambda x, u: (A @ x + B @ u, C @ x + D @ u + dist),
        cfg, obj, compute_sensitivity(plant), u, x, steps,
    )


def _run_algebraic_batch(
    H, d, y_ref, gamma1: float, gamma2: float, eta: float, steps: int
) -> tuple[NDArray[np.float64], list[Optional[int]]]:
    """Final iterates of B decentralized algebraic loops from u_0 = 0.

    Scenario b is the loop ``run_algebraic`` runs on the sensitivity
    H[b], disturbance d[b] and the quadratic objective (gamma1, gamma2,
    y_ref[b]) in decentralized mode with step ``eta``.  Package-internal:
    it serves the conductance sweep, which needs only the last iterate.

    Every scenario sees the operations of ``run_algebraic``, slice by
    slice: y = H u + d is a stacked gemv, the update is
    ``update_map``'s decentralized formula in the same operation order,
    and the squared step norm is a stacked dot product.  So each final
    iterate equals ``run_algebraic(...).u_series[-1]`` exactly.  As in
    ``_run``, only y is tested (a non-finite u_k makes y_k non-finite),
    and the last pass only tests: a scenario that early-stops leaves the
    stacked arrays once its last output has passed.

    Returns the (B, n) final iterates and, per scenario, the step at
    which it diverged (as ``NonFinite.step``) or None; a diverged
    scenario's row of iterates is NaN.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    # columns (B, n, 1): every product below is a stacked matrix-vector one
    H = np.asarray(H, dtype=float)
    d = np.asarray(d, dtype=float)[:, :, None]
    y_ref = np.asarray(y_ref, dtype=float)[:, :, None]
    h_diag = np.diagonal(H, axis1=1, axis2=2)[:, :, None]
    B = H.shape[0]
    finals = np.full(d.shape[:2], np.nan)
    diverged: list[Optional[int]] = [None] * B
    rows = np.arange(B)
    u = np.zeros_like(d)
    stopped = np.zeros(B, dtype=bool)

    def retire(leaving, step=None):
        """Drop the scenarios ``leaving``, which diverged at ``step`` if given."""
        nonlocal rows, H, d, y_ref, h_diag, u, y, stopped
        for b in rows[leaving].tolist():
            diverged[b] = step
        keep = ~leaving
        rows, H, d, y_ref, h_diag, u, y, stopped = (
            a[keep] for a in (rows, H, d, y_ref, h_diag, u, y, stopped)
        )

    # overflow past float range is the divergence signal, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        # as in _run, the last pass (k == steps, or after an early stop) only tests
        for k in range(steps + 1):
            y = H @ u + d
            if not math.isfinite(y.sum()):
                retire(~np.isfinite(y).all(axis=(1, 2)), k)
            if stopped.any():
                finals[rows[stopped]] = u[stopped, :, 0]
                retire(stopped)
            if k == steps or rows.size == 0:
                break
            u_next = u - eta * (gamma1 * u + h_diag * (gamma2 * (y - y_ref)))
            du = u_next - u
            stopped = np.sqrt((du.transpose(0, 2, 1) @ du)[:, 0, 0]) < EARLY_STOP_TOL
            u = u_next
    finals[rows] = u[:, :, 0]
    return finals, diverged


def metrics(
    trajectory: Trajectory, u_ref, model: Optional[SensitivityModel] = None
) -> ErrorMetrics:
    """Per-step error metrics against a reference input.

    rel_err_u is ||u_k - u_ref|| / ||u_ref|| (absolute when the
    reference is zero, flagged).  For dynamic runs with a model the
    combined squared error ||x_k - H_x u_k||^2 + ||u_k - u_ref||^2 is
    attached; the reference should then be the decentralized fixed point.
    """
    u_ref = as_vector(u_ref, trajectory.u_series.shape[1], "u_ref")
    with np.errstate(over="ignore", invalid="ignore"):
        err = _norm(trajectory.u_series - u_ref, axis=1)
        ref_norm = _norm(u_ref)
        absolute = ref_norm == 0.0
        rel = err if absolute else err / ref_norm
        combined = None
        if trajectory.x_series is not None and model is not None:
            resid = trajectory.x_series - trajectory.u_series @ model.H_x.T
            combined = np.sum(resid**2, axis=1) + err**2
    return ErrorMetrics(rel_err_u=rel, combined_sq=combined, absolute=absolute)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_chunks(fh, starts, ks, columns, row: str) -> None:
    """Format the CSV_CHUNK_ROWS-row chunks of ``ks`` beginning at ``starts``."""
    for start in starts:
        sel = ks[start:start + CSV_CHUNK_ROWS]
        block = np.column_stack([sel] + [c[sel] for c in columns])
        fh.write("".join([row % tuple(r) for r in block.tolist()]).encode())


def _fork_share(write, tmp, share) -> int:
    """Fork a worker that runs ``write(tmp, share)``; it exits 0 on success, else 1.

    The worker leaves through os._exit, so it runs no atexit handler and
    flushes no buffer it inherited.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            write(tmp, share)
            tmp.flush()
            code = 0
        finally:
            os._exit(code)
    return pid


def write_trajectory_csv(
    path, trajectory: Trajectory, err: ErrorMetrics, decimate: int = 1
) -> None:
    """Write a trajectory with its metrics as locale-independent CSV.

    Columns: k, u_1..u_n, y_1..y_n, x_1..x_m (dynamic runs), rel_err_u,
    combined_sq (when present).  ``decimate`` keeps every k-th row;
    metrics must already be computed on the undecimated series.  Each
    row is formatted by one template, "%d" then ",%.17g" per value, so
    every float is written with 17 significant digits (as
    ``format(v, ".17g")``: "-0", "inf", "nan" and subnormals included).

    The CSV_CHUNK_ROWS-row chunks are split into W contiguous shares,
    W = min(usable CPUs, chunks), or 1 where the OS cannot fork.  Before
    the file is opened, W - 1 forked workers format shares 2..W into
    anonymous temporary files in its directory; this process writes the
    header and share 1 to the file, then appends the workers' files in
    share order.  The bytes do not depend on W.  A failed worker raises
    OSError; workers still running when this process fails are killed,
    and every worker is reaped before return.

    The file is written under a hidden temporary name in the directory of
    ``path`` and renamed onto ``path`` only once complete, so a failure
    leaves ``path`` as it was, or absent, and no partial file behind.
    """
    if decimate < 1:
        raise ValueError(f"decimate must be >= 1, got {decimate}")
    n = trajectory.u_series.shape[1]
    header = ["k"]
    header += [f"u_{i + 1}" for i in range(n)]
    header += [f"y_{i + 1}" for i in range(n)]
    columns = [trajectory.u_series, trajectory.y_series]
    if trajectory.x_series is not None:
        header += [f"x_{i + 1}" for i in range(trajectory.x_series.shape[1])]
        columns.append(trajectory.x_series)
    header.append("rel_err_u")
    columns.append(err.rel_err_u)
    if err.combined_sq is not None:
        header.append("combined_sq")
        columns.append(err.combined_sq)
    row = "%d" + ",%.17g" * (len(header) - 1) + "\n"
    ks = np.arange(0, len(trajectory), decimate)
    starts = range(0, ks.size, CSV_CHUNK_ROWS)
    workers = max(1, min(_usable_cpus(), len(starts))) if hasattr(os, "fork") else 1
    shares = [
        starts[i * len(starts) // workers:(i + 1) * len(starts) // workers]
        for i in range(workers)
    ]
    write = functools.partial(_write_chunks, ks=ks, columns=columns, row=row)
    directory, name = os.path.split(os.path.abspath(path))
    partial = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    with contextlib.ExitStack() as stack:
        tmps = [
            stack.enter_context(tempfile.TemporaryFile(dir=directory))
            for _ in shares[1:]
        ]
        pending = {}  # share number -> pid of its worker, until reaped
        try:
            for number, (share, tmp) in enumerate(zip(shares[1:], tmps), start=2):
                pending[number] = _fork_share(write, tmp, share)
            with open(partial, "xb") as fh:
                fh.write((",".join(header) + "\n").encode())
                write(fh, shares[0])
                for number, tmp in enumerate(tmps, start=2):
                    _, status = os.waitpid(pending[number], 0)
                    del pending[number]
                    if status != 0:
                        raise OSError(
                            f"CSV worker for share {number} of {workers} of "
                            f"{path} failed (wait status {status})"
                        )
                    tmp.seek(0)
                    shutil.copyfileobj(tmp, fh)
            os.replace(partial, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(partial)
            raise
        finally:
            # workers left here outlived a failure of this process
            for pid in pending.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
