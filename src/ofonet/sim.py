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

CSV format contract: each data row is "%d" for k then ",%.17g" per
value.  17 significant digits round-trip every float64 exactly, and
"%.17g" renders -0.0, subnormals, inf and nan as format(v, ".17g") does,
so identical configurations reproduce byte-identical files.  The CSV is
formatted while the loop runs: a ``CsvStream`` opened before the run
hands the full recorder blocks, RECORD_BLOCK kept rows at a time, to
one forked worker, which formats the k, u, y[, x] cells of those rows.
``write_trajectory_csv`` completes the file after the loop: it reaps
the worker, ends each of its lines with the row's rel_err_u[,
combined_sq] cells from the caller's metrics, and formats the rows
recorded since the last handover itself.  A line is the same template
applied to the same row whoever formats it, so the bytes do not depend
on the CPU count or on where the rows were split.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
import secrets
import signal
import struct
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .controller import ControllerConfig, update_map
from .errors import NonFinite, _norm, as_vector
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
    "CsvStream",
    "write_trajectory_csv",
]

EARLY_STOP_TOL = 1e-12
DEFAULT_STEPS = 10**5
# rows per recorder block and per formatted CSV chunk; bytes per read of
# the CSV worker's lines
RECORD_BLOCK = 1024
CSV_CHUNK_ROWS = 1024
JOIN_BYTES = 1 << 18


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

    def __init__(self, n: int, n_state: Optional[int] = None, on_full=None):
        self._widths = (n, n) if n_state is None else (n, n, n_state)
        self._blocks: list = []
        self._row = RECORD_BLOCK
        self._on_full = on_full  # called with the blocks each time the last one is full

    def append(self, u, y, x=None) -> None:
        if self._row == RECORD_BLOCK:
            if self._blocks and self._on_full is not None:
                self._on_full(self._blocks)
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


def _step_norm(v_next, v) -> float:
    """||v_next - v|| as np.linalg.norm computes it; inf or nan never passes a tolerance."""
    dv = v_next - v
    return math.sqrt(dv @ dv)


def _run(advance, cfg, obj, model, u, x, steps, stream) -> Trajectory:
    """The recording closed loop of ``run_algebraic`` and ``run_lti``.

    ``advance(x, u)`` returns the plant's next state (None when ``x`` is
    None: no state block) and its output y at (x, u).  ``u`` and ``x``
    are validated start vectors.  Only y is tested: a non-finite u_k or
    x_k makes y_k non-finite, which raises at step k all the same.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    update = update_map(cfg, obj, model)
    on_full = None if stream is None else stream._take
    rec = _Recorder(u.size, None if x is None else x.size, on_full)
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
    stream: Optional[CsvStream] = None,
) -> Trajectory:
    """Run the steady-state (algebraic) closed loop for up to ``steps`` updates.

    The output is y = H u + d itself, with no state term, so a -0.0
    output stays -0.0.  Each full recorder block goes to ``stream``.
    """
    H, d = model.H, _start(d, model.n, "d")
    u = _start(u0, model.n, "u0")
    return _run(lambda x, u: (None, H @ u + d), cfg, obj, model, u, None, steps, stream)


def run_lti(
    plant: LtiPlant,
    obj,
    cfg: ControllerConfig,
    x0=None,
    u0=None,
    steps: int = DEFAULT_STEPS,
    stream: Optional[CsvStream] = None,
) -> Trajectory:
    """Run the closed loop against the full plant dynamics.

    Early stop requires both the input and the state increments to fall
    below EARLY_STOP_TOL, so a still-settling plant keeps the run alive
    even once the controller has effectively frozen.  Each full recorder
    block goes to ``stream``.
    """
    A, B, C, D, dist = plant.A, plant.B, plant.C, plant.D, plant.d
    x = _start(x0, plant.n_state, "x0")
    u = _start(u0, plant.n, "u0")
    return _run(
        lambda x, u: (A @ x + B @ u, C @ x + D @ u + dist),
        cfg, obj, compute_sensitivity(plant), u, x, steps, stream,
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


def _rows(ks: range, start: int = 0) -> slice:
    """The array rows of run rows ``ks``, for arrays whose row 0 is run row ``start``."""
    return slice(ks.start - start, ks.stop - start, ks.step)


def _table(ks: range, columns, start: int = 0):
    """Run rows ``ks`` as one float array: k, then the row of each column."""
    rows = _rows(ks, start)
    return np.column_stack([np.arange(ks.start, ks.stop, ks.step)] + [c[rows] for c in columns])


def _write_table(fh, table) -> None:
    """Write each row of ``table`` as one line: "%d" for k, then ",%.17g" per cell."""
    row = b"%d" + b",%.17g" * (table.shape[1] - 1) + b"\n"
    fh.write(b"".join([row % tuple(r) for r in table.tolist()]))


def _format_notices(notices, data, out) -> None:
    """The CSV worker: write each table that ``notices`` announces in ``data`` to ``out``.

    A notice is (rows, cols), the shape of the next float64 table of
    ``data``.  The end notice (0, 0), sent at completion, or the end of
    ``notices``, at the death of the stream's process, ends the worker.
    """
    offset = 0
    while head := notices.read(_NOTICE.size):
        rows, cols = _NOTICE.unpack(head)
        if rows == 0:
            break
        size = 8 * rows * cols
        table = np.frombuffer(os.pread(data.fileno(), size, offset)).reshape(rows, cols)
        offset += size
        _write_table(out, table)
    out.flush()


_NOTICE = struct.Struct("qq")


class CsvStream:
    """The CSV of one run, formatted by a forked worker while the run records it.

    Open it in a ``with`` block before the run, and pass it to
    ``run_algebraic`` or ``run_lti`` and then to ``write_trajectory_csv``,
    which completes the file.  The full recorder blocks go to one worker,
    forked at the first handover, ``decimate`` blocks (so RECORD_BLOCK
    kept rows) at a time; it formats the k, u, y[, x] cells of the kept
    rows while the loop keeps stepping.  The rows reach it through an
    anonymous temporary file beside ``path``, announced on a pipe, and
    its lines go to a second one.  With one usable CPU, or where the OS
    cannot fork, nothing is handed over.  Leaving the ``with`` block
    kills a worker still running.  Completion stops the worker by an end
    notice, so another stream's worker or any child forked meanwhile,
    which inherits the pipe's write end, cannot keep it waiting.  A
    worker whose process dies sees the pipe's end once every process
    forked after it has let go of it, and exits.
    """

    def __init__(self, path, decimate: int = 1):
        if decimate < 1:
            raise ValueError(f"decimate must be >= 1, got {decimate}")
        self.path, self.decimate = os.path.abspath(path), decimate
        self._parallel = hasattr(os, "fork") and _usable_cpus() > 1
        self._handed = 0  # rows 0.._handed - 1 of the run went to the worker
        self._pid = self._notices = None
        self._files: list = []  # the worker's rows and its lines

    def __enter__(self) -> "CsvStream":
        return self

    def __exit__(self, *exc) -> None:
        self._end_notices()
        # a worker still running here outlived a failure of this process
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        for f in self._files:
            f.close()

    def _end_notices(self) -> None:
        if self._notices is not None:
            os.close(self._notices)
            self._notices = None

    def _take(self, blocks) -> None:
        """The recorder's hook: hand over its full ``blocks`` ``decimate`` at a time.

        So each handover keeps RECORD_BLOCK rows: a decimated run forks
        no worker for a few rows.  No block is kept here, so none
        outlives the recorder.
        """
        if len(blocks) * RECORD_BLOCK == self._handed + self.decimate * RECORD_BLOCK:
            for block in blocks[-self.decimate:]:
                self._hand(block, self._handed + RECORD_BLOCK)

    def _hand(self, columns, stop: int) -> None:
        """Hand rows _handed..stop - 1 (row 0 of ``columns``) to the worker."""
        if not self._parallel:
            return
        if self._pid is None:
            self._start()
        first = -(-self._handed // self.decimate) * self.decimate
        ks = range(first, stop, self.decimate)
        if ks:
            table = _table(ks, columns, self._handed)
            data = self._files[0]
            data.write(table)
            data.flush()
            # a dead worker is reported by its exit status at completion
            with contextlib.suppress(BrokenPipeError):
                os.write(self._notices, _NOTICE.pack(*table.shape))
        self._handed = stop

    def _start(self) -> None:
        directory = os.path.dirname(self.path)
        self._files = [tempfile.TemporaryFile(dir=directory) for _ in range(2)]
        read_end, self._notices = os.pipe()
        self._pid = os.fork()
        if self._pid == 0:
            # the worker leaves through os._exit: no atexit handler, no inherited buffer
            code = 1
            try:
                os.close(self._notices)
                with open(read_end, "rb") as notices:
                    _format_notices(notices, *self._files)
                code = 0
            finally:
                os._exit(code)
        os.close(read_end)

    def _finish(self):
        """Send the end notice and reap the worker; the file of its lines, or None."""
        if self._pid is None:
            return None
        with contextlib.suppress(BrokenPipeError):
            os.write(self._notices, _NOTICE.pack(0, 0))
        self._end_notices()
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        if status != 0:
            raise OSError(f"CSV worker of {self.path} failed (wait status {status})")
        return self._files[1]


def _join(lines, fh, ks: range, columns) -> None:
    """Write each line of the file ``lines`` to ``fh``, ended by its row's cells of ``columns``.

    Line i belongs to run row ks[i].  The file is read JOIN_BYTES at a
    time, so memory stays bounded by that, not by the number of lines.
    """
    cells = b",%.17g" * len(columns) + b"\n"
    lines.seek(0)
    rest, done = b"", 0
    while chunk := lines.read(JOIN_BYTES):
        heads = (rest + chunk).split(b"\n")
        rest = heads.pop()
        rows = _rows(ks[done:done + len(heads)])
        done += len(heads)
        tails = [cells % tuple(r) for r in np.column_stack([c[rows] for c in columns]).tolist()]
        fh.write(b"".join(map(operator.add, heads, tails)))
    if rest or done != len(ks):
        raise OSError(f"CSV worker wrote {done} of {len(ks)} lines")


def write_trajectory_csv(
    path,
    trajectory: Trajectory,
    err: ErrorMetrics,
    decimate: int = 1,
    stream: Optional[CsvStream] = None,
) -> None:
    """Write a trajectory with its metrics as locale-independent CSV.

    Columns: k, u_1..u_n, y_1..y_n, x_1..x_m (dynamic runs), rel_err_u,
    combined_sq (when present).  ``decimate`` keeps every k-th row;
    metrics must already be computed on the undecimated series.  Each
    row is "%d" then ",%.17g" per value, so every float is written with
    17 significant digits (as ``format(v, ".17g")``: "-0", "inf", "nan"
    and subnormals included).

    ``stream`` is the run's ``CsvStream`` for ``path`` and ``decimate``.
    Its worker is reaped first, and its lines are written, each ended by
    its row's cells of ``err``; this process then formats the rows that
    were not handed over, CSV_CHUNK_ROWS at a time.  Without a stream it
    formats every row.  Each line is one template applied to one row, so
    the bytes do not depend on which rows were handed over.  A failed
    worker raises OSError.

    The file is written under a hidden temporary name in the directory of
    ``path`` and renamed onto ``path`` only once complete, so a failure
    leaves ``path`` as it was, or absent, and no partial file behind.
    """
    if stream is None:
        stream = CsvStream(path, decimate)  # hands nothing over, so forks nothing
    elif (stream.path, stream.decimate) != (os.path.abspath(path), decimate):
        raise ValueError(f"the stream is for {stream.path} at decimation {stream.decimate}")
    columns = [trajectory.u_series, trajectory.y_series]
    n = trajectory.u_series.shape[1]
    header = ["k"] + [f"u_{i + 1}" for i in range(n)] + [f"y_{i + 1}" for i in range(n)]
    if trajectory.x_series is not None:
        header += [f"x_{i + 1}" for i in range(trajectory.x_series.shape[1])]
        columns.append(trajectory.x_series)
    header.append("rel_err_u")
    cells = [err.rel_err_u]
    if err.combined_sq is not None:
        header.append("combined_sq")
        cells.append(err.combined_sq)
    ks = range(0, len(trajectory), decimate)
    split = -(-stream._handed // decimate)  # the worker's rows are ks[:split]
    directory, name = os.path.split(stream.path)
    partial = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(partial, "xb") as fh:
            fh.write((",".join(header) + "\n").encode())
            lines = stream._finish()
            if split:
                _join(lines, fh, ks[:split], cells)
            for start in range(split, len(ks), CSV_CHUNK_ROWS):
                _write_table(fh, _table(ks[start:start + CSV_CHUNK_ROWS], columns + cells))
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(partial)
        raise
