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
EARLY_STOP_TOL; the state increment is taken only once the input's
is below it.  The one divergence rule is the output test: a run
raises NonFinite(k), carrying the k rows before, when y_k is not finite,
the last output included.  It covers the input and the state, since a
non-finite u_k or x_k makes y_k non-finite.  So a ``Trajectory``, which
only the loop builds, is finite.  ``RunInfo`` holds only what the loop
found out: the updates performed and whether the run stopped early.

Each iterate is computed where it is kept: y_k goes into its recorder
row, and u_{k+1} and x_{k+1} into the next row, through
``ndarray.dot(..., out)`` and ``np.add(..., out)``.  The step's
temporaries live in buffers allocated once per run: B u and D u, the
increments du and dx, and the update map's s and a quadratic's
gradients.  So a step on a quadratic objective allocates no array.  The
steps of a row passed over at decimation d > 1 allocate its arrays.  The
objective is given a row's u and y once they are final, and no array is
written after it was given them.  The public step and gradient functions
still return fresh arrays.

Sweep rows run as one batched loop, ``_run_algebraic_batch``: the
decentralized algebraic loop of B scenarios on stacked (B, n) arrays,
which reproduces each scenario's ``run_algebraic`` final iterate and
divergence step bit for bit and records no trajectory.

A run at decimation d records only the rows it keeps: row k for
k = 0, d, 2d, ..., and the run's last row (its last iterate, or the last
finite one when it raises NonFinite) when that falls between two kept
ones.  So a ``Trajectory`` at d > 1 holds the kept rows plus that final
row, and its memory, its metrics and its CSV all follow steps / d.  The
kept rows go into arrays that grow RECORD_BLOCK rows at a time, so memory
follows the iterations actually run, not the step budget.  ``metrics``
alone computes a run's per-row errors (rel_err_u and, for a dynamic run
given a model, the combined squared error); its last entry is the final
row's.

``write_trajectory_csv`` states the CSV format.  A ``CsvStream`` takes
each full recorder block, with its cells from ``metrics``' formula,
while the loop runs; the recorder drops it, so a streamed run holds at
most RECORD_BLOCK + 1 rows, whatever its length.  The stream tells its
forked worker of each block over a one-way pipe and never waits for an
answer: the worker formats every block handed to it, and the caller
only the rows the run held.  ``_write_table`` is the one formatter of
CSV lines: an exact "%.17g" in numpy arithmetic, with Python's own
formatting for the cells it cannot prove exact, so the bytes are
Python's.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import signal
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
# rows per recorder block, per CSV block and per metrics slice
RECORD_BLOCK = 1024


@dataclass(frozen=True)
class RunInfo:
    iterations: int  # controller updates performed
    early_stopped: bool


@dataclass(frozen=True)
class Trajectory:
    """Recorded closed-loop iterates (u_k, y_k[, x_k]), each finite.

    The run kept ``kept`` rows, kept row j being step k = j * ``decimation``,
    and row i here is kept row ``first`` + i: the rows before went to a
    ``CsvStream`` (``first`` is 0 when nothing was streamed).  When the
    run's last row falls between two kept ones, it follows as one more
    row, so the last row is always the last iterate recorded.
    """

    u_series: NDArray[np.float64]
    y_series: NDArray[np.float64]
    x_series: Optional[NDArray[np.float64]]
    info: RunInfo
    decimation: int
    kept: int
    first: int = 0

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


_FRESH = (None, None, None)  # a row given no arrays: the steps allocate them


class _Recorder:
    """The rows a run keeps, k = 0, d, 2d, ..., in arrays grown RECORD_BLOCK rows
    at a time, and its newest row when that falls between two kept ones.
    A full block that ``on_full`` takes is dropped.

    The loop writes each row in place, into the arrays (u, y[, x]) that
    ``record`` returns for it.  A kept row is given as views of its block
    row.  A row passed over, the run's first row and the first row of each
    block are given as ``_FRESH``: their steps allocate them.  The first
    row of a block is copied in when recorded, once the full block is
    handed over, so the new block can take its memory.
    """

    def __init__(self, n: int, n_state: Optional[int] = None, decimation: int = 1, on_full=None):
        self._widths = (n, n) if n_state is None else (n, n, n_state)
        self._decimation = decimation
        self._blocks: list = []
        self._row = RECORD_BLOCK
        self._rows = None  # the last block's rows not yet given, as (u, y[, x]) views
        self._skip = 0  # rows to pass over before the next kept one
        self._between = None  # the newest row, when it was passed over
        self._on_full = on_full  # given a full block and the decimation; True if it took it
        self._first = 0  # the kept rows taken by on_full

    def record(self, u, y, x=None) -> tuple:
        """Record the row (u, y[, x]), written into the arrays given for it (its
        own, when it was given None).  Returns the row as the recorder holds it,
        then the arrays of the next row."""
        if self._skip:
            self._skip -= 1
            self._between = (u, y, x)
        else:
            self._skip, self._between = self._decimation - 1, None
            if self._row == RECORD_BLOCK:
                u, y, x = self._open_block(u, y, x)
            self._row += 1
        if self._skip or self._row == RECORD_BLOCK:
            return u, y, x, _FRESH
        return u, y, x, next(self._rows)

    def _open_block(self, u, y, x) -> tuple:
        """Hand the full block over, if any, then start a block with the row (u, y[, x]);
        its row 0 as views."""
        self._rows = None  # it refers to the full block
        if self._blocks and self._on_full and self._on_full(self._blocks[-1], self._decimation):
            self._blocks.pop()
            self._first += RECORD_BLOCK
        block = [np.empty((RECORD_BLOCK, w)) for w in self._widths]
        self._blocks.append(block)
        self._rows = zip(*block)
        first = next(self._rows)
        for a, v in zip(first, (u, y, x)):
            a[...] = v
        self._row = 0
        u, y, *x = first
        return u, y, x[0] if x else None

    def trajectory(self, info: RunInfo) -> Optional[Trajectory]:
        """The recorded rows as a Trajectory; None when nothing was recorded."""
        if not self._blocks:
            return None
        *full, last = self._blocks
        kept = self._first + len(full) * RECORD_BLOCK + self._row
        series = []
        for i in range(len(self._widths)):
            parts = [b[i] for b in full] + [last[i][: self._row]]
            if self._between is not None:
                parts.append(self._between[i][None])
            series.append(np.concatenate(parts))
        x = series[2] if len(series) == 3 else None
        return Trajectory(series[0], series[1], x, info, self._decimation, kept, self._first)


def _run(output, state, cfg, obj, model, u, x, steps, decimation, stream) -> Trajectory:
    """The recording closed loop of ``run_algebraic`` and ``run_lti``.

    ``output(x, u, out)`` returns the plant's output y at (x, u), written
    into ``out`` unless it is None; ``state(x, u, out)`` likewise its next
    state (None, as ``x``, without a state block).  ``u`` and ``x`` are
    validated start vectors.  Only y is tested: a non-finite u_k or x_k
    makes y_k non-finite, which raises at step k all the same.  Row k's u
    and y are final when the update reads them, and the loop only writes
    rows after k and its own buffers, which the update never reads.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if decimation < 1:
        raise ValueError(f"decimation must be >= 1, got {decimation}")
    update = update_map(cfg, obj, model)
    on_full = None if stream is None else stream._take
    rec = _Recorder(u.size, None if x is None else x.size, decimation, on_full)
    record, row = rec.record, _FRESH
    isfinite, sqrt, subtract = math.isfinite, math.sqrt, np.subtract
    du, dx = np.empty(u.size), None if x is None else np.empty(x.size)
    early = False
    # overflow past float range is the divergence signal, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        # row k follows k updates; the last pass (k == steps, or early) only records
        for k in range(steps + 1):
            y = output(x, u, row[1])
            # y.dot(y) is finite only when every y_i is, so the elementwise test
            # runs only when it is not: a non-finite entry, or an overflow
            if not (isfinite(y.dot(y)) or np.isfinite(y).all()):
                raise NonFinite(k, rec.trajectory(RunInfo(k, early)))
            u, y, x, row = record(u, y, x)
            if k == steps or early:
                return rec.trajectory(RunInfo(k, early))
            u_next = update(u, y, row[0])
            # ||dv|| as np.linalg.norm computes it; inf or nan passes no tolerance
            subtract(u_next, u, du)
            early = sqrt(du.dot(du)) < EARLY_STOP_TOL
            if x is not None:
                x_next = state(x, u, row[2])
                if early:
                    subtract(x_next, x, dx)
                    early = sqrt(dx.dot(dx)) < EARLY_STOP_TOL
                x = x_next
            u = u_next


def run_algebraic(
    model: SensitivityModel,
    obj,
    d,
    cfg: ControllerConfig,
    u0=None,
    steps: int = DEFAULT_STEPS,
    stream: Optional[CsvStream] = None,
    decimation: int = 1,
) -> Trajectory:
    """Run the steady-state (algebraic) closed loop for up to ``steps`` updates.

    The output is y = H u + d itself, with no state term, so a -0.0
    output stays -0.0.  Only the rows at multiples of ``decimation`` are
    recorded, and the last row.  Each full recorder block goes to ``stream``.
    """
    H, d = model.H, _start(d, model.n, "d")
    u = _start(u0, model.n, "u0")
    add = np.add

    def output(x, u, out):
        y = H.dot(u, out)
        return add(y, d, y)

    return _run(output, None, cfg, obj, model, u, None, steps, decimation, stream)


def run_lti(
    plant: LtiPlant,
    obj,
    cfg: ControllerConfig,
    x0=None,
    u0=None,
    steps: int = DEFAULT_STEPS,
    stream: Optional[CsvStream] = None,
    decimation: int = 1,
) -> Trajectory:
    """Run the closed loop against the full plant dynamics.

    Early stop requires both the input and the state increments to fall
    below EARLY_STOP_TOL, so a still-settling plant keeps the run alive
    even once the controller has effectively frozen.  Only the rows at
    multiples of ``decimation`` are recorded, and the last row.  Each
    full recorder block goes to ``stream``.
    """
    A, B, C, D, dist = plant.A, plant.B, plant.C, plant.D, plant.d
    x = _start(x0, plant.n_state, "x0")
    u = _start(u0, plant.n, "u0")
    add = np.add
    b_u, d_u = np.empty(plant.n_state), np.empty(plant.n)  # B u and D u, each step

    def output(x, u, out):
        # (C x + D u) + d, as the formula associates
        y = C.dot(x, out)
        add(y, D.dot(u, d_u), y)
        return add(y, dist, y)

    def state(x, u, out):
        x_next = A.dot(x, out)
        return add(x_next, B.dot(u, b_u), x_next)

    return _run(output, state, cfg, obj, compute_sensitivity(plant), u, x, steps, decimation, stream)


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
    trajectory: Trajectory, u_ref, model: Optional[SensitivityModel] = None, own_ref=None
) -> ErrorMetrics:
    """Per-step error metrics against a reference input.

    rel_err_u is ||u_k - u_ref|| / ||u_ref|| (absolute when the
    reference is zero, flagged).  For dynamic runs with a model the
    combined squared error ||x_k - H_x u_k||^2 + ||u_k - own_ref||^2 is
    attached, own_ref (u_ref when None) being the loop's own limit.  The
    rows are taken RECORD_BLOCK at a time, as a ``CsvStream`` takes them.
    """
    u, x = trajectory.u_series, trajectory.x_series
    rows = min(RECORD_BLOCK, trajectory.first + len(u))  # a stream block's, or the run's
    blocks = [slice(s, s + RECORD_BLOCK) for s in range(0, len(u), RECORD_BLOCK)]
    rel, combined, absolute = zip(
        *[_cells(u[b], x if x is None else x[b], u_ref, model, own_ref, rows) for b in blocks]
    )
    combined = None if combined[0] is None else np.concatenate(combined)
    return ErrorMetrics(np.concatenate(rel), combined, absolute[0])


def _cells(u, x, u_ref, model, own_ref, rows: int):
    """``metrics``' rel_err_u, combined_sq (or None) and ``absolute`` of rows
    ``u``[, ``x``].  u H_x^T is one product of ``rows`` rows, zeros past u's:
    BLAS may round a row differently in a product of fewer rows (one row is
    a matrix-vector product)."""
    n = u.shape[1]
    u_ref = as_vector(u_ref, n, "u_ref")
    with np.errstate(over="ignore", invalid="ignore"):
        err = _norm(u - u_ref, axis=1)
        ref_norm = _norm(u_ref)
        absolute = ref_norm == 0.0
        rel = err if absolute else err / ref_norm
        if x is None or model is None:
            return rel, None, absolute
        if own_ref is not None:
            err = _norm(u - as_vector(own_ref, n, "own_ref"), axis=1)
        if len(u) < rows:
            u = np.concatenate([u, np.zeros((rows - len(u), n))])
        resid = x - (u @ model.H_x.T)[: len(x)]
        return rel, np.sum(resid**2, axis=1) + err**2, absolute


def _table(first: int, decimation: int, columns):
    """Trajectory rows first, first + 1, ..., which ``columns`` hold, as one float
    array: k = row * ``decimation``, then the row of each column."""
    ks = np.arange(first, first + len(columns[0]), dtype=float) * decimation
    return np.column_stack([ks, *columns])


_POW10 = None  # 10^k for k = -280..300 as (hi, lo) arrays, built on first use
_SPLIT = 2.0**27 + 1  # Veltkamp's constant: splits a double into two 26-bit halves
_CELLS = 4096  # cells formatted per pass
_WIDTH = 29  # a cell's text field: sign, "0.000", 17 digits and a point, "e-123"
_ROWS = np.arange(18, dtype=np.uint8)[:, None]  # the row numbers of a text's digit rows


def _pow10():
    """10^k for k = -280..300 as hi + lo: hi the nearest double, lo the nearest
    to the rest, from exact integer arithmetic (1 / q rounds correctly)."""
    global _POW10
    if _POW10 is None:
        pairs = []
        for k in range(-280, 301):
            if k >= 0:
                hi = float(10**k)
                pairs.append((hi, float(10**k - int(hi))))
            else:
                q = 10**-k
                hi = 1 / q
                num, den = hi.as_integer_ratio()
                pairs.append((hi, (den - num * q) / (den * q)))
        _POW10 = tuple(np.array(c) for c in zip(*pairs))
    return _POW10


def _split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _scaled(a, e):
    """a * 10^(16 - e) as p + rest: p the rounded product, rest the remainder to
    within 1e-14 (Dekker's exact product of a and hi, plus a * lo)."""
    hi, lo = (table[296 - e] for table in _pow10())
    p = a * hi
    (ah, al), (hh, hl) = _split(a), _split(hi)
    return p, ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo


def _digits(v):
    """The 17 significant digits of each ``v`` (finite, 1e-280 <= |v| <= 1e280) as
    the rows of a (17, len(v)) uint8 array, the decimal exponents, and the cells
    whose rounding lies within 1e-7 of a tie, which the scaled product cannot
    decide."""
    a = np.abs(v)
    e = np.floor(np.log10(a)).astype(np.int64)  # the decimal exponent, or one off
    p, rest = _scaled(a, e)
    # 10^16 <= p + rest < 10^17 is tested on the unrounded sum, before any carry
    off = ((p - 1e17) + rest >= 0).astype(np.int64) - ((p - 1e16) + rest < 0)
    if (i := np.flatnonzero(off)).size:
        e[i] += off[i]
        p[i], rest[i] = _scaled(a[i], e[i])
    whole = np.floor(rest)
    frac = rest - whole
    digits = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = digits == 10**17
    digits[carry] = 10**16
    e += carry
    limbs = np.empty((5, len(v)), np.int16)  # four digits each, one in the first
    for j in range(4, 0, -1):
        q = digits // 10**4
        limbs[j] = digits - 10**4 * q
        digits = q
    limbs[0] = digits
    chars = np.empty((5, 4, len(v)), np.uint8)
    for j in range(3, -1, -1):
        q = limbs // 10
        chars[:, j] = limbs - 10 * q
        limbs = q
    return chars.reshape(20, -1)[3:], e, np.abs(frac - 0.5) <= 1e-7


def _texts(v):
    """The "%.17g" texts of ``v`` (as ``_digits`` takes it), one per column of a
    (_WIDTH, len(v)) uint8 array, NUL where a text has no character, and the
    cells ``_digits`` cannot decide."""
    chars, e, tie = _digits(v)
    fixed = (e >= -4) & (e < 17)
    small = fixed & (e < 0)  # "0." and -e - 1 zeros come before the digits
    # the digit the point follows: e when fixed, 0 in exponent form, 16 (none) when small
    t = np.where(small, 16, e * (fixed & (e >= 0))).astype(np.uint8)
    sig = ((chars != 0) * _ROWS[1:]).max(axis=0)  # the digits up to the last nonzero one
    chars += ord("0")
    chars *= _ROWS[:17] < np.where(small, sig, np.maximum(sig, t + 1))  # NUL trailing zeros
    out = np.zeros((_WIDTH, len(v)), np.uint8)
    out[0] = ord("-") * (v < 0)
    out[1], out[2] = ord("0") * small, ord(".") * small
    for i in range(3):
        out[3 + i] = ord("0") * (small & (e < -1 - i))
    body = out[6:24]  # the digits up to digit t, the point, then the rest
    body[1:] = chars
    body[:17] += (chars - body[:17]) * (_ROWS[:17] <= t)
    body += (np.uint8(ord(".")) * (sig > t + 1) - body) * (_ROWS == t + 1)
    if (x := np.flatnonzero(~fixed)).size:
        ex = np.abs(e[x])
        out[24, x], out[25, x] = ord("e"), np.where(e[x] < 0, ord("-"), ord("+"))
        out[26, x] = (ord("0") + ex // 100) * (ex >= 100)
        out[27, x], out[28, x] = ord("0") + ex // 10 % 10, ord("0") + ex % 10
    return out, tie


def _padded(texts):
    """Byte strings as the rows of a NUL-padded (len(texts), _WIDTH) uint8 array."""
    return np.array(texts, f"S{_WIDTH}").view(np.uint8).reshape(len(texts), _WIDTH)


def _lines(table):
    """The lines of ``table``'s rows as a (rows, columns, _WIDTH + 1) uint8 array,
    one NUL-padded field per cell followed by "," or, after the last, "\\n"."""
    rows, columns = table.shape
    out = np.empty((rows, columns, _WIDTH + 1), np.uint8)
    out[:, :, -1] = ord(",")
    out[:, -1, -1] = ord("\n")
    out[:, 0, :-1] = _padded([b"%d" % k for k in table[:, 0].tolist()])
    v, cells = table[:, 1:], out[:, 1:, :-1]
    fast = (np.abs(v) >= 1e-280) & (np.abs(v) <= 1e280)  # not 0, inf, nan or extreme
    texts, tie = _texts(np.where(fast, v, 1.0).ravel())
    np.moveaxis(cells, -1, 0)[...] = texts.reshape(_WIDTH, *fast.shape)
    slow = ~fast | tie.reshape(fast.shape)
    if slow.any():  # Python's own "%.17g", one cell at a time
        cells[slow] = _padded([b"%.17g" % c for c in v[slow].tolist()])
    return out


def _write_table(fh, table) -> None:
    """Write each row of the float ``table`` as one line: "%d" for k, then ",%.17g"
    per cell, with the bytes of Python's own formatting.

    The cells are formatted _CELLS at a time by elementwise numpy alone (no
    BLAS call: this runs in the forked worker too).  Each |v| in
    [1e-280, 1e280] is scaled by 10^(16 - E) as a double-length product
    and rounded to its 17-digit integer, then laid out in "%g"'s fixed or
    exponent form with trailing zeros dropped; the NUL padding goes in one
    ``bytes.translate``.  Python formats the rest, one cell at a time: 0,
    -0, inf, nan, |v| outside that range, and a rounding within 1e-7 of a
    tie, which the scaled product cannot decide.
    """
    rows = max(1, _CELLS // table.shape[1])
    for i in range(0, len(table), rows):
        fh.write(_lines(table[i : i + rows]).tobytes().translate(None, b"\0"))


def _header(widths, cells: int) -> bytes:
    """The CSV header: k, then u, y[, x] of ``widths`` and ``cells`` metric cells."""
    names = ["k"] + [f"{s}_{i + 1}" for s, w in zip("uyx", widths) for i in range(w)]
    return (",".join(names + ["rel_err_u", "combined_sq"][:cells]) + "\n").encode()


def _block(data, shape, i: int):
    """The i-th float64 table of ``shape`` in the file ``data``."""
    size = 8 * math.prod(shape)
    return np.frombuffer(os.pread(data.fileno(), size, i * size)).reshape(shape)


_NEXT, _END = b"\x01", b"\x00"  # the notices on the worker's pipe


class CsvStream:
    """The CSV lines of one run, formatted by a forked worker while the run records it.

    Open it in a ``with`` block before the run, with ``metrics``'
    references, and pass it to ``run_algebraic`` or ``run_lti`` and then
    to ``write_trajectory_csv``, which writes the file.  Each full
    recorder block goes with its k and metric cells to an anonymous file
    beside ``path``, and one notice byte on a pipe announces it.  A worker,
    forked at the first handover, writes the lines of each block announced
    into a second anonymous file.  The pipe is one-way: the run waits for
    the worker only when the pipe is full (64 Ki pending blocks on Linux).
    At completion this process formats the rows the run held, into a
    third, while the worker drains: a handed block is formatted by the
    worker, a held row by this process.  No file is named, so a killed run
    leaves none behind.  Without references, or where the OS cannot fork,
    nothing is handed over.

    Leaving the ``with`` block kills a worker still running and closes the
    files.  Completion stops the worker by an end notice, so another stream's
    worker or any child forked meanwhile, which inherits the pipe's write
    end, cannot keep it waiting.  A worker whose process dies sees the pipe's
    end once every process forked after it has let go of it, and exits.
    """

    def __init__(self, path, u_ref=None, model: Optional[SensitivityModel] = None, own_ref=None):
        self.path = os.path.abspath(path)
        self._refs = (u_ref, model, own_ref)
        self._blocks = 0  # taken
        self._pid = None  # the worker
        self._files = contextlib.ExitStack()

    def __enter__(self) -> "CsvStream":
        return self

    def __exit__(self, *exc) -> None:
        """Kill a worker still running and close every file."""
        # a worker still running here outlived a failure of this process
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        self._files.close()

    def _take(self, block, decimation: int) -> bool:
        """The recorder's hook: store its full ``block`` of a run at ``decimation``
        with k and the metric cells, and announce it to the worker; True when it
        took it (and keeps no reference)."""
        if self._refs[0] is None or not hasattr(os, "fork"):
            return False
        u, _, *x = block
        rel, combined, _ = _cells(u, x[0] if x else None, *self._refs, RECORD_BLOCK)
        cells = [c for c in (rel, combined) if c is not None]
        table = _table(self._blocks * RECORD_BLOCK, decimation, [*block, *cells])
        if self._pid is None:
            self._start(table.shape)
        self._data.write(table)
        self._data.flush()
        self._blocks += 1
        # a dead worker is reported by completion's waitpid
        with contextlib.suppress(BrokenPipeError):
            self._notices.write(_NEXT)
        return True

    def _start(self, shape) -> None:
        directory = os.path.dirname(self.path)
        self._data, self._lines, self._part = (
            self._files.enter_context(tempfile.TemporaryFile(dir=directory)) for _ in range(3)
        )
        notices, notices_in = os.pipe()
        try:
            self._pid = os.fork()
        except BaseException:
            os.close(notices)
            os.close(notices_in)
            raise
        if self._pid == 0:
            # the worker: the lines of each block announced, in order; it
            # leaves through os._exit, so no atexit handler runs
            code = 1
            try:
                os.close(notices_in)
                i = 0
                while os.read(notices, 1) == _NEXT:
                    _write_table(self._lines, _block(self._data, shape, i))
                    i += 1
                self._lines.flush()
                code = 0
            finally:
                os._exit(code)
        os.close(notices)
        self._notices = self._files.enter_context(open(notices_in, "wb", buffering=0))

    def _finish(self, tail) -> None:
        """End the worker's notices, format the ``tail`` tables into this process's
        part file while the worker drains, and reap the worker.  A failed worker
        raises OSError."""
        with contextlib.suppress(BrokenPipeError):
            self._notices.write(_END)
        self._notices.close()
        for table in tail:
            _write_table(self._part, table)
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        if status != 0:
            raise OSError(f"CSV worker of {self.path} failed (wait status {status})")


def write_trajectory_csv(
    path,
    trajectory: Trajectory,
    err: ErrorMetrics,
    stream: Optional[CsvStream] = None,
) -> None:
    """Write a trajectory with its metrics as locale-independent CSV.

    Columns: k, u_1..u_n, y_1..y_n, x_1..x_m (dynamic runs), rel_err_u,
    combined_sq (when present).  ``err`` is ``metrics`` of the
    trajectory.  Only its kept rows are written, k = 0, d, 2d, ... at
    its decimation d; a final row between two kept ones is not.  Each
    row is "%d" then ",%.17g" per value, so every float is written with
    17 significant digits, which round-trip every float64 (as
    ``format(v, ".17g")``: "-0", "inf", "nan" and subnormals included).
    ``_write_table`` formats the lines, in numpy arithmetic with the bytes
    of Python's formatting.

    ``stream`` is the ``CsvStream`` for ``path`` that the run was given.
    The lines of the rows the trajectory holds, kept rows ``first``
    onward, follow the stream's; without a stream this process formats
    every row.  Each line is one template applied to one row, so the
    bytes do not depend on which rows were handed over.  A failed worker
    raises OSError.

    Only once the worker is reaped is a file named: a hidden temporary one
    in the directory of ``path`` gets the header, the worker's lines, then
    this process's, and is renamed onto ``path``.  A failure removes it,
    so ``path`` is left as it was, or absent, and no partial file behind.
    """
    if stream is None:
        stream = CsvStream(path)  # hands nothing over, so forks nothing
    elif stream.path != os.path.abspath(path):
        raise ValueError(f"the stream is for {stream.path}")
    elif trajectory.first != (took := stream._blocks * RECORD_BLOCK):
        raise ValueError(f"the stream took {took} kept rows, not {trajectory.first}")
    series = [trajectory.u_series, trajectory.y_series, trajectory.x_series]
    series = [s for s in series if s is not None]
    cells = [c for c in (err.rel_err_u, err.combined_sq) if c is not None]
    first, kept = trajectory.first, trajectory.kept
    columns = [c[: kept - first] for c in series + cells]  # a final unkept row is not written
    directory, name = os.path.split(stream.path)
    partial = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    with stream:  # leaving it kills a worker still running and closes the stream's files
        blocks, d = range(0, kept - first, RECORD_BLOCK), trajectory.decimation
        tail = (_table(first + i, d, [c[i : i + RECORD_BLOCK] for c in columns]) for i in blocks)
        handed = stream._pid is not None
        if handed:
            stream._finish(tail)
        try:
            with open(partial, "xb") as out:
                out.write(_header([s.shape[1] for s in series], len(cells)))
                if handed:  # the worker's lines, then this process's
                    for part in (stream._lines, stream._part):
                        part.seek(0)
                        shutil.copyfileobj(part, out)
                for table in tail:  # the held rows, unless _finish formatted them into its part
                    _write_table(out, table)
            os.replace(partial, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(partial)
            raise
