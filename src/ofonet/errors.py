"""Exception classes for the ofonet package, its one vector-length check, the config reader.

Numerical failures carry enough context (iteration counts, residuals,
spectral radii, partial trajectories) for callers to report or recover.
A failing coupling condition is no error: the certificates report it.
``as_vector`` is the single "must have length n" check every layer uses,
and ``_norm`` the one vector norm that survives squares past the
floating-point range (the closed-loop metrics, the report's and the
sweep's reference-point distances, the sweep's taken over all rows at once).
``read_section`` reads each config section through a key table, and
``convert`` is the one place where a rejected value becomes a ConfigError;
a constructor check marks its error with ``on_field`` so that ``convert``
names the field, 'section.field'.  ``finite``, ``number`` and ``whole``
are the shared value parsers: a JSON boolean or string is never a number,
not even as one entry of a vector or matrix.
"""

import itertools

import numpy as np

__all__ = [
    "OfonetError",
    "DimensionMismatch",
    "SingularMatrix",
    "NoConvergence",
    "NonFinite",
    "UnstableDiscretization",
    "Overflow",
    "ConfigError",
    "as_vector",
    "as_section",
    "convert",
    "on_field",
    "read_section",
    "finite",
    "number",
    "whole",
]


class OfonetError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(OfonetError):
    """Operands have incompatible shapes."""


def as_vector(value, n: int, name: str, finite: bool = False) -> np.ndarray:
    """``value`` as a float vector of length ``n``, else DimensionMismatch naming it.

    With ``finite``, a non-finite entry raises ValueError naming it too.
    """
    vec = np.asarray(value, dtype=float)
    if vec.shape != (n,):
        raise DimensionMismatch(f"{name} must have length {n}, got shape {vec.shape}")
    if finite and not np.all(np.isfinite(vec)):
        raise ValueError(f"{name} contains non-finite entries")
    return vec


class SingularMatrix(OfonetError):
    """A linear solve hit a numerically singular matrix."""


class NoConvergence(OfonetError):
    """An iterative solver exhausted its iteration budget."""

    def __init__(self, iterations, residual):
        self.iterations = int(iterations)
        self.residual = float(residual)
        super().__init__(
            f"no convergence after {self.iterations} iterations "
            f"(residual {self.residual:.3e})"
        )


class NonFinite(OfonetError):
    """A closed-loop iterate left the finite floating-point range.

    ``step`` is the iteration index at which the first non-finite value
    appeared; ``trajectory`` holds the finite prefix when available so
    callers can still emit a truncated record of the run.
    """

    def __init__(self, step, trajectory=None):
        self.step = int(step)
        self.trajectory = trajectory
        super().__init__(f"non-finite iterate at step {self.step}")


class UnstableDiscretization(OfonetError):
    """Euler-forward discretization produced a non-Schur transition matrix."""

    def __init__(self, spectral_radius):
        self.spectral_radius = float(spectral_radius)
        super().__init__(
            f"discretized system is not Schur stable "
            f"(spectral radius {self.spectral_radius:.6g})"
        )


class Overflow(OfonetError):
    """A certificate's arithmetic left the floating-point range.

    A float power past the range raises OverflowError in Python, while a
    product gives inf; each certificate turns both into this error.
    """

    def __init__(self, what: str):
        super().__init__(f"{what} leaves the floating-point range")


class ConfigError(OfonetError):
    """A run configuration is malformed; the message names the offending key."""


def as_section(name: str, data) -> dict:
    """Config section ``name`` as a dict: {} for None (absent), else a JSON object."""
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"'{name}' section must be an object")
    return data


def on_field(field: str, exc: Exception, **marks) -> Exception:
    """``exc``, marked as a constructor check's rejection of ``field``, with ``marks`` set."""
    vars(exc).update(marks, field=field)
    return exc


def convert(name: str, parse, *args, **kwargs):
    """``parse(*args, **kwargs)``; any error it raises becomes a ConfigError naming ``name``.

    An error marked by ``on_field`` is named 'name.field'.
    """
    try:
        return parse(*args, **kwargs)
    except (TypeError, ValueError, OverflowError, OfonetError) as exc:
        field = getattr(exc, "field", None)
        key = name if field is None else f"{name}.{field}"
        raise ConfigError(f"invalid '{key}': {exc}") from exc


def read_section(name: str, data, table: dict) -> dict:
    """Read config section ``name`` through ``table``: key -> (parser, default).

    Unknown keys are rejected; an absent or null key takes its default,
    any other value goes through its parser under the name 'name.key'.
    """
    data = as_section(name, data)
    unknown = sorted(set(data) - set(table))
    if unknown:
        raise ConfigError("unknown key " + ", ".join(f"'{name}.{key}'" for key in unknown))
    return {
        key: default if data.get(key) is None else convert(f"{name}.{key}", parse, data[key])
        for key, (parse, default) in table.items()
    }


def _norm(v, axis=None):
    """The 2-norm of a vector or of each row of a matrix, or np.linalg.norm(v, axis=1).

    Without an axis each row's norm is sqrt(v . v), np.linalg.norm's of a
    vector, so a stack of rows gets the norms the rows get one by one
    (the pairwise sums of ``axis`` 1 may round otherwise).  A norm whose
    squares overflow is recomputed as s ||v / s||, s the largest magnitude
    (fmax keeps inf where s is inf, which the rescaling turns into NaN).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if axis is None:
            rows = np.ascontiguousarray(np.atleast_2d(v), dtype=float)
            norm = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
        else:
            rows, norm = v, np.linalg.norm(v, axis=axis)
        big = np.isinf(norm)
        if big.any():
            scale = np.max(np.abs(rows[big]), axis=1)
            norm[big] = np.fmax(scale, scale * np.linalg.norm(rows[big] / scale[:, None], axis=1))
    return norm.item() if axis is None and np.ndim(v) == 1 else norm


def finite(value) -> np.ndarray:
    """Config parser: an array of JSON numbers, as floats, with finite entries.

    The float conversion would read a boolean as 0 or 1, parse a numeric
    string and read null as NaN, so one pass over the rows of ``value``
    rejects all three.
    """
    arr = np.asarray(value, dtype=float)
    rows = [value] if arr.ndim else [[value]]
    for _ in range(arr.ndim - 1):
        rows = itertools.chain.from_iterable(rows)
    if any({bool, str, type(None)} & set(map(type, row)) for row in rows):
        raise TypeError("entries must be JSON numbers, not strings, booleans or null")
    if not np.all(np.isfinite(arr)):
        raise ValueError("contains non-finite entries")
    return arr


def number(value):
    """Config parser: a JSON number, kept as given; a bool or any non-number is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a number, got {value!r}")
    return value


def whole(value) -> int:
    """Config parser: a JSON number without a fractional part, as an int."""
    value = number(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"must be a whole number, got {value!r}")
    return int(value)
