"""DC power-grid case study: assembly, discretization, and the G-sweep.

The network couples node voltages V (capacitive nodes with conductance
G) and line currents f (inductive lines with resistance R) through the
incidence matrix B:

    C_cap dV/dt = -G V - B f + I_inj
    L_ind df/dt =  B^T V - R f

assembled as E dz/dt = K z + [I; 0] I_inj with K = [[-G, -B], [B^T, -R]].
The node-balance signs above make K Hurwitz for positive parameters;
writing the voltage block with +G instead produces right-half-plane
eigenvalues, so only this sign realizes the stable physical model.

Euler-forward discretization with step ``eps`` gives A_d = I + eps E^{-1} K.
The controllable input is the current adjustment u = I_c on top of the
constant injection I_star - delta_I; the plant state is stored as the
deviation from the injection-only equilibrium, which moves the constant
injection into an effective output disturbance H (I_star - delta_I) + d_meas.
The steady-state sensitivity is recomputed from the realized discrete
matrices rather than any closed form, so the closed-loop layers see a
self-consistent y = H u + d.

``sweep_g`` puts the grids of all its positive G on one leading axis:
one stacked sensitivity solve, one ``plant.schur_screen`` of the rows'
A_d, the certificate cells of all rows from ``analysis`` (whose
per-instance functions each row equals bit for bit), and one batched
closed loop.  ``assemble_plant`` is the stacked assembly's one-row
case, screened once by ``LtiPlant``.  A G so small that 1 + eps g / c_cap
rounds to 1 leaves the grid without a ground path, so (I - A_d) is
singular: the sweep notes that row, cells empty, as it notes a row whose
reference-point equations are singular.  A row whose coupling fails is
no failure: no note, a ``lam_max_xi`` of at least 1, no ``eta_star``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from numpy.typing import NDArray

from . import analysis, sim
from .controller import ControllerConfig, Mode
from .errors import (
    DimensionMismatch,
    Overflow,
    SingularMatrix,
    UnstableDiscretization,
    _norm,
    as_vector,
    convert,
    finite,
    number,
    on_field,
    read_section,
    whole,
)
from .objective import QuadraticObjective
from .plant import LtiPlant, SensitivityModel, schur_screen, sensitivity

__all__ = [
    "GridSpec",
    "default_topology",
    "incidence",
    "assemble_plant",
    "grid_objective",
    "sweep_g",
    "write_sweep_csv",
    "spec_to_dict",
    "spec_from_dict",
]

DEFAULT_EDGES = ((1, 4), (2, 4), (3, 4), (4, 5), (5, 6), (5, 7), (5, 8), (1, 2), (6, 7))


@dataclass(frozen=True)
class GridSpec:
    """Physical parameters and topology of the DC grid.

    Edges are 1-based node pairs; each column of the incidence matrix
    gets +1 at the lower-index endpoint and -1 at the higher one.  A
    vector left None takes its ``default_topology`` value (unit
    capacitances, inductances, conductances and injections, line
    resistance 10, zero measurement offset) at the grid's size.
    """

    n_nodes: int = 8
    edges: tuple[tuple[int, int], ...] = DEFAULT_EDGES
    c_cap: NDArray[np.float64] | None = None
    l_ind: NDArray[np.float64] | None = None
    r_line: NDArray[np.float64] | None = None
    g_node: NDArray[np.float64] | None = None
    i_star: NDArray[np.float64] | None = None
    delta_i: NDArray[np.float64] | None = None
    d_meas: NDArray[np.float64] | None = None
    eps: float = 0.1
    gamma1: float = 1.0
    gamma2: float = 1.0

    def __post_init__(self):
        n = self.n_nodes
        edges = tuple((int(i), int(j)) for i, j in self.edges)
        e = len(edges)
        # a connected graph on n nodes needs n - 1 edges; checked before
        # anything n-sized is allocated
        if not 2 <= n <= e + 1:
            message = f"n_nodes must lie in [2, len(edges) + 1 = {e + 1}], got {n}"
            raise on_field("n_nodes", ValueError(message))
        adjacency = [set() for _ in range(n)]
        for i, j in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                message = f"edge ({i}, {j}) references a node outside 1..{n}"
                raise on_field("edges", ValueError(message))
            if i == j:
                raise on_field("edges", ValueError(f"self-loop at node {i}"))
            adjacency[i - 1].add(j - 1)
            adjacency[j - 1].add(i - 1)
        # connectivity via breadth-first search from node 1
        seen, frontier = {0}, [0]
        while frontier:
            reached = adjacency[frontier.pop()] - seen
            seen |= reached
            frontier += reached
        if len(seen) != n:
            missing = sorted(k + 1 for k in range(n) if k not in seen)
            message = f"edge list does not connect nodes {missing} to node 1"
            raise on_field("edges", ValueError(message))
        object.__setattr__(self, "edges", edges)
        # (field, length, must be positive, the default entry)
        for name, length, positive, default in (
            ("c_cap", n, True, 1.0),
            ("l_ind", e, True, 1.0),
            ("r_line", e, True, 10.0),
            ("g_node", n, True, 1.0),
            ("i_star", n, False, 1.0),
            ("delta_i", n, False, 1.0),
            ("d_meas", n, False, 0.0),
        ):
            value = getattr(self, name)
            value = np.full(length, default) if value is None else value
            try:
                vec = as_vector(value, length, name, finite=True)
                if positive and not np.all(vec > 0.0):
                    raise ValueError(f"{name} must be strictly positive")
            except (ValueError, DimensionMismatch) as exc:
                raise on_field(name, exc)
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        for name in ("eps", "gamma1", "gamma2"):
            value = getattr(self, name)
            if not (value > 0.0 and np.isfinite(value)):
                message = f"{name} must be positive and finite, got {value}"
                raise on_field(name, ValueError(message))

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def default_topology() -> GridSpec:
    """Two-hub 8-node network with 9 edges and the default parameters.

    Hub node 4 connects to nodes 1-3, hub node 5 to nodes 6-8, edge
    (4, 5) bridges the hubs, and (1, 2), (6, 7) complete the edge count.
    Unit capacitances, inductances, conductances, and injections; line
    resistance 10; Euler step 0.1; unit objective weights.
    """
    return GridSpec()


def incidence(spec: GridSpec) -> NDArray[np.float64]:
    """Node-by-edge incidence matrix, +1 at the lower-index endpoint."""
    mat = np.zeros((spec.n_nodes, spec.n_edges))
    for col, (i, j) in enumerate(spec.edges):
        mat[min(i, j) - 1, col], mat[max(i, j) - 1, col] = 1.0, -1.0
    return mat


@np.errstate(over="ignore", invalid="ignore")
def _raw_matrices(spec: GridSpec, g_node: NDArray[np.float64]):
    """A_d of ``spec`` stacked over the rows of ``g_node`` (B, n), and B_d and C_d.

    Slices differ only on the G diagonal, 1 + eps (e_inv_i (-g_i)).  An
    entry that overflows is left to ``sensitivity``, which rejects it.
    """
    n, e = spec.n_nodes, spec.n_edges
    b_inc = incidence(spec)
    k_mat = np.block([[np.zeros((n, n)), -b_inc], [b_inc.T, -np.diag(spec.r_line)]])
    e_inv = np.concatenate([1.0 / spec.c_cap, 1.0 / spec.l_ind])
    a_d = np.repeat((np.eye(n + e) + spec.eps * (e_inv[:, None] * k_mat))[None], len(g_node), 0)
    a_d[:, range(n), range(n)] = 1.0 + spec.eps * (e_inv[:n] * -g_node)
    b_d = np.vstack([np.diag(spec.eps / spec.c_cap), np.zeros((e, n))])
    c_d = np.hstack([np.eye(n), np.zeros((n, e))])
    return a_d, b_d, c_d


_DERIVED = {
    "d_eff": "the effective disturbance H (i_star - delta_i) + d_meas",
    "y_ref": "the voltage reference H i_star + d_meas",
}


@np.errstate(over="ignore", invalid="ignore")
def _derived(spec: GridSpec, H, name: str):
    """The vector ``name`` of ``spec``, H v + d_meas per slice when H is a stack:
    d_eff (v = i_star - delta_i) or y_ref (v = i_star); or Overflow naming it."""
    v = spec.i_star - spec.delta_i if name == "d_eff" else spec.i_star
    out = H @ v + spec.d_meas
    if not np.isfinite(out).all():
        raise Overflow(_DERIVED[name])
    return out


def _discretize(spec: GridSpec, g_node: NDArray[np.float64]) -> tuple[list, SimpleNamespace]:
    """The grids of ``spec`` with each row of ``g_node`` (B, n) as node conductances.

    Returns per row the SingularMatrix its steady-state solve raised or
    None, and the rows that solved, each field an array over them: A
    (A_d), H, H_x and d_eff; and B, C and D (B_d, C_d, 0), which they
    share.  A_d is not screened here: the steady state exists even where
    A_d is unstable, as (I - A_d) = -eps E^{-1} K is invertible for
    positive conductances, and each caller screens its A_d once.
    """
    a_d, b_d, c_d = _raw_matrices(spec, g_node)
    d_d = np.zeros((spec.n_nodes, spec.n_nodes))
    errors: list = [None] * len(a_d)
    try:
        H, H_x = sensitivity(a_d, b_d, c_d, d_d)
    except SingularMatrix:
        # one singular slice fails the stacked solve: solve each row alone
        for b, a in enumerate(a_d):
            try:
                sensitivity(a[None], b_d, c_d, d_d)
            except SingularMatrix as exc:
                errors[b] = exc
        a_d = a_d[[error is None for error in errors]]
        H, H_x = sensitivity(a_d, b_d, c_d, d_d)
    d_eff = _derived(spec, H, "d_eff")
    return errors, SimpleNamespace(A=a_d, B=b_d, C=c_d, D=d_d, H=H, H_x=H_x, d_eff=d_eff)


def assemble_plant(spec: GridSpec) -> tuple[LtiPlant, SensitivityModel, NDArray[np.float64]]:
    """The grid discretized as a stable LTI plant: the one-row case of ``_discretize``.

    Returns the plant (deviation-state realization), its sensitivity
    model, and the effective output disturbance H (i_star - delta_i) + d_meas.
    Raises UnstableDiscretization, with the radius of ``LtiPlant``'s Schur
    screen (inf where A_d overflows), if the Euler step is too large for the
    parameters; SingularMatrix if (I - A_d) is numerically singular (a
    vanishing conductance).
    """
    (error,), grids = _discretize(spec, spec.g_node[None])
    if error is not None:
        raise error
    try:
        plant = LtiPlant(A=grids.A[0], B=grids.B, C=grids.C, D=grids.D, d=grids.d_eff[0])
    except ValueError as exc:  # a non-finite or unstable A_d
        raise UnstableDiscretization(getattr(exc, "spectral_radius", math.inf)) from None
    return plant, SensitivityModel(H=grids.H[0], H_x=grids.H_x[0]), plant.d


def grid_objective(spec: GridSpec, model: SensitivityModel) -> QuadraticObjective:
    """Voltage-tracking objective with reference H i_star + d_meas."""
    y_ref = _derived(spec, model.H, "y_ref")
    return QuadraticObjective(gamma1=spec.gamma1, gamma2=spec.gamma2, y_ref=y_ref)


def sweep_g(
    g_values,
    eta: float,
    steps: int = sim.DEFAULT_STEPS,
    spec: GridSpec | None = None,
) -> list[dict]:
    """Evaluate the sub-optimality trade-off across node conductances.

    All rows are assembled, screened and certified on one stacked axis
    (see the module docstring), and their decentralized loops run as one
    batched loop, which reproduces each row's ``sim.run_algebraic`` final
    iterate bit for bit.  A non-finite or non-positive G, a singular
    sensitivity solve and singular equations of either reference point
    note their row, cells empty, and run no loop; a diverged loop notes
    the step at which it diverged.  A certificate past the floating-point range raises the
    Overflow of the first row that has one, as the per-instance functions
    would; so does an effective disturbance or a reference past it.
    """
    cfg = ControllerConfig(mode=Mode.DECENTRALIZED, eta=eta)
    base = spec if spec is not None else default_topology()
    rows = [
        {"g": g, "note": f"conductance must be {'positive' if math.isfinite(g) else 'finite'}"}
        for g in map(float, g_values)
    ]
    live = [row for row in rows if row["g"] > 0.0 and math.isfinite(row["g"])]
    errors, grids = _discretize(base, np.outer([row["g"] for row in live], np.ones(base.n_nodes)))
    for row, error in zip(live, errors):
        row["note"] = "" if error is None else str(error)
    solved = [row for row in live if not row["note"]]
    y_ref = _derived(base, grids.H, "y_ref")
    stable, radius, sigma_a = schur_screen(grids.A)
    g1, g2 = float(base.gamma1), float(base.gamma2)
    cells, errors, fixed = analysis._sweep_certificates(g1, g2, grids, y_ref, stable, sigma_a, eta)
    for error in errors:
        if isinstance(error, Overflow):
            raise error
    run = []
    for b, (row, cell, error) in enumerate(zip(solved, cells, errors)):
        if error is not None:
            row["note"] = str(error)
            continue
        if not stable[b]:
            row["note"] = f"unstable discretization (spectral radius {radius[b]:.6g})"
        row.update(cell, loop_final_err=None)
        run.append(b)
    if not run:
        return rows
    finals, diverged = sim._run_algebraic_batch(
        grids.H[run], grids.d_eff[run], y_ref[run], g1, g2, cfg.eta, steps
    )
    ref, err = _norm(fixed[run]), _norm(finals - fixed[run])
    with np.errstate(divide="ignore", invalid="ignore"):
        final_err = np.where(ref > 0.0, err / ref, err).tolist()
    for b, value, step in zip(run, final_err, diverged):
        row = solved[b]
        if step is None:
            row["loop_final_err"] = value
        else:
            note = f"closed loop diverged (non-finite iterate at step {step})"
            row["note"] = f"{row['note']}; {note}" if row["note"] else note
    return rows


SWEEP_COLUMNS = [
    "g",
    "coupling_ok",
    "coupling_lhs",
    "coupling_rhs",
    "rel_subopt",
    "bound_tight_rel",
    "bound_tight_applicable",
    "bound_paper_rel",
    "bound_paper_applicable",
    "lam_max_xi",
    "eta_star",
    "loop_final_err",
    "note",
]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_sweep_csv(path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_cell(row.get(col)) for col in SWEEP_COLUMNS) + "\n")


def spec_to_dict(spec: GridSpec) -> dict:
    """The JSON form of ``spec``: one key per field, vectors and edges as lists."""
    data = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    data["edges"] = [list(edge) for edge in spec.edges]
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in data.items()}


def _edges(value) -> tuple[tuple[int, int], ...]:
    """Config parser: node pairs whose endpoints are whole JSON numbers."""
    return tuple((whole(i), whole(j)) for i, j in value)


# a number is kept as given, so an int stays an int in ``spec_to_dict``
_GRID_PARSERS = dict(n_nodes=whole, edges=_edges, eps=number, gamma1=number, gamma2=number)
# The "grid" config table: one key per GridSpec field, absent meaning the
# field's default; the vector fields parse as finite arrays.
GRID_TABLE = {
    f.name: (_GRID_PARSERS.get(f.name, finite), None) for f in dataclasses.fields(GridSpec)
}


def spec_from_dict(data: dict) -> GridSpec:
    """Build a GridSpec from parsed JSON; an absent or null field takes its default.

    Raises ConfigError naming the offending key on bad shapes or values.
    """
    values = read_section("grid", data, GRID_TABLE)
    return convert("grid", GridSpec, **{k: v for k, v in values.items() if v is not None})
