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

Grids that differ only in G share one assembly: their A_d lie on one
leading axis (B, n_state, n_state), solved by one stacked solve, and each
slice is screened as an ``LtiPlant``; ``assemble_plant`` is B = 1,
``sweep_g`` stacks every positive G.  A G so small that 1 + eps g / c_cap
rounds to 1 leaves the grid without a ground path (the incidence matrix
has rank n - 1), so (I - A_d) is singular: the sweep notes that row,
certificate cells empty.  A row whose coupling fails is no failure: no
note, a ``lam_max_xi`` of at least 1 and an empty ``eta_star``.

The sweep keeps that axis for the certificates and reference points:
each spectrum behind them (H, H - H_diag, C, H_x, H_x^T A and A) is one
SVD over all rows, C once, and the global optimum and the decentralized
fixed point are one stacked solve each.  The formulas that the
per-instance functions of ``equilibria`` and ``analysis`` apply to their
own spectra then fill each row, so a row equals their results on its
grid bit for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import analysis, sim
from .analysis import Convention
from .controller import ControllerConfig, Mode
from .equilibria import _constants, _coupling, _h_spectra, _max_abs_diag, _quadratic_points
from .errors import (
    DimensionMismatch,
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
from .plant import LtiPlant, SensitivityModel, sensitivity

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


def _default_vectors(n: int, e: int) -> dict:
    """The default vectors of an ``n``-node, ``e``-edge grid."""
    return {
        "c_cap": np.ones(n),
        "l_ind": np.ones(e),
        "r_line": 10.0 * np.ones(e),
        "g_node": np.ones(n),
        "i_star": np.ones(n),
        "delta_i": np.ones(n),
        "d_meas": np.zeros(n),
    }


def _edge_pairs(edges) -> tuple[tuple[int, int], ...]:
    return tuple((int(i), int(j)) for i, j in edges)


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
        edges = _edge_pairs(self.edges)
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
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) != n:
            missing = sorted(k + 1 for k in range(n) if k not in seen)
            message = f"edge list does not connect nodes {missing} to node 1"
            raise on_field("edges", ValueError(message))
        object.__setattr__(self, "edges", edges)
        defaults = _default_vectors(n, e)
        for name, length, positive in (
            ("c_cap", n, True),
            ("l_ind", e, True),
            ("r_line", e, True),
            ("g_node", n, True),
            ("i_star", n, False),
            ("delta_i", n, False),
            ("d_meas", n, False),
        ):
            value = getattr(self, name)
            value = defaults[name] if value is None else value
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
        low, high = min(i, j), max(i, j)
        mat[low - 1, col] = 1.0
        mat[high - 1, col] = -1.0
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


def _discretize(spec: GridSpec, g_node: NDArray[np.float64]) -> list:
    """Per row of ``g_node`` (B, n), the plant (None when unstable), model,
    d_eff and unstable radius of ``spec`` with that g_node, or the
    SingularMatrix its steady-state solve raised.

    (I - A_d) = -eps E^{-1} K is invertible for positive conductances,
    so the steady-state map exists even when A_d is unstable.
    """
    a_d, b_d, c_d = _raw_matrices(spec, g_node)
    d_d = np.zeros((spec.n_nodes, spec.n_nodes))
    try:
        models = sensitivity(a_d, b_d, c_d, d_d)
    except SingularMatrix as exc:
        # one singular slice fails the stacked solve: solve each row alone
        return [exc] if len(g_node) == 1 else [o for g in g_node for o in _discretize(spec, g[None])]
    out = []
    for a, model in zip(a_d, models):
        d_eff = model.H @ (spec.i_star - spec.delta_i) + spec.d_meas
        try:
            out.append((LtiPlant(A=a, B=b_d, C=c_d, D=d_d, d=d_eff), model, d_eff, None))
        except ValueError as exc:
            if not hasattr(exc, "spectral_radius"):
                raise
            out.append((None, model, d_eff, exc.spectral_radius))
    return out


def assemble_plant(spec: GridSpec) -> tuple[LtiPlant, SensitivityModel, NDArray[np.float64]]:
    """Discretize the grid and wrap it as a stable LTI plant.

    Returns the plant (deviation-state realization), its sensitivity
    model, and the effective output disturbance H (i_star - delta_i) + d_meas.

    Raises
    ------
    UnstableDiscretization
        If the Euler step is too large for the chosen parameters.
    SingularMatrix
        If (I - A_d) is numerically singular (a vanishing conductance).
    """
    outcome = _discretize(spec, spec.g_node[None])[0]
    if isinstance(outcome, SingularMatrix):
        raise outcome
    plant, model, d_eff, radius = outcome
    if plant is None:
        raise UnstableDiscretization(radius)
    return plant, model, d_eff


def _y_ref(spec: GridSpec, H):
    """The reference H i_star + d_meas, per slice when H is a stack."""
    return H @ spec.i_star + spec.d_meas


def grid_objective(spec: GridSpec, model: SensitivityModel) -> QuadraticObjective:
    """Voltage-tracking objective with reference H i_star + d_meas."""
    return QuadraticObjective(gamma1=spec.gamma1, gamma2=spec.gamma2, y_ref=_y_ref(spec, model.H))


def _stacked(spec: GridSpec, outcomes: list) -> list[tuple]:
    """Per row of ``outcomes`` that has a model: its reference y_ref, global
    optimum, decentralized fixed point, ``_h_spectra`` and ``_xi_spectra``
    (None without a plant), each from one call over all such rows.

    A reference point is the solution or the error its equations raise.
    """
    plants, models, d_eff, _ = zip(*outcomes)
    H = np.stack([model.H for model in models])
    H_diag = np.stack([model.H_diag for model in models])
    y_ref = _y_ref(spec, H)
    gammas, d_eff = (float(spec.gamma1), float(spec.gamma2)), np.stack(d_eff)
    stars = _quadratic_points(*gammas, y_ref, d_eff, H, H, "global optimum")
    fixed = _quadratic_points(*gammas, y_ref, d_eff, H, H_diag, "decentralized fixed point")
    xi: list = [None] * len(plants)
    stable = [b for b, plant in enumerate(plants) if plant is not None]
    if stable:
        spectra = analysis._xi_spectra(
            plants[stable[0]].C,
            np.stack([models[b].H_x for b in stable]),
            np.stack([plants[b].A for b in stable]),
        )
        for b, row in zip(stable, zip(*np.broadcast_arrays(*spectra))):
            xi[b] = row
    return list(zip(y_ref, stars, fixed, zip(*_h_spectra(H, H_diag)), xi))


def _sweep_rows(spec: GridSpec, g_values: list, outcomes: list, eta: float) -> list[tuple]:
    """Each sweep row without its closed loop, and the loop's inputs.

    ``outcomes`` holds per g its ``_discretize`` result or the error
    naming why the row has none.  The rows' spectra and reference points
    come from ``_stacked``; the certificate formulas then fill the rows
    in order, so the first row that fails raises what it raises alone.
    The inputs are (H, d_eff, y_ref, decentralized fixed point), or None
    for a row that cannot run a loop.
    """
    solved = [o for o in outcomes if not isinstance(o, Exception)]
    per_row = iter(_stacked(spec, solved) if solved else [])
    out = []
    for g, outcome in zip(g_values, outcomes):
        if isinstance(outcome, Exception):
            out.append(({"g": g, "note": str(outcome)}, None))
            continue
        plant, model, d_eff, radius = outcome
        y_ref, star, fixed, spectra, xi_spectra = next(per_row)
        row: dict = {"g": g, "note": ""}
        if plant is None:
            row["note"] = f"unstable discretization (spectral radius {radius:.6g})"
        obj = QuadraticObjective(gamma1=spec.gamma1, gamma2=spec.gamma2, y_ref=y_ref)
        tight = _constants(obj, model.n, spectra, Convention.TIGHT)
        satisfied, lhs, rhs = _coupling(obj, tight)
        row["coupling_ok"] = satisfied
        row["coupling_lhs"] = lhs
        row["coupling_rhs"] = rhs
        for point in (star, fixed):
            if isinstance(point, Exception):
                raise point
        norm_star = _norm(star)
        rel_sub = _norm(star - fixed)
        row["rel_subopt"] = rel_sub / norm_star if norm_star > 0.0 else rel_sub
        paper = _constants(obj, model.n, spectra, Convention.PAPER)
        lead = analysis._dropped_gradient(obj, model, d_eff, fixed)
        for key, consts in (("bound_tight", tight), ("bound_paper", paper)):
            sub = analysis._bound(lead, consts, satisfied)
            scaled = sub.bound / norm_star if norm_star > 0.0 else sub.bound
            row[f"{key}_rel"] = scaled if np.isfinite(scaled) else None
            row[f"{key}_applicable"] = sub.applicable
        row["lam_max_xi"] = row["eta_star"] = None
        if plant is not None:
            cert = analysis._xi_certificate(
                obj, model.n, tight, _max_abs_diag(model), xi_spectra, eta, Convention.TIGHT
            )
            row["lam_max_xi"], row["eta_star"] = cert.lam_max, cert.eta_star
        out.append((row, (model.H, d_eff, y_ref, fixed)))
    return out


def sweep_g(
    g_values,
    eta: float,
    steps: int = sim.DEFAULT_STEPS,
    spec: GridSpec | None = None,
) -> list[dict]:
    """Evaluate the sub-optimality trade-off across node conductances.

    The grids of all positive G are assembled on one leading axis, and
    the spectra and both reference points of all their rows are computed
    on it too (one SVD per spectrum, one solve per reference point); the
    certificate formulas then fill the rows one by one.  The
    decentralized loops of all rows run as one batched loop, which
    reproduces each row's ``sim.run_algebraic`` final iterate bit for
    bit.  Failures annotate their row, a singular sensitivity solve with
    empty certificate cells and a diverged loop with the step at which it
    diverged.  A certificate past the floating-point range or singular
    reference-point equations raise the Overflow or SingularMatrix of the
    first row that has one, as the per-instance functions would.
    """
    cfg = ControllerConfig(mode=Mode.DECENTRALIZED, eta=eta)
    base = spec if spec is not None else default_topology()
    g_values = [float(g) for g in g_values]
    ok = [g > 0.0 and np.isfinite(g) for g in g_values]
    assembled = iter(_discretize(base, np.outer(np.compress(ok, g_values), np.ones(base.n_nodes))))
    outcomes = [
        next(assembled) if valid else ValueError("conductance must be positive") for valid in ok
    ]
    rows, pending = [], []
    for row, loop in _sweep_rows(base, g_values, outcomes, eta):
        rows.append(row)
        if loop is not None:
            pending.append((row, loop))
    if not pending:
        return rows
    H, d_eff, y_ref, fixed = (np.stack(a) for a in zip(*(loop for _, loop in pending)))
    finals, diverged = sim._run_algebraic_batch(
        H, d_eff, y_ref, float(base.gamma1), float(base.gamma2), cfg.eta, steps
    )
    for (row, _), final, fixed_u, step in zip(pending, finals, fixed, diverged):
        if step is not None:
            row["loop_final_err"] = None
            note = f"closed loop diverged (non-finite iterate at step {step})"
            row["note"] = f"{row['note']}; {note}" if row["note"] else note
            continue
        ref = _norm(fixed_u)
        err = _norm(final - fixed_u)
        row["loop_final_err"] = err / ref if ref > 0.0 else err
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
