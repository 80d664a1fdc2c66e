"""DC-grid case study: topology, discretization, and the conductance sweep."""

import dataclasses
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import grid_instance, grid_row
from oracles import spectral_radius

import ofonet.analysis as an
import ofonet.powergrid as pg
import ofonet.sim as sim
from ofonet.cli import FIG4_G_VALUES
from ofonet.controller import ControllerConfig, Mode
from ofonet.equilibria import decentralized_fixed_point, global_optimum
from ofonet.errors import (
    ConfigError,
    NonFinite,
    OfonetError,
    Overflow,
    SingularMatrix,
    UnstableDiscretization,
    _norm,
)
from ofonet.objective import QuadraticObjective
from ofonet.plant import (
    LtiPlant,
    SensitivityModel,
    compute_sensitivity,
    schur_screen,
    sensitivity,
)
from ofonet.sim import run_lti


def test_default_topology_shape():
    spec = pg.default_topology()
    assert spec.n_nodes == 8
    assert spec.n_edges == 9
    degrees = np.zeros(8, dtype=int)
    for i, j in spec.edges:
        degrees[i - 1] += 1
        degrees[j - 1] += 1
    npt.assert_array_equal(degrees, [2, 2, 1, 4, 4, 2, 2, 1])


def test_incidence_matrix():
    spec = pg.default_topology()
    e = pg.incidence(spec)
    assert e.shape == (8, 9)
    npt.assert_array_equal(e.sum(axis=0), np.zeros(9))
    npt.assert_array_equal(np.abs(e).sum(axis=0), 2 * np.ones(9))


def test_default_discretization_stable():
    spec = pg.default_topology()
    plant, model = pg.assemble_plant(spec)
    assert plant.n_state == 17
    assert model.n == 8
    assert spectral_radius(plant.A) == pytest.approx(0.9, abs=1e-12)


def test_sensitivity_spectrum_frozen_values():
    spec = pg.default_topology()
    _, model = pg.assemble_plant(spec)
    s = np.linalg.svd(model.H, compute_uv=False)
    assert s[0] == pytest.approx(1.0, abs=1e-6)
    assert s[-1] == pytest.approx(0.639151, abs=1e-6)
    off = np.linalg.svd(model.H - np.diag(np.diag(model.H)), compute_uv=False)
    assert off[0] == pytest.approx(0.183855, abs=1e-6)


def test_effective_disturbance_composition():
    spec = pg.default_topology()
    plant, model = pg.assemble_plant(spec)
    expected = model.H @ (spec.i_star - spec.delta_i) + spec.d_meas
    npt.assert_allclose(plant.d, expected, atol=1e-12)


# finite inputs whose derived vector leaves the float range: i_star - delta_i
# (the effective disturbance), and H i_star where g = 0.01 makes H large (the
# reference; of the sweep's g values only 0.01 does)
DERIVED_OVERFLOWS = {
    "the effective disturbance H (i_star - delta_i) + d_meas": (
        dict(i_star=[1e308] + [1.0] * 7, delta_i=[-1e308] + [1.0] * 7),
        [1.0, 2.0],
    ),
    "the voltage reference H i_star + d_meas": (
        dict(g_node=[0.01] * 8, i_star=[1e308] * 8, delta_i=[1e308] * 8),
        [1.0, 0.01],
    ),
}


@pytest.mark.parametrize("what", sorted(DERIVED_OVERFLOWS))
def test_derived_vector_past_the_float_range_raises_overflow(what):
    fields, g_values = DERIVED_OVERFLOWS[what]
    spec = dataclasses.replace(pg.default_topology(), **fields)
    message = f"{what} leaves the floating-point range"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow) as alone:
            _, model = pg.assemble_plant(spec)
            pg.grid_objective(spec, model)
        with pytest.raises(Overflow) as swept:
            pg.sweep_g(g_values, 0.05, steps=10, spec=spec)
    assert str(alone.value) == str(swept.value) == message


@pytest.mark.parametrize("jitter", [False, True])
def test_grid_model_equals_compute_sensitivity_of_its_plant(jitter):
    spec = pg.default_topology()
    if jitter:
        rng = np.random.default_rng(7)
        spec = dataclasses.replace(
            spec,
            c_cap=rng.uniform(0.5, 2.0, 8),
            l_ind=rng.uniform(0.5, 2.0, 9),
            r_line=rng.uniform(5.0, 15.0, 9),
            g_node=rng.uniform(0.5, 2.0, 8),
            eps=0.05,
        )
    errors, grids = pg._discretize(spec, spec.g_node[None])
    stable, _, _ = schur_screen(grids.A)
    assert errors == [None]
    assert stable.tolist() == [True]
    again = compute_sensitivity(pg.assemble_plant(spec)[0])
    for name in ("H", "H_x"):
        assert getattr(grids, name)[0].tobytes() == getattr(again, name).tobytes(), name


def test_grid_objective_reference():
    spec = pg.default_topology()
    _, model = pg.assemble_plant(spec)
    obj = pg.grid_objective(spec, model)
    assert isinstance(obj, QuadraticObjective)
    npt.assert_allclose(obj.y_ref, model.H @ spec.i_star + spec.d_meas, atol=1e-12)


def test_closed_loop_settles_at_fixed_point():
    spec = pg.default_topology()
    plant, model = pg.assemble_plant(spec)
    obj = pg.grid_objective(spec, model)
    cfg = ControllerConfig(mode=Mode.DECENTRALIZED, eta=0.05)
    traj = run_lti(plant, obj, cfg, steps=10**5)
    fp = decentralized_fixed_point(obj, model, plant.d)
    npt.assert_allclose(traj.u_series[-1], fp.u, atol=1e-8)


def test_unstable_conductance_raises():
    spec = pg.default_topology()
    bad = pg.spec_from_dict({**pg.spec_to_dict(spec), "g_node": [20.0] * 8})
    with pytest.raises(UnstableDiscretization) as info:
        pg.assemble_plant(bad)
    assert info.value.spectral_radius >= 1.0 - 1e-9


def test_unstable_discretization_reports_eigenvalue_radius():
    spec = pg.default_topology()
    bad = pg.spec_from_dict({**pg.spec_to_dict(spec), "g_node": [20.0] * 8})
    a_d = pg._raw_matrices(bad, bad.g_node[None])[0][0]
    with pytest.raises(UnstableDiscretization) as info:
        pg.assemble_plant(bad)
    assert info.value.spectral_radius == spectral_radius(a_d)


def test_stock_grid_assembles_without_eigenvalue_solve(monkeypatch):
    # ||A_d||_2 < 1 on the default topology certifies stability by itself
    spec = pg.default_topology()
    a_d = pg._raw_matrices(spec, spec.g_node[None])[0][0]
    assert np.linalg.svd(a_d, compute_uv=False)[0] < 1.0 - 1e-9

    def boom(a):
        raise AssertionError("eigvals called on a grid with ||A_d||_2 < 1")

    monkeypatch.setattr(np.linalg, "eigvals", boom)
    plant, _ = pg.assemble_plant(spec)
    assert plant.n_state == 17


def test_discretize_screens_the_stack_once(monkeypatch):
    # on the default grid, g = 0.3 is stable with ||A_d||_2 >= 1, g = 1
    # stable with ||A_d||_2 < 1, and g = 25 unstable
    spec = pg.default_topology()
    g_node = np.outer([0.3, 1.0, 25.0], np.ones(spec.n_nodes))
    a_d = pg._raw_matrices(spec, g_node)[0]
    norms = [np.linalg.svd(a, compute_uv=False)[0] for a in a_d]
    assert [norm >= 1.0 - 1e-9 for norm in norms] == [True, False, True]
    radii = [spectral_radius(a_d[0]), 0.0, spectral_radius(a_d[2])]
    calls = _count_calls(monkeypatch, ["svd", "eigvals"])
    errors, grids = pg._discretize(spec, g_node)
    # the assembly itself leaves A_d unscreened: no SVD, no eigenvalue call
    assert calls == {"svd": [], "eigvals": []}
    stable, radius, sigma_a = schur_screen(grids.A)
    assert errors == [None] * 3
    assert stable.tolist() == [True, True, False]
    assert radius.tolist() == radii
    assert sigma_a.tolist() == norms
    # one values-only SVD of the stack, and one eigenvalue call on exactly
    # the slices whose norm proves nothing
    assert calls["svd"] == [a_d.shape]
    assert calls["eigvals"] == [(2, *a_d.shape[1:])]


def test_stock_grid_assembly_takes_one_svd_of_its_a_d(monkeypatch):
    # LtiPlant's Schur screen is the only one: a values-only SVD of the (17, 17) A_d
    calls = _count_calls(monkeypatch, ["svd"])
    pg.assemble_plant(pg.default_topology())
    assert calls["svd"] == [(17, 17)]


def test_assemble_plant_returns_the_plant_and_its_model():
    # the effective disturbance is the plant's d, not a third value
    assembled = pg.assemble_plant(pg.default_topology())
    assert len(assembled) == 2
    plant, model = assembled
    assert isinstance(plant, LtiPlant) and isinstance(model, SensitivityModel)


def test_sensitivity_solves_one_matrix_per_slice(monkeypatch):
    # numpy < 2 reads a 2-D right-hand side under a stack of matrices as a
    # stack of vectors; a B with the stack's leading axes reads alike in both
    ndims = []

    def spy(a, b, _solve=np.linalg.solve):
        ndims.append((np.ndim(a), np.ndim(b)))
        return _solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    spec = pg.default_topology()
    pg._discretize(spec, np.outer([1.0, 2.0, 5.0], np.ones(spec.n_nodes)))
    plant, _ = pg.assemble_plant(spec)
    compute_sensitivity(plant)
    assert sorted(set(ndims)) == [(2, 2), (3, 3)]


def test_sweep_screens_the_stack_of_its_rows_once(monkeypatch):
    # of five conductances, -1 is no grid and 1e-18 a singular slice: the
    # sweep screens the stack of the other three, and the assembly none
    screens = []

    def counted(a, _screen=schur_screen):
        screens.append(np.shape(a))
        return _screen(a)

    monkeypatch.setattr(pg, "schur_screen", counted)
    spec = pg.default_topology()
    pg._discretize(spec, np.outer([0.3, 1.0, 25.0], np.ones(spec.n_nodes)))
    assert screens == []
    rows = pg.sweep_g([-1.0, 1e-18, 0.3, 1.0, 25.0], 0.05, steps=10)
    assert screens == [(3, 17, 17)]
    assert [bool(row["note"]) for row in rows] == [True, True, False, False, True]


def _random_spec(seed: int, n: int, eps: float) -> pg.GridSpec:
    """A jittered grid on a random connected topology: a random spanning
    tree on relabelled nodes plus up to n extra edges."""
    rng = np.random.default_rng(seed)
    label = rng.permutation(n) + 1
    edges = {tuple(sorted((label[k], label[rng.integers(k)]))) for k in range(1, n)}
    for _ in range(rng.integers(n + 1)):
        i, j = rng.choice(n, 2, replace=False) + 1
        edges.add((min(i, j), max(i, j)))
    e = len(edges)
    return pg.GridSpec(
        n_nodes=n,
        edges=tuple(sorted(edges)),
        c_cap=rng.uniform(0.5, 2.0, n),
        l_ind=rng.uniform(0.5, 2.0, e),
        r_line=rng.uniform(2.0, 20.0, e),
        g_node=np.ones(n),
        i_star=rng.uniform(0.0, 2.0, n),
        delta_i=rng.uniform(0.0, 2.0, n),
        d_meas=rng.uniform(-0.2, 0.2, n),
        eps=eps,
    )


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    batch=st.integers(1, 5),
    eps=st.floats(0.01, 0.5),
)
@example(seed=0, n=8, batch=4, eps=0.5)
def test_stacked_slices_equal_assemble_plant(seed, n, batch, eps):
    # per-node conductances on a log scale from 0.05 to 20: at eps near
    # 0.5 the larger ones make A_d unstable
    spec = _random_spec(seed, n, eps)
    g_node = np.exp(np.random.default_rng(seed + 1).uniform(np.log(0.05), np.log(20.0), (batch, n)))
    a_d, b_d, c_d = pg._raw_matrices(spec, g_node)
    e_inv = np.concatenate([1.0 / spec.c_cap, 1.0 / spec.l_ind])
    inc = pg.incidence(spec)
    d_d = np.zeros((n, n))
    errors, grids = pg._discretize(spec, g_node)
    stable, radius, _ = schur_screen(grids.A)
    assert errors == [None] * batch
    for b, (g, a) in enumerate(zip(g_node, a_d)):
        # the slice is the full formula I + eps E^{-1} K, byte for byte
        k_mat = np.block([[-np.diag(g), -inc], [inc.T, -np.diag(spec.r_line)]])
        full = np.eye(len(e_inv)) + spec.eps * (e_inv[:, None] * k_mat)
        assert a.tobytes() == grids.A[b].tobytes() == full.tobytes()
        alone = sensitivity(full, b_d, c_d, d_d)
        for name in ("H", "H_x"):
            assert getattr(grids, name)[b].tobytes() == getattr(alone, name).tobytes(), name
        spec_g = dataclasses.replace(spec, g_node=g)
        # assemble_plant is the one-row stack; grid_row builds the row alone
        row_plant, _, row_d, row_radius = grid_row(spec_g)
        assert grids.d_eff[b].tobytes() == row_d.tobytes()
        if not stable[b]:
            with pytest.raises(UnstableDiscretization) as info:
                pg.assemble_plant(spec_g)
            assert info.value.spectral_radius == radius[b] == spectral_radius(full)
            assert row_plant is None and row_radius == radius[b]
            continue
        assert row_radius is None
        ref_plant, ref_model = pg.assemble_plant(spec_g)
        assert grids.A[b].tobytes() == ref_plant.A.tobytes()
        assert grids.d_eff[b].tobytes() == ref_plant.d.tobytes()
        for name in ("H", "H_x"):
            assert getattr(grids, name)[b].tobytes() == getattr(ref_model, name).tobytes(), name


def test_sweep_annotates_singular_row_and_keeps_the_rest():
    # g = 1e-18 rounds A_d to the ungrounded grid's, so (I - A_d) is singular
    rows = pg.sweep_g([1.0, 1e-18, 5.0], eta=0.05, steps=2000)
    assert rows[1] == {"g": 1e-18, "note": "(I - A) is singular: Singular matrix"}
    assert [rows[0], rows[2]] == pg.sweep_g([1.0, 5.0], eta=0.05, steps=2000)
    with pytest.raises(SingularMatrix, match="singular"):
        pg.assemble_plant(dataclasses.replace(pg.default_topology(), g_node=1e-18 * np.ones(8)))


# the jittered grid of the golden CI job's conductance sweep
JITTER = pg.spec_from_dict(
    {
        "c_cap": [1.2, 0.8, 1.1, 0.9, 1.3, 0.7, 1.05, 0.95],
        "l_ind": [0.9, 1.1, 1.2, 0.8, 1.0, 1.15, 0.85, 1.25, 0.75],
        "r_line": [9.0, 11.0, 10.5, 8.5, 12.0, 9.5, 10.0, 11.5, 8.0],
        "i_star": [1.1, 0.9, 1.0, 1.2, 0.8, 1.05, 0.95, 1.15],
        "d_meas": [0.0, 0.1, -0.1, 0.0, 0.05, 0.0, -0.05, 0.0],
    }
)
JITTER_G = [0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 300.0]
# (spec, g values, eta).  On the stock grid: two non-positive rows, a
# singular slice (1e-18) and a singular global optimum (1e-15).  On a
# random grid and on the jittered one: coupling-failing, stable and
# unstable rows; the jittered one also at eta = 1.2, where loops diverge,
# with a singular global optimum (1e-18), and with non-unit objective weights.
SWEEP_CASES = {
    "fig4": (pg.default_topology(), [*FIG4_G_VALUES, 0.0, -1.0, 1e-18, 1e-15, 1000.0], 0.05),
    "random": (_random_spec(5, 5, 0.1), list(np.geomspace(0.05, 20.0, 9)), 0.05),
    "jitter": (JITTER, JITTER_G, 0.05),
    "jitter-diverging": (JITTER, [*JITTER_G, 1e-18], 1.2),
    "weights": (dataclasses.replace(JITTER, gamma1=0.5, gamma2=2.0, eps=0.05), JITTER_G, 0.05),
}


def _per_instance_cells(spec, g, eta, steps):
    """The sweep row of ``g`` from the per-instance path: the grid's own
    discretization (``grid_row``), the public certificate functions and
    ``sim.run_algebraic``, with each norm taken alone."""
    spec = dataclasses.replace(spec, g_node=np.full(spec.n_nodes, g))
    plant, model, d_eff, radius = grid_row(spec)
    obj = pg.grid_objective(spec, model)
    satisfied, lhs, rhs = an.coupling_condition(obj, model)
    star = global_optimum(obj, model, d_eff).u
    fixed = decentralized_fixed_point(obj, model, d_eff).u
    norm_star = _norm(star)
    assert norm_star > 0.0
    notes = [] if plant is not None else [f"unstable discretization (spectral radius {radius:.6g})"]
    cells = {
        "coupling_ok": satisfied,
        "coupling_lhs": lhs,
        "coupling_rhs": rhs,
        "rel_subopt": _norm(star - fixed) / norm_star,
        "lam_max_xi": None,
        "eta_star": None,
    }
    for convention in an.Convention:
        key = f"bound_{convention.value}"
        consts = an.monotonicity_constants(obj, model, convention)
        sub = an.suboptimality_bound(obj, model, d_eff, fixed, consts)
        cells[f"{key}_rel"] = sub.bound / norm_star if np.isfinite(sub.bound) else None
        cells[f"{key}_applicable"] = sub.applicable
    if plant is not None:
        cert = an.xi_matrix(plant, obj, model, eta)
        cells["lam_max_xi"], cells["eta_star"] = cert.lam_max, cert.eta_star
    cfg = ControllerConfig(mode=Mode.DECENTRALIZED, eta=eta)
    try:
        final = sim.run_algebraic(model, obj, d_eff, cfg, steps=steps).u_series[-1]
    except NonFinite as exc:
        cells["loop_final_err"] = None
        notes.append(f"closed loop diverged (non-finite iterate at step {exc.step})")
    else:
        cells["loop_final_err"] = _norm(final - fixed) / _norm(fixed)
    return {"g": g, "note": "; ".join(notes), **cells}


def _bits(row):
    """``row`` with its float bits spelled out, so -0.0 differs from 0.0."""
    return {k: v.hex() if isinstance(v, float) else v for k, v in row.items()}


def test_sweep_certificate_columns_are_named_in_analysis(monkeypatch):
    # the CSV writes the cells that analysis names, so a cell added without
    # its name fails here instead of going missing from the file
    cells = []

    def spy(*args, _certify=an._sweep_certificates):
        certified = _certify(*args)
        cells.extend(certified[0])
        return certified

    monkeypatch.setattr(an, "_sweep_certificates", spy)
    spec, g_values, eta = SWEEP_CASES["jitter"]
    pg.sweep_g(g_values, eta, steps=10, spec=spec)
    assert pg.SWEEP_COLUMNS[1:-2] == list(an.CERTIFICATE_COLUMNS)
    assert pg.SWEEP_COLUMNS[0] == "g" and pg.SWEEP_COLUMNS[-2:] == ["loop_final_err", "note"]
    assert len(cells) == len(g_values)
    assert all(list(row) == list(an.CERTIFICATE_COLUMNS) for row in cells)


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_rows_equal_the_per_instance_functions_bit_for_bit(case):
    spec, g_values, eta = SWEEP_CASES[case]
    rows = pg.sweep_g(g_values, eta, steps=300, spec=spec)
    kinds = set()
    for g, row in zip(g_values, rows):
        if g <= 0.0:
            assert row == {"g": g, "note": "conductance must be positive"}
            continue
        try:
            expected = _per_instance_cells(spec, g, eta, 300)
        except SingularMatrix as exc:
            assert row == {"g": g, "note": str(exc)}
            kinds.add("singular " + ("sensitivity" if "(I - A)" in str(exc) else "optimum"))
            continue
        assert _bits(row) == _bits(expected), g
        kinds.add("unstable" if row["lam_max_xi"] is None else "stable")
        kinds.update({"diverged"} if row["loop_final_err"] is None else ())
        kinds.update(set() if row["coupling_ok"] else {"coupling fails"})
    expected_kinds = {"stable", "unstable"} | {
        "fig4": {"singular sensitivity", "singular optimum"},
        "random": {"coupling fails"},
        "jitter": {"coupling fails"},
        "jitter-diverging": {"coupling fails", "diverged", "singular optimum"},
        "weights": {"coupling fails"},
    }[case]
    assert kinds == expected_kinds


# the jittered grid with capacitances 1e-160 times smaller: g = 1e-160 makes
# sigma_max(H)^2 overflow, g = 1e-100 the global optimum equations singular
TINY_CAP = dataclasses.replace(JITTER, c_cap=JITTER.c_cap * 1e-160)


@pytest.mark.parametrize(
    "g_values, error", [([1.0, 1e-160, 1e-100], Overflow), ([1.0, 1e-100, 1e-160], Overflow)]
)
def test_sweep_raises_what_the_first_failing_row_raises_alone(g_values, error):
    with pytest.raises(error) as swept:
        pg.sweep_g(g_values, 0.05, steps=10, spec=TINY_CAP)
    with pytest.raises(OfonetError) as alone:
        for g in g_values:
            try:
                _per_instance_cells(TINY_CAP, g, 0.05, 10)
            except SingularMatrix:
                pass  # the sweep notes this row and goes on
    assert type(alone.value) is error
    assert str(swept.value) == str(alone.value)


@pytest.mark.parametrize(
    "spec, g_values",
    [(JITTER, [1.0, 1e-18, 5.0]), (TINY_CAP, [1.0, 1e-100, 5.0])],
    ids=["jitter", "tiny-cap"],
)
def test_sweep_notes_a_singular_reference_point_and_keeps_the_rest(spec, g_values):
    # the middle row's sensitivity solves, but its global optimum equations
    # are singular: the row is noted, runs no loop and leaves the others
    # as they are without it
    rows = pg.sweep_g(g_values, 0.05, steps=300, spec=spec)
    with pytest.raises(SingularMatrix) as alone:
        _per_instance_cells(spec, g_values[1], 0.05, 300)
    assert "global optimum equations are singular" in str(alone.value)
    assert rows[1] == {"g": g_values[1], "note": str(alone.value)}
    rest = pg.sweep_g(g_values[::2], 0.05, steps=300, spec=spec)
    assert [_bits(row) for row in rows[::2]] == [_bits(row) for row in rest]


def _count_calls(monkeypatch, names):
    """Record the shapes of the first argument of each np.linalg call in ``names``."""
    calls = {name: [] for name in names}
    for name, shapes in calls.items():
        def counted(a, *args, _call=getattr(np.linalg, name), _shapes=shapes, **kwargs):
            _shapes.append(np.shape(a))
            return _call(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("g_values", [JITTER_G[:3], JITTER_G, JITTER_G * 3])
def test_sweep_certifies_and_solves_every_row_on_one_axis(monkeypatch, g_values):
    calls = _count_calls(monkeypatch, ["svd", "solve"])
    pg.sweep_g([-1.0, *g_values], 0.05, steps=10, spec=JITTER)
    n_state = JITTER.n_nodes + JITTER.n_edges
    stack = len(g_values)
    # one Schur screen of the stack, whose norms are sigma_max(A), then one
    # SVD per spectrum: H, H - diag(H) and C, and over the stable rows H_x
    # and H_x^T A
    assert calls["svd"][0] == (stack, n_state, n_state)
    stable = calls["svd"][-1][0]
    assert calls["svd"][1:] == [
        (stack, 8, 8),
        (stack, 8, 8),
        (8, n_state),
        (stable, n_state, 8),
        (stable, 8, n_state),
    ]
    # the sensitivity, then the global optimum and the fixed point
    assert calls["solve"] == [(stack, n_state, n_state), (stack, 8, 8), (stack, 8, 8)]


def test_sweep_builds_no_per_row_object(monkeypatch):
    built = []
    for cls, method in ((LtiPlant, "__post_init__"), (SensitivityModel, "__post_init__"),
                        (QuadraticObjective, "__init__")):
        def counted(self, *args, _call=getattr(cls, method), _name=cls.__name__, **kwargs):
            built.append(_name)
            return _call(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, counted)
    grid_instance(1.0)
    assert built == ["SensitivityModel", "LtiPlant", "QuadraticObjective"]
    built.clear()
    rows = pg.sweep_g([-1.0, 1e-18, *JITTER_G], 0.05, steps=300, spec=JITTER)
    assert {row["note"] for row in rows} >= {"", "conductance must be positive"}
    assert built == []


def test_sweep_columns_and_notes():
    rows = pg.sweep_g([1.0, 20.0], eta=0.05, steps=2000)
    assert [r["g"] for r in rows] == [1.0, 20.0]
    for row in rows:
        assert set(pg.SWEEP_COLUMNS) <= set(row)
    assert rows[0]["note"] == ""
    assert "unstable discretization" in rows[1]["note"]
    # certificates still computed from the algebraic map on unstable rows
    assert rows[1]["coupling_ok"]
    assert rows[1]["rel_subopt"] > 0.0


def _batch_outcomes(g_values, eta, steps):
    """Check the batched loop against run_algebraic per row; name each row's outcome."""
    rows = [grid_instance(g) for g in g_values]
    finals, diverged = sim._run_algebraic_batch(
        np.stack([model.H for _, model, _, _ in rows]),
        np.stack([d_eff for _, _, _, d_eff in rows]),
        np.stack([obj.y_ref for _, _, obj, _ in rows]),
        1.0,
        1.0,
        eta,
        steps,
    )
    seen = []
    for (plant, model, obj, d_eff), final, step in zip(rows, finals, diverged):
        cfg = ControllerConfig(mode=Mode.DECENTRALIZED, eta=eta)
        try:
            traj = sim.run_algebraic(model, obj, d_eff, cfg, steps=steps)
        except NonFinite as exc:
            assert step == exc.step
            assert np.isnan(final).all()
            seen.append("diverged")
            continue
        assert step is None
        assert np.array_equal(final, traj.u_series[-1])
        seen.append(("stable" if plant is not None else "unstable", traj.info.early_stopped))
    return seen


def test_batched_sweep_loop_matches_run_algebraic():
    # g = 1 early-stops at step 294, g = 5 runs out of budget, and
    # g = 50 is an unstable discretization that runs out of budget
    assert _batch_outcomes([1.0, 5.0, 50.0], 0.05, 300) == [
        ("stable", True),
        ("stable", False),
        ("unstable", False),
    ]
    assert _batch_outcomes([1.0, 5.0, 20.0], 30.0, 3000) == ["diverged"] * 3
    # g = 0.5 first reaches a non-finite output on the last pass, y_148
    assert _batch_outcomes([0.5], 30.0, 148) == ["diverged"]


def test_sweep_tests_the_last_output_and_rescues_the_final_error_norm():
    # g = 0.5 diverges through y_148; g = 1 ends finite, but the squares of
    # its final error (~1e257) overflow, so only the rescued norm fits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = pg.sweep_g([0.5, 1.0], eta=30.0, steps=148)
    assert rows[0]["loop_final_err"] is None
    assert rows[0]["note"] == "closed loop diverged (non-finite iterate at step 148)"
    _, model, obj, d_eff = grid_instance(1.0)
    cfg = ControllerConfig(mode=Mode.DECENTRALIZED, eta=30.0)
    traj = sim.run_algebraic(model, obj, d_eff, cfg, steps=148)
    expected = sim.metrics(traj, decentralized_fixed_point(obj, model, d_eff).u).rel_err_u[-1]
    assert 1e250 < expected < np.inf
    npt.assert_allclose(rows[1]["loop_final_err"], expected, rtol=1e-15)
    assert rows[1]["note"] == ""


@pytest.mark.parametrize(
    "g, note",
    [
        (np.inf, "conductance must be finite"),
        (-np.inf, "conductance must be finite"),
        (np.nan, "conductance must be finite"),
        (0.0, "conductance must be positive"),
        (-1.0, "conductance must be positive"),
    ],
)
def test_sweep_notes_why_it_rejects_a_conductance(g, note):
    rows = pg.sweep_g([1.0, g], 0.05, steps=10)
    assert rows[0]["note"] == ""
    assert list(rows[1]) == ["g", "note"]
    assert rows[1]["note"] == note
    npt.assert_equal(rows[1]["g"], g)


def test_sweep_annotates_diverged_rows_and_continues():
    rows = pg.sweep_g([1.0, -1.0, 5.0, 20.0], eta=30.0, steps=3000)
    assert rows[1] == {"g": -1.0, "note": "conductance must be positive"}
    for row in (rows[0], rows[2], rows[3]):
        _, model, obj, d_eff = grid_instance(row["g"])
        cfg = ControllerConfig(mode=Mode.DECENTRALIZED, eta=30.0)
        with pytest.raises(NonFinite) as info:
            sim.run_algebraic(model, obj, d_eff, cfg, steps=3000)
        assert row["loop_final_err"] is None
        assert row["note"].endswith(
            f"closed loop diverged (non-finite iterate at step {info.value.step})"
        )
        assert row["coupling_ok"]
    assert rows[3]["note"].startswith("unstable discretization (spectral radius ")


@pytest.mark.parametrize("eta", [0.0, -1.0, float("nan")])
def test_sweep_rejects_invalid_step_size(eta):
    with pytest.raises(ValueError, match="step size"):
        pg.sweep_g([1.0, 50.0], eta=eta, steps=10)


def test_sweep_csv_cells(tmp_path):
    rows = pg.sweep_g([1.0], eta=0.05, steps=2000)
    path = tmp_path / "sweep.csv"
    pg.write_sweep_csv(path, rows)
    text = path.read_text().splitlines()
    assert text[0] == ",".join(pg.SWEEP_COLUMNS)
    cells = text[1].split(",")
    assert cells[pg.SWEEP_COLUMNS.index("coupling_ok")] == "true"
    assert cells[pg.SWEEP_COLUMNS.index("note")] == ""


def test_spec_roundtrip_and_defaults():
    spec = pg.default_topology()
    again = pg.spec_from_dict(pg.spec_to_dict(spec))
    assert pg.spec_to_dict(again) == pg.spec_to_dict(spec)
    # absent fields fall back to the published defaults
    sparse = pg.spec_from_dict({"g_node": [2.0] * 8})
    npt.assert_allclose(sparse.g_node, 2.0 * np.ones(8))
    assert sparse.n_nodes == 8


def test_spec_from_dict_rejects():
    with pytest.raises(ConfigError, match="bogus"):
        pg.spec_from_dict({"bogus": 1})
    with pytest.raises(ConfigError):
        pg.spec_from_dict({"c_cap": [1.0]})  # wrong length
    with pytest.raises(ConfigError):
        pg.spec_from_dict({"eps": -0.1})


def test_spec_validation():
    with pytest.raises(ValueError):
        pg.GridSpec(
            n_nodes=3,
            edges=((1, 2),),  # node 3 disconnected
            c_cap=np.ones(3),
            l_ind=np.ones(1),
            r_line=np.ones(1),
            g_node=np.ones(3),
            i_star=np.zeros(3),
            delta_i=np.zeros(3),
            d_meas=np.zeros(3),
        )
    with pytest.raises(ValueError):
        pg.GridSpec(
            n_nodes=2,
            edges=((1, 1),),  # self loop
            c_cap=np.ones(2),
            l_ind=np.ones(1),
            r_line=np.ones(1),
            g_node=np.ones(2),
            i_star=np.zeros(2),
            delta_i=np.zeros(2),
            d_meas=np.zeros(2),
        )


def test_suboptimality_shrinks_with_conductance():
    rows = pg.sweep_g([1.0, 10.0], eta=0.05, steps=2000)
    assert rows[1]["rel_subopt"] < rows[0]["rel_subopt"]
    star_like = [r["bound_tight_rel"] >= r["rel_subopt"] for r in rows]
    assert all(star_like)
