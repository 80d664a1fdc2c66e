import copy
import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from conftest import random_stable_instance
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import spectral_radius, step

from ofonet.errors import ConfigError, DimensionMismatch, SingularMatrix
from ofonet.plant import (
    SCHUR_TOL,
    LtiPlant,
    SensitivityModel,
    _radii,
    compute_sensitivity,
    plant_from_dict,
    schur_screen,
    sensitivity,
)


def scalar_plant():
    return LtiPlant(
        A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]], d=[1.0]
    )


def test_is_schur_stable_diagonal():
    # ||A||_2 = 0.9 proves the diagonal stable, so the screen leaves its radius 0
    a = np.diag([0.5, -0.9])
    assert schur_screen(a) == (True, 0.0, pytest.approx(0.9))
    # the eigvals radius that `grid build` reports
    assert _radii(a)[0] == pytest.approx(0.9)


def test_is_schur_stable_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        LtiPlant(A=np.zeros((2, 3)), B=np.zeros((2, 1)), C=np.zeros((1, 2)),
                 D=np.zeros((1, 1)), d=np.zeros(1))


def test_is_schur_stable_boundary():
    # radius exactly 1 - tol/2 sits inside the rejection band
    stable, radius, _ = schur_screen(np.diag([1.0 - SCHUR_TOL / 2]))
    assert not stable and radius == 1.0 - SCHUR_TOL / 2
    assert schur_screen(np.diag([1.0 - 2 * SCHUR_TOL]))[0]


def test_schur_screen_takes_the_eigenvalue_radius_of_a_nonnormal_a():
    # the eigenvalues of diag(0.5, -0.9), but a norm that proves nothing
    a = np.array([[0.5, 10.0], [0.0, -0.9]])
    stable, radius, _ = schur_screen(a)
    assert stable and radius == spectral_radius(a) == pytest.approx(0.9)


def test_unstable_plant_rejected():
    with pytest.raises(ValueError):
        LtiPlant(A=[[1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]], d=[0.0])


def _diag_plant(a):
    return LtiPlant(A=np.diag([a]), B=[[1.0]], C=[[1.0]], D=[[0.0]], d=[0.0])


def _count_eigvals(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


def test_norm_below_one_skips_eigenvalue_solve(rng, monkeypatch):
    plant, _, _, _ = random_stable_instance(rng, n=5)
    assert np.linalg.svd(plant.A, compute_uv=False)[0] < 1.0 - SCHUR_TOL

    def boom(a):
        raise AssertionError("eigvals called on a plant with ||A||_2 < 1")

    monkeypatch.setattr(np.linalg, "eigvals", boom)
    raw = {k: getattr(plant, k).tolist() for k in ("A", "B", "C", "D", "d")}
    rebuilt = plant_from_dict(raw)
    npt.assert_array_equal(rebuilt.A, plant.A)
    _diag_plant(1.0 - 2 * SCHUR_TOL)


def test_nonnormal_plant_with_norm_above_one_accepted(monkeypatch):
    # ||A||_2 ~ 10 proves nothing; the eigenvalues (both 0.5) decide
    a = np.array([[0.5, 10.0], [0.0, 0.5]])
    assert np.linalg.svd(a, compute_uv=False)[0] > 1.0
    calls = _count_eigvals(monkeypatch)
    plant = LtiPlant(A=a, B=np.eye(2), C=np.eye(2), D=np.zeros((2, 2)), d=np.zeros(2))
    assert calls == [(2, 2)]
    npt.assert_allclose(compute_sensitivity(plant).H, np.linalg.inv(np.eye(2) - a))


def test_plant_stability_boundary_carries_the_spectral_radius(monkeypatch):
    a = 1.0 - SCHUR_TOL / 2
    radius = spectral_radius(np.diag([a]))
    calls = _count_eigvals(monkeypatch)
    with pytest.raises(ValueError) as info:
        _diag_plant(a)
    assert f"spectral radius {radius:.6g}" in str(info.value)
    assert info.value.field == "A"
    assert info.value.spectral_radius == radius
    _diag_plant(1.0 - 2 * SCHUR_TOL)
    # only the plant with ||A||_2 >= 1 - SCHUR_TOL solved for eigenvalues
    assert calls == [(1, 1)]


def _screen_slice(rng, kind: int, n: int):
    """A random n x n slice of ``kind``: 0 with ||A||_2 < 1, 1 stable with
    ||A||_2 >= 1 (a non-normal triangle), 2 unstable."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if kind == 0:
        a = rng.standard_normal((n, n))
        return rng.uniform(0.05, 0.99) * a / np.linalg.norm(a, 2)
    t = np.diag(rng.uniform(-0.9, 0.9, n)) + np.triu(rng.uniform(2.0, 20.0, (n, n)), 1)
    if kind == 2:
        t[0, 0] = rng.choice([-1.0, 1.0]) * rng.uniform(1.0 + 1e-6, 3.0)
    return q @ t @ q.T


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    kinds=st.lists(st.integers(0, 2), min_size=1, max_size=8),
)
def test_stacked_screen_agrees_with_lti_plant_slice_by_slice(seed, n, kinds):
    rng = np.random.default_rng(seed)
    stack = np.stack([_screen_slice(rng, kind, n) for kind in kinds])
    stable, radius, norm = schur_screen(stack)
    assert (norm < 1.0 - SCHUR_TOL).tolist() == [kind == 0 for kind in kinds]
    assert stable.tolist() == [kind != 2 for kind in kinds]
    for a, ok, r, s in zip(stack, stable.tolist(), radius.tolist(), norm.tolist()):
        assert (ok, r, s) == schur_screen(a)
        assert s == np.linalg.svd(a, compute_uv=False)[0]
        assert r == (spectral_radius(a) if s >= 1.0 - SCHUR_TOL else 0.0)
        try:
            LtiPlant(A=a, B=np.eye(n), C=np.eye(n), D=np.zeros((n, n)), d=np.zeros(n))
        except ValueError as exc:
            assert not ok
            assert exc.spectral_radius == r
        else:
            assert ok


def test_screen_marks_non_finite_slices_unstable_without_solving_them(rng, monkeypatch):
    # an Euler step past the float range leaves inf (or, from inf - inf, nan)
    # in A_d; the finite slices keep the bits of a stack without them
    finite = np.stack([_screen_slice(rng, kind, 3) for kind in (0, 1, 2)])
    stack = np.concatenate([finite[:1], np.full((2, 3, 3), 0.5), finite[1:]])
    stack[1, 0, 0], stack[2, 1, 2] = np.inf, np.nan
    expected = schur_screen(finite)
    calls = _count_eigvals(monkeypatch)
    stable, radius, norm = schur_screen(stack)
    assert stable.tolist() == [True, False, False, True, False]
    for got, want in zip((radius, norm), expected[1:]):
        assert got[[0, 3, 4]].tobytes() == want.tobytes()
        assert got[1:3].tolist() == [np.inf, np.inf]
    # the eigenvalue call sees only the finite slices whose norm proves nothing
    assert calls == [(2, 3, 3)]
    assert schur_screen(stack[1]) == schur_screen(stack[2]) == (False, np.inf, np.inf)


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        LtiPlant(A=np.zeros((2, 2)), B=np.zeros((3, 1)), C=np.zeros((1, 2)),
                 D=np.zeros((1, 1)), d=np.zeros(1))
    with pytest.raises(DimensionMismatch):
        LtiPlant(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.zeros((1, 2)),
                 D=np.zeros((1, 1)), d=np.zeros(3))


def test_scalar_sensitivity():
    model = compute_sensitivity(scalar_plant())
    npt.assert_allclose(model.H, [[2.0]])
    npt.assert_allclose(model.H_x, [[2.0]])
    npt.assert_allclose(model.H.diagonal(), [2.0])


@pytest.mark.parametrize(
    "B, C",
    [
        ([[1e308]], [[1.0]]),  # H_x = 2e308 overflows
        ([[1.0]], [[1e308]]),  # H_x = 2 is finite, H = 2e308 is not
    ],
)
def test_overflowing_sensitivity_is_singular(B, C):
    plant = LtiPlant(A=[[0.5]], B=B, C=C, D=[[0.0]], d=[0.0])
    with pytest.raises(SingularMatrix, match="steady-state sensitivity overflows"):
        compute_sensitivity(plant)


def test_one_overflowing_slice_fails_the_stack():
    # H_x = 1e308 / (1 - a): 5e307 at a = -1, inf at a = 0.5
    A = np.array([[[-1.0]], [[0.5]]])
    B, C, D = np.array([[1e308]]), np.eye(1), np.zeros((1, 1))
    with pytest.raises(SingularMatrix, match="overflows"):
        sensitivity(A, B, C, D)
    H, H_x = sensitivity(A[:1], B, C, D)
    npt.assert_allclose(H, [[[5e307]]])
    npt.assert_allclose(H_x, [[[5e307]]])


def test_step_oracle():
    plant = scalar_plant()
    x_next, y = step(plant, np.array([2.0]), np.array([1.0]))
    npt.assert_allclose(x_next, [2.0])
    npt.assert_allclose(y, [3.0])


def test_fixed_input_converges_to_sensitivity(rng):
    plant = scalar_plant()
    model = compute_sensitivity(plant)
    u = np.array([1.0])
    x = rng.standard_normal(1)
    for _ in range(500):
        x, y = step(plant, x, u)
    npt.assert_allclose(y, model.H @ u + plant.d, atol=1e-10)


def test_rectangular_plant_shapes(rng):
    # more states than channels, as in the grid realization
    a = np.diag(rng.uniform(-0.5, 0.5, 5))
    b = rng.standard_normal((5, 2))
    c = rng.standard_normal((2, 5))
    plant = LtiPlant(A=a, B=b, C=c, D=np.zeros((2, 2)), d=np.zeros(2))
    model = compute_sensitivity(plant)
    assert model.H.shape == (2, 2)
    assert model.H_x.shape == (5, 2)
    npt.assert_allclose(model.H, c @ np.linalg.solve(np.eye(5) - a, b), atol=1e-12)


def test_sensitivity_matches_long_run(rng):
    plant, model, _, d = random_stable_instance(rng)
    u = rng.standard_normal(model.n)
    x = np.zeros(plant.n_state)
    for _ in range(2000):
        x, y = step(plant, x, u)
    npt.assert_allclose(y, model.H @ u + d, atol=1e-8)


def test_model_derives_diagonal_from_h():
    # a model holds H and H_x only: its diagonal is read from H, never stored
    h = np.array([[1.0, 0.5], [-0.25, 2.0]])
    model = SensitivityModel(H=h, H_x=h)
    assert [f.name for f in dataclasses.fields(model)] == ["H", "H_x"]
    assert vars(model).keys() == {"H", "H_x"}
    npt.assert_array_equal(model.H.diagonal(), [1.0, 2.0])
    with pytest.raises(ValueError):
        model.H.diagonal()[0] = 0.0
    with pytest.raises(TypeError):
        SensitivityModel(H=h, H_diag=np.diag(np.diag(h)), H_x=h)


def test_arrays_frozen():
    plant = scalar_plant()
    with pytest.raises(ValueError):
        plant.A[0, 0] = 0.0


def test_plant_from_dict_roundtrip():
    data = {
        "A": [[0.0, 0.0], [0.0, 0.0]],
        "B": [[1.0, 0.5], [0.0, 1.0]],
        "C": [[1.0, 0.0], [0.0, 1.0]],
        "D": [[0.0, 0.0], [0.0, 0.0]],
        "d": [1.0, 1.0],
    }
    plant = plant_from_dict(data)
    npt.assert_allclose(compute_sensitivity(plant).H, data["B"])


@pytest.mark.parametrize(
    "change, rejected",
    [
        ({}, False),
        ({"B": [[True, 0.5], [0.0, 1.0]]}, True),  # rejected while the rows are read
        ({"A": [[2.0, 0.0], [0.0, 0.0]]}, True),  # rejected by the Schur screen
    ],
)
def test_plant_from_dict_leaves_its_argument_intact(change, rejected):
    data = {
        "A": [[0.0, 0.0], [0.0, 0.0]],
        "B": [[1.0, 0.5], [0.0, 1.0]],
        "C": [[1.0, 0.0], [0.0, 1.0]],
        "D": [[0.0, 0.0], [0.0, 0.0]],
        "d": [1.0, 1.0],
        **change,
    }
    values, rows = copy.deepcopy(data), {key: (v, list(v)) for key, v in data.items()}
    if rejected:
        with pytest.raises(ConfigError):
            plant_from_dict(data)
    else:
        plant_from_dict(data)
    assert list(data) == list(values) and data == values
    for key, (value, items) in rows.items():
        assert data[key] is value and all(a is b for a, b in zip(value, items, strict=True))


@pytest.mark.parametrize(
    "mutate, key",
    [
        (lambda d: d.pop("C"), "C"),
        (lambda d: d.update(extra=[1.0]), "extra"),
        (lambda d: d.update(A=[[0.0], [0.0]]), "A"),
        (lambda d: d.update(d="nope"), "d"),
        (lambda d: d.update(B=[[float("nan"), 0.0], [0.0, 1.0]]), "B"),
    ],
)
def test_plant_from_dict_rejects(mutate, key):
    data = {
        "A": [[0.0, 0.0], [0.0, 0.0]],
        "B": [[1.0, 0.5], [0.0, 1.0]],
        "C": [[1.0, 0.0], [0.0, 1.0]],
        "D": [[0.0, 0.0], [0.0, 0.0]],
        "d": [1.0, 1.0],
    }
    mutate(data)
    with pytest.raises(ConfigError, match=key):
        plant_from_dict(data)
