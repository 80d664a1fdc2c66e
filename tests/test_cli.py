"""End-to-end CLI checks: exit codes, emitted files, schema validity."""

import ast
import copy
import csv
import gc
import json
import math
import re
import sys
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import spectral_radius

from ofonet import cli, powergrid, sim
from ofonet import plant as plant_module
from ofonet.objective import QuadraticObjective, SeparableObjective
from ofonet.plant import PLANT_KEYS

REF_PLANT = {
    "A": [[0.0, 0.0], [0.0, 0.0]],
    "B": [[1.0, 0.5], [0.0, 1.0]],
    "C": [[1.0, 0.0], [0.0, 1.0]],
    "D": [[0.0, 0.0], [0.0, 0.0]],
    "d": [1.0, 1.0],
}


def _edges_with(pair):
    """The default grid edges as JSON lists, with ``pair`` in place of edge (1, 2)."""
    return [list(pair) if edge == (1, 2) else list(edge) for edge in powergrid.DEFAULT_EDGES]


# a one-agent inline plant with steady-state gain 1
ONE_AGENT = {"A": [[0.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]], "d": [0.0]}


def load_schema(name):
    ref = resources.files("ofonet") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


def validate(instance, schema_name):
    jsonschema.validate(instance, load_schema(schema_name))


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run(args):
    return cli.main(args)


def test_analyze_grid_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {}, "controller": {"eta": 0.05}})
    code = run(["--config", cfg, "--out", str(tmp_path / "out"), "analyze"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    validate(report, "analysis_report")
    assert report["n"] == 8
    on_disk = json.loads((tmp_path / "out" / "analysis_report.json").read_text())
    assert on_disk == report


def test_analyze_inadmissible_step_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {}, "controller": {"eta": 5.0}})
    assert run(["--config", cfg, "analyze"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["conventions"]["tight"]["rate_at_eta"]["admissible"]


def test_analyze_coupling_failure_names_both_sides(tmp_path, capsys):
    plant = {**REF_PLANT, "B": [[1.0, 10.0], [0.0, 1.0]]}
    cfg = write_config(tmp_path, {"plant": plant, "controller": {"eta": 0.1}})
    assert run(["--config", cfg, "analyze"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    validate(report, "analysis_report")
    coupling = report["coupling"]
    assert not coupling["satisfied"]
    sides = f"sigma_max(H - H_diag) = {coupling['lhs']:.6g} exceeds {coupling['rhs']:.6g}"
    assert captured.err == f"error: the coupling condition fails: {sides}\n"
    # every certificate is still reported: an empty window and no eta_star
    for entry in report["conventions"].values():
        for rate in (*entry["rate_table"], entry["rate_at_eta"]):
            assert rate["eta_upper"] == 0.0 and rate["rho"] >= 1.0 and not rate["admissible"]
        assert entry["lti"]["lam_max"] >= 1.0 and entry["lti"]["eta_star"] is None


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_zero_sensitivity_exits_0_without_traceback(tmp_path, capsys, command):
    # H = 0: the coupling condition's right side m / (sigma_max(H) L_y) is inf
    plant = {**ONE_AGENT, "B": [[0.0]]}
    config = {"plant": plant, "controller": {"eta": 0.1}, "simulation": {"steps": 50}}
    out = tmp_path / "out"
    assert run(["--config", write_config(tmp_path, config), "--out", str(out), command]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command == "analyze":
        report = json.loads(captured.out)
        validate(report, "analysis_report")
        assert report["coupling"] == {"satisfied": True, "lhs": 0.0, "rhs": None}
        assert report["conventions"]["tight"]["rate_at_eta"]["admissible"]
    else:
        validate(json.loads((out / "metrics.json").read_text()), "metrics")


def _rows_of(length):
    """How many lists of ``length`` floats are alive."""
    return sum(
        isinstance(o, list) and len(o) == length and all(type(v) is float for v in o)
        for o in gc.get_objects()
    )


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before 3.11 a call keeps its arguments on the caller's stack until it returns",
)
@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_plant_rows_are_released_before_the_plant_is_built(tmp_path, capsys, monkeypatch, command):
    # n_state = 37: the rows of A and C are the config's only lists of 37 floats
    m = 37
    plant = {
        "A": [[0.5 * (i == j) for j in range(m)] for i in range(m)],
        "B": [[1.0 * (i == j) for j in range(2)] for i in range(m)],
        "C": [[1.0 * (i == j) for j in range(m)] for i in range(2)],
        "D": [[0.0, 0.0], [0.0, 0.0]],
        "d": [1.0, 1.0],
    }
    config = {"plant": plant, "controller": {"eta": 0.1}, "simulation": {"steps": 50}}
    cfg = write_config(tmp_path, config)
    del plant, config
    gc.collect()
    screen, alive = plant_module.schur_screen, []

    def spy(a):
        alive.append(_rows_of(m))
        return screen(a)

    monkeypatch.setattr(plant_module, "schur_screen", spy)
    assert run(["--config", cfg, "--out", str(tmp_path / "out"), command]) == 0
    assert alive == [0]


def test_analyze_requires_plant_source(tmp_path, capsys):
    cfg = write_config(tmp_path, {"controller": {"eta": 0.05}})
    assert run(["--config", cfg, "analyze"]) == 2
    both = write_config(
        tmp_path, {"grid": {}, "plant": REF_PLANT, "controller": {"eta": 0.05}}, "b.json"
    )
    assert run(["--config", both, "analyze"]) == 2


def test_analyze_requires_eta(tmp_path):
    cfg = write_config(tmp_path, {"grid": {}})
    assert run(["--config", cfg, "analyze"]) == 2


def test_unstable_grid_exits_1(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"grid": {"g_node": [20.0] * 8}, "controller": {"eta": 0.05}}
    )
    assert run(["--config", cfg, "analyze"]) == 1
    assert "not Schur stable" in capsys.readouterr().err


def test_env_override(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, {"grid": {}, "controller": {"eta": 5.0}})
    monkeypatch.setenv("OFO_CONTROLLER_ETA", "0.05")
    assert run(["--config", cfg, "analyze"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["conventions"]["tight"]["rate_at_eta"]["eta"] == 0.05


def test_malformed_env_rejected(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {"grid": {}, "controller": {"eta": 0.05}})
    monkeypatch.setenv("OFO_TYPO_ETA", "0.05")
    assert run(["--config", cfg, "analyze"]) == 2


def test_simulate_inline_plant(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path,
        {
            "plant": REF_PLANT,
            "controller": {"eta": 0.1, "mode": "decentralized"},
            "simulation": {"steps": 5000},
            "output": {"dir": str(out)},
        },
    )
    assert run(["--config", cfg, "simulate"]) == 0
    metrics = json.loads(capsys.readouterr().out)
    validate(metrics, "metrics")
    assert metrics["u_ref_kind"] == "fixed_point"
    assert metrics["final_rel_err"] < 1e-8
    assert not metrics["diverged"]
    assert metrics["suboptimality"]["bound"] >= metrics["suboptimality"]["distance"]
    rows = list(csv.reader((out / "trajectory.csv").read_text().splitlines()))
    assert rows[0][0] == "k"
    assert len(rows) == metrics["iterations"] + 2


def test_simulate_divergence_truncates(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path,
        {
            "plant": REF_PLANT,
            "controller": {"eta": 1000.0, "mode": "centralized"},
            "simulation": {"steps": 2000},
            "output": {"dir": str(out)},
        },
    )
    assert run(["--config", cfg, "simulate"]) == 1
    captured = capsys.readouterr()
    metrics = json.loads(captured.out)
    validate(metrics, "metrics")
    assert metrics["diverged"]
    rows = list(csv.reader((out / "trajectory.csv").read_text().splitlines()))
    assert len(rows) - 1 == metrics["divergence_step"]
    assert captured.err == f"error: non-finite iterate at step {metrics['divergence_step']}\n"


def test_centralized_simulate_skips_the_fixed_point(tmp_path, capsys):
    # H = B has a singular diagonal product H_diag H, so only the
    # decentralized fixed point equations are singular
    plant = {**REF_PLANT, "B": [[1.0, 2.0], [2.0, 1.0]], "d": [0.0, 0.0]}
    for mode, code in (("centralized", 0), ("decentralized", 1)):
        cfg = write_config(
            tmp_path,
            {
                "plant": plant,
                "controller": {"eta": 0.1, "mode": mode},
                "simulation": {"steps": 200},
                "output": {"dir": str(tmp_path / mode)},
            },
        )
        assert run(["--config", cfg, "simulate"]) == code
        captured = capsys.readouterr()
        if code == 0:
            validate(json.loads(captured.out), "metrics")
        else:
            assert "decentralized fixed point equations are singular" in captured.err


def test_grid_edges_accept_whole_floats(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {"edges": _edges_with((1.0, 2.0))}})
    assert run(["--config", cfg, "--out", str(tmp_path), "grid", "build"]) == 0
    spec = json.loads((tmp_path / "grid_spec.json").read_text())
    assert spec["edges"] == [list(edge) for edge in powergrid.DEFAULT_EDGES]


def test_simulate_random_u0_needs_seed(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "plant": REF_PLANT,
            "controller": {"eta": 0.1},
            "simulation": {"u0": "random"},
        },
    )
    assert run(["--config", cfg, "simulate"]) == 2


def test_seed_flag_reaches_metrics(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "plant": REF_PLANT,
            "controller": {"eta": 0.1},
            "simulation": {"steps": 200, "u0": "random"},
            "output": {"dir": str(tmp_path / "s")},
        },
    )
    assert run(["--config", cfg, "--seed", "11", "simulate"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 11


def test_determinism_byte_identical(tmp_path, capsys):
    base = {
        "grid": {},
        "controller": {"eta": 0.05},
        "simulation": {"loop": "lti", "seed": 7, "u0": "random"},
    }
    cfg = write_config(tmp_path, base)
    for sub in ("a", "b"):
        assert run(["--config", cfg, "--out", str(tmp_path / sub), "simulate"]) == 0
        capsys.readouterr()
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b
    ma = (tmp_path / "a" / "metrics.json").read_bytes()
    mb = (tmp_path / "b" / "metrics.json").read_bytes()
    assert ma == mb


def test_figures_fig3(tmp_path, capsys):
    out = tmp_path / "f3"
    assert run(["--out", str(out), "figures", "fig3"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    validate(manifest, "manifest")
    assert manifest["preset"] == "fig3"
    for name in manifest["files"].values():
        header = (out / name).read_text().splitlines()[0]
        assert header.startswith("k,u_1")
    saved = json.loads((out / "fig3_manifest.json").read_text())
    assert saved == manifest


@pytest.mark.parametrize("mode", ["centralized", "decentralized"])
def test_fig3_files_are_grid_simulate_trajectories(tmp_path, capsys, monkeypatch, mode):
    # 200 steps in 64-row blocks: three blocks go to the CSV worker, then a tail
    monkeypatch.setattr(sim, "RECORD_BLOCK", 64)
    cfg = write_config(tmp_path, {"simulation": {"steps": 200}}, "fig3.json")
    assert run(["--config", cfg, "--out", str(tmp_path / "f3"), "figures", "fig3"]) == 0
    for loop in ("algebraic", "lti"):
        config = {
            "grid": {},
            "controller": {"eta": 0.05, "mode": mode},
            "simulation": {"loop": loop, "steps": 200},
        }
        cfg = write_config(tmp_path, config)
        assert run(["--config", cfg, "--out", str(tmp_path / loop), "grid", "simulate"]) == 0
        fig3 = (tmp_path / "f3" / f"fig3_{mode}_{loop}.csv").read_text()
        simulated = (tmp_path / loop / "trajectory.csv").read_text()
        assert len(fig3.splitlines()) == 202
        if mode == "centralized":  # both take rel_err_u against u_star
            assert fig3 == simulated
            continue
        # rel_err_u is against u_star in fig3 and against the fixed point in
        # simulate; every other column agrees, combined_sq included
        rows = [list(csv.DictReader(text.splitlines())) for text in (fig3, simulated)]
        for row in (*rows[0], *rows[1]):
            del row["rel_err_u"]
        assert rows[0] == rows[1]
    capsys.readouterr()


# u_star - u_inf = 9.1e298 is finite, its square is not
HUGE_DISTURBANCE = {
    "plant": {**REF_PLANT, "d": [1e300, 1e300]},
    "controller": {"eta": 0.1},
    "simulation": {"steps": 2000},
}


def test_huge_disturbance_reports_its_distance_and_bound(tmp_path, capsys):
    cfg = write_config(tmp_path, HUGE_DISTURBANCE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["--config", cfg, "--out", str(tmp_path / "s"), "simulate"]) == 0
        sub = json.loads(capsys.readouterr().out)["suboptimality"]
        assert run(["--config", cfg, "--out", str(tmp_path / "a"), "analyze"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    validate(report, "analysis_report")
    distance = report["equilibrium"]["distance"]
    assert math.isfinite(distance) and sub["distance"] == distance
    for convention, entry in report["conventions"].items():
        bound = entry["suboptimality"]
        assert bound["applicable"] and math.isfinite(bound["bound"]), convention
        assert math.isfinite(bound["relative_bound"]), convention
    tight = report["conventions"]["tight"]["suboptimality"]["bound"]
    assert sub["bound"] == tight and tight >= distance


def test_figures_fig4(tmp_path, capsys):
    out = tmp_path / "f4"
    assert run(["--out", str(out), "figures", "fig4"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    validate(manifest, "manifest")
    rows = list(csv.DictReader((out / "fig4_sweep.csv").read_text().splitlines()))
    assert [float(r["g"]) for r in rows] == [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]


def test_grid_build(tmp_path, capsys):
    out = tmp_path / "gb"
    assert run(["--out", str(out), "grid", "build"]) == 0
    summary = json.loads(capsys.readouterr().out)
    validate(summary, "summary")
    spec = json.loads((out / "grid_spec.json").read_text())
    validate(spec, "grid_spec")
    plant = json.loads((out / "grid_plant.json").read_text())
    validate(plant, "plant")
    assert len(plant["A"]) == 17


def test_grid_build_reports_the_eigenvalue_radius(tmp_path, capsys):
    # the Schur screen proves the stock grid stable by ||A_d||_2 ~ 0.959 and so
    # leaves its radius 0; the summary still reports max |eig(A_d)| ~ 0.9
    out = tmp_path / "gb"
    assert run(["--out", str(out), "grid", "build"]) == 0
    radius = json.loads(capsys.readouterr().out)["spectral_radius"]
    a_d = json.loads((out / "grid_plant.json").read_text())["A"]
    assert radius == spectral_radius(a_d)
    assert radius == pytest.approx(0.9, abs=1e-12)


def test_grid_simulate_defaults(tmp_path, capsys):
    cfg = write_config(tmp_path, {"controller": {"eta": 0.05}})
    assert run(["--config", cfg, "--out", str(tmp_path / "g"), "grid", "simulate"]) == 0
    metrics = json.loads(capsys.readouterr().out)
    validate(metrics, "metrics")
    assert metrics["mode"] == "decentralized"


@pytest.mark.parametrize(
    "objective, code, message",
    [
        ({"custom": "shifted"}, 0, ""),
        (
            {"custom": "shifted", "y_ref": [5.0] * 8},
            2,
            "'objective.custom' excludes 'objective.y_ref'",
        ),
        (
            {"custom": "shifted", "y_ref": [5.0] * 8, "gamma1": 3},
            2,
            "'objective.custom' excludes 'objective.gamma1'",
        ),
        ({"custom": "unknown"}, 2, "'objective.custom': 'unknown' is not registered"),
    ],
)
def test_custom_objective(tmp_path, capsys, monkeypatch, objective, code, message):
    agents = []

    def shifted(n):
        agents.append(n)
        return QuadraticObjective(2.0, 1.0, [1.0] * n)

    monkeypatch.setattr(cli, "_CUSTOM_OBJECTIVES", {})
    cli.register_objective("shifted", shifted)
    config = {"grid": {}, "objective": objective, "controller": {"eta": 0.05}}
    cfg = write_config(tmp_path, {**config, "simulation": {"steps": 200}})
    assert run(["--config", cfg, "--out", str(tmp_path / "out"), "grid", "simulate"]) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    # the factory builds the objective only when the config is accepted
    assert agents == ([8] if code == 0 else [])


@pytest.mark.parametrize("side", ["input", "output"])
def test_malformed_custom_objective_exits_2(tmp_path, capsys, monkeypatch, side):
    # a factory whose last agent's cost is a bare callable, not a (value,
    # derivative) pair: the objective rejects it as it is built, and the CLI
    # exits 2 naming the key
    def malformed(n):
        pair = (lambda v: 0.5 * v * v, lambda v: v)
        costs = {"input": (pair,) * n, "output": (pair,) * n}
        costs[side] = (pair,) * (n - 1) + (pair[1],)
        return SeparableObjective(costs["input"], costs["output"], 1.0, 1.0, 1.0, 1.0)

    monkeypatch.setattr(cli, "_CUSTOM_OBJECTIVES", {})
    cli.register_objective("malformed", malformed)
    config = {"grid": {}, "objective": {"custom": "malformed"}, "controller": {"eta": 0.05}}
    cfg = write_config(tmp_path, {**config, "simulation": {"steps": 20}})
    assert run(["--config", cfg, "--out", str(tmp_path / "out"), "simulate"]) == 2
    err = capsys.readouterr().err
    assert "invalid 'objective.custom'" in err
    assert f"{side} cost of agent 7 is not a (value, callable derivative) pair" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_custom_factory_returning_no_objective_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_CUSTOM_OBJECTIVES", {})
    cli.register_objective("bad", lambda n: None)
    cfg = write_config(tmp_path, {"grid": {}, "objective": {"custom": "bad"}})
    assert run(["--config", cfg, "analyze"]) == 2
    err = capsys.readouterr().err
    assert err == "error: invalid 'objective.custom': gives NoneType, not SeparableObjective\n"


def test_grid_sweep_custom_values(tmp_path, capsys):
    out = tmp_path / "sw"
    code = run(["--out", str(out), "grid", "sweep", "--g", "1,5", "--eta", "0.05"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    validate(summary, "summary")
    assert summary["rows"] == 2
    rows = list(csv.DictReader((out / "grid_sweep.csv").read_text().splitlines()))
    assert len(rows) == 2


def test_grid_sweep_diverging_rows_exit_0(tmp_path, capsys):
    out = tmp_path / "div"
    argv = ["--out", str(out), "grid", "sweep", "--g", "1,5,20", "--eta", "30", "--steps", "3000"]
    assert run(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    validate(summary, "summary")
    assert summary["annotated_rows"] == [1.0, 5.0, 20.0]
    rows = list(csv.DictReader((out / "grid_sweep.csv").read_text().splitlines()))
    assert len(rows) == 3
    for row in rows:
        assert row["loop_final_err"] == ""
        assert "closed loop diverged (non-finite iterate at step " in row["note"]


def test_grid_sweep_singular_row_exits_0(tmp_path, capsys):
    # a vanishing conductance makes that row's (I - A_d) singular; the
    # sweep annotates it and every other row is as without it
    out = tmp_path / "sing"
    assert run(["--out", str(out), "grid", "sweep", "--g", "1,1e-18,5", "--eta", "0.05"]) == 0
    assert json.loads(capsys.readouterr().out)["annotated_rows"] == [1e-18]
    assert run(["--out", str(tmp_path / "ref"), "grid", "sweep", "--g", "1,5", "--eta", "0.05"]) == 0
    lines = (out / "grid_sweep.csv").read_text().splitlines()
    empty = "," * (len(powergrid.SWEEP_COLUMNS) - 2)
    assert lines[2] == f"1.0000000000000001e-18{empty},(I - A) is singular: Singular matrix"
    assert lines[:2] + lines[3:] == (tmp_path / "ref" / "grid_sweep.csv").read_text().splitlines()


OVERFLOW_SOURCES = {
    "c_cap": {"grid": {"c_cap": [1e-320] + [1.0] * 7}},
    "l_ind": {"grid": {"l_ind": [1e-308] + [1.0] * 8}},
    "plant": {"plant": {**ONE_AGENT, "A": [[0.5]], "B": [[1e308]]}},
}


@pytest.mark.parametrize(
    "name, argv",
    [
        ("c_cap", ["grid", "build"]),
        ("c_cap", ["analyze"]),
        ("l_ind", ["grid", "build"]),
        ("l_ind", ["analyze"]),
        ("plant", ["analyze"]),
        ("plant", ["simulate"]),
    ],
)
def test_overflowing_sensitivity_exits_1_with_one_error_line(tmp_path, capsys, name, argv):
    # each value is finite and positive, yet H or H_x overflows
    cfg = write_config(tmp_path, {**OVERFLOW_SOURCES[name], "controller": {"eta": 0.05}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["--config", cfg, "--out", str(tmp_path / "out"), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "error: the steady-state sensitivity overflows: H or H_x is not finite\n"
    assert captured.err == message


# sigma_max(H) = 1e200: H is finite, its square is not
HUGE_GAIN = {"plant": {**ONE_AGENT, "B": [[1e200]]}, "controller": {"eta": 0.1}}
HUGE_GAIN_CENTRALIZED = {**HUGE_GAIN, "controller": {"eta": 0.1, "mode": "centralized"}}
# a stable plant with sigma_max(A) = 1e160
NONNORMAL_HUGE = {
    "plant": {
        "A": [[0.5, 1e160], [0.0, 0.5]],
        "B": [[1.0, 0.0], [0.0, 0.0]],
        "C": [[1.0, 0.0], [0.0, 1.0]],
        "D": [[1.0, 0.0], [0.0, 1.0]],
        "d": [0.0, 0.0],
    },
    "controller": {"eta": 0.05},
}
# sigma_min(C) = 1e160 with a gain H = 2e-10
LARGE_OUTPUT = {
    "plant": {**ONE_AGENT, "A": [[0.5]], "B": [[1e-170]], "C": [[1e160]]},
    "controller": {"eta": 0.05},
}


# vectors that the grid derives from finite inputs: i_star - delta_i overflows,
# and H i_star where a conductance of 0.01 makes H large
HUGE_INJECTION = {
    "grid": {"i_star": [1e308] + [1.0] * 7, "delta_i": [-1e308] + [1.0] * 7},
    "controller": {"eta": 0.05},
}
HUGE_REFERENCE = {
    "grid": {"g_node": [0.01] * 8, "i_star": [1e308] * 8, "delta_i": [1e308] * 8},
    "controller": {"eta": 0.05},
}
GRID_COMMANDS = [["grid", "build"], ["grid", "simulate"], ["analyze"], ["grid", "sweep"]]
D_EFF = "the effective disturbance H (i_star - delta_i) + d_meas leaves the floating-point range"
Y_REF = "the voltage reference H i_star + d_meas leaves the floating-point range"
EXTREME_WEIGHTS = {"grid": {"gamma1": 1e300, "gamma2": 1e-300}, "controller": {"eta": 0.05}}
# finite equations whose reference points are not: d_1 = 1e308 against the
# coupling 4 of H = C drives u_1 to -inf
OVERFLOWING_POINT = {
    "plant": {**REF_PLANT, "B": [[1.0, 0.0], [0.0, 1.0]], "C": [[1.0, 0.0], [4.0, 1.0]],
              "d": [1e308, 0.0]},
    "controller": {"eta": 0.05},
    "simulation": {"steps": 1},
}


@pytest.mark.parametrize(
    "config, argv, message",
    [
        # (L eta)^2 of the rate at the configured step
        (
            {"grid": {}, "controller": {"eta": 1e200}},
            ["analyze"],
            "the rate at step size 1e+200 leaves the floating-point range",
        ),
        (
            HUGE_GAIN,
            ["analyze"],
            "a monotonicity constant at sigma_max(H) = 1e+200 leaves the floating-point range",
        ),
        (
            HUGE_GAIN,
            ["simulate"],
            "a monotonicity constant at sigma_max(H) = 1e+200 leaves the floating-point range",
        ),
        # the centralized loop solves only the optimum, whose G^T H is H^2
        (
            HUGE_GAIN_CENTRALIZED,
            ["simulate"],
            "a coefficient of the global optimum equations leaves the floating-point range",
        ),
        # sigma_max(A)^2 and sigma_min(C)^2 of the Xi constants
        (NONNORMAL_HUGE, ["analyze"], "Xi at step size 0.05 leaves the floating-point range"),
        (LARGE_OUTPUT, ["analyze"], "Xi at step size 0.05 leaves the floating-point range"),
        # objective weights of 1e-200: (L - c)(L + c) of the rate window and L'
        # of the eta_star cap underflow to zero
        (
            {"grid": {}, "objective": {"gamma1": 1e-200, "gamma2": 1e-200},
             "controller": {"eta": 0.05}},
            ["analyze"],
            "the window end eta_upper = 2(m - c)/((L - c)(L + c)) leaves the floating-point range",
        ),
        (
            {"grid": {"gamma1": 1e-200, "gamma2": 1e-200}, "controller": {"eta": 0.05}},
            ["grid", "sweep", "--g", "1,2"],
            "the cap m'/L' of eta_star leaves the floating-point range",
        ),
        *[(HUGE_INJECTION, argv, D_EFF) for argv in GRID_COMMANDS],
        (HUGE_REFERENCE, ["grid", "simulate"], Y_REF),
        (HUGE_REFERENCE, ["analyze"], Y_REF),
        # the report solves the optimum first, a decentralized run its fixed point
        (OVERFLOWING_POINT, ["analyze"], "the global optimum leaves the floating-point range"),
        (
            OVERFLOWING_POINT,
            ["simulate"],
            "the decentralized fixed point leaves the floating-point range",
        ),
    ],
)
def test_overflowing_certificate_exits_1_with_one_error_line(
    tmp_path, capsys, config, argv, message
):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["--config", write_config(tmp_path, config), "--out", str(out), *argv]) == 1
    captured = capsys.readouterr()
    # no report at all rather than one holding null numbers
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["analyze"], ["grid", "simulate"]])
def test_equilibrium_residual_whose_square_overflows_gives_no_warning(tmp_path, capsys, argv):
    # i_star = delta_i = 1e308: the reference point's gradient is finite, its
    # square is not
    grid = {"i_star": [1e308] * 8, "delta_i": [1e308] * 8}
    cfg = write_config(tmp_path, {"grid": grid, "controller": {"eta": 0.05}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["--config", cfg, "--out", str(tmp_path / "out"), *argv]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", GRID_COMMANDS, ids=" ".join)
def test_euler_step_that_overflows_a_d_is_an_unstable_discretization(tmp_path, capsys, argv):
    # eps = 1e308 leaves inf in A_d = I + eps E^{-1} K: its radius counts as inf
    cfg = write_config(tmp_path, {"grid": {"eps": 1e308}, "controller": {"eta": 0.05}})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["--config", cfg, "--out", str(out), *argv])
    captured = capsys.readouterr()
    radius = "(spectral radius inf)"
    if argv[-1] != "sweep":
        assert code == 1
        assert captured.err == f"error: discretized system is not Schur stable {radius}\n"
        return
    assert code == 0 and captured.err == ""
    rows = list(csv.DictReader((out / "grid_sweep.csv").read_text().splitlines()))
    assert [row["note"] for row in rows] == [f"unstable discretization {radius}"] * 7


def test_extreme_objective_weights_simulate_without_warning(tmp_path, capsys):
    # m / (sigma_max(H) L_y) of the coupling condition overflows to an rhs of inf
    cfg = write_config(tmp_path, {**EXTREME_WEIGHTS, "simulation": {"steps": 50}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["--config", cfg, "--out", str(tmp_path / "out"), "grid", "simulate"]) == 0
    assert capsys.readouterr().err == ""


def test_decimation_past_the_int64_range_keeps_only_the_first_row(tmp_path, capsys, monkeypatch):
    config = {"grid": {}, "controller": {"eta": 0.05}, "simulation": {"steps": 50}}
    cfg = write_config(tmp_path, config)
    csvs = []
    for decimation in ("1e30", "51"):
        monkeypatch.setenv("OFO_SIMULATION_DECIMATION", decimation)
        out = tmp_path / decimation
        assert run(["--config", cfg, "--out", str(out), "grid", "simulate"]) == 0
        csvs.append((out / "trajectory.csv").read_bytes())
    assert capsys.readouterr().err == ""
    assert csvs[0] == csvs[1] and len(csvs[0].splitlines()) == 2


def test_rejected_figures_config_leaves_no_directory(tmp_path, capsys):
    cfg = write_config(tmp_path, {"controller": {"eta": 0.3}})
    out = tmp_path / "newdir"
    assert run(["--config", cfg, "--out", str(out), "figures", "fig4"]) == 2
    assert "'controller'" in capsys.readouterr().err
    assert not out.exists()


LAST_OUTPUT_PLANTS = [
    ({**ONE_AGENT, "B": [[100.0]]}, "algebraic"),
    ({**ONE_AGENT, "B": [[0.0]], "C": [[0.0]], "D": [[100.0]]}, "lti"),
]


def _last_output_overflow(plant, loop):
    # u_100 is finite, y_100 = 100 u_100 overflows (see test_sim)
    return {
        "plant": plant,
        "objective": {"y_ref": [0.0]},
        "controller": {"eta": 0.1},
        "simulation": {"loop": loop, "steps": 100, "u0": [5.5e6]},
    }


# every failing run of the golden CI job, and the overflows that once
# escaped as numpy warnings
FAILURES = {
    "grid-huge-eta": ({"grid": {}, "controller": {"eta": 1e200}}, ["analyze"]),
    "grid-outside": ({"grid": {}, "controller": {"eta": 0.8}}, ["analyze"]),
    "grid-overflow": ({**OVERFLOW_SOURCES["c_cap"], "controller": {"eta": 0.05}}, ["grid", "build"]),
    "grid-diverge": (
        {"grid": {}, "controller": {"eta": 30}, "simulation": {"steps": 200}},
        ["grid", "simulate"],
    ),
    "grid-diverge-late": ({"grid": {}, "controller": {"eta": 1.3}}, ["grid", "simulate"]),
    "grid-unstable": ({"grid": {"eps": 5}, "controller": {"eta": 0.05}}, ["grid", "simulate"]),
    "plant-coupling": (
        {"plant": {**REF_PLANT, "B": [[1.0, 10.0], [0.0, 1.0]]}, "controller": {"eta": 0.01}},
        ["analyze"],
    ),
    "plant-huge-gain-analyze": (HUGE_GAIN, ["analyze"]),
    "plant-huge-gain-simulate": (HUGE_GAIN, ["simulate"]),
    "plant-huge-gain-centralized-simulate": (HUGE_GAIN_CENTRALIZED, ["simulate"]),
    "plant-nonnormal-huge": (NONNORMAL_HUGE, ["analyze"]),
    "plant-large-output": (LARGE_OUTPUT, ["analyze"]),
    "grid-analyze-extreme-weights": (EXTREME_WEIGHTS, ["analyze"]),
    "grid-sweep-extreme-weights": (EXTREME_WEIGHTS, ["grid", "sweep"]),
    "plant-analyze-overflowing-point": (OVERFLOWING_POINT, ["analyze"]),
    "plant-simulate-overflowing-point": (OVERFLOWING_POINT, ["simulate"]),
    **{
        f"plant-overflow-{loop}": (_last_output_overflow(plant, loop), ["simulate"])
        for plant, loop in LAST_OUTPUT_PLANTS
    },
}


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failure_exits_1_with_one_error_line_and_no_warning(tmp_path, capsys, name):
    config, argv = FAILURES[name]
    cfg = write_config(tmp_path, config)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["--config", cfg, "--out", str(tmp_path / "out"), *argv]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_analyze_rescues_reference_point_norms_whose_squares_overflow(tmp_path, capsys):
    # u_star = u_inf = -4e299: finite, but its square overflows
    plant = {**ONE_AGENT, "A": [[0.5]], "d": [1e300]}
    cfg = write_config(tmp_path, {"plant": plant, "controller": {"eta": 0.05}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["--config", cfg, "analyze"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    equilibrium = json.loads(captured.out)["equilibrium"]
    assert equilibrium["u_star"] == [-4e299]
    assert math.isfinite(equilibrium["relative_distance"])


def test_main_is_the_one_exit():
    # only main prints to stderr and maps a failure to an exit code; the
    # commands raise their failure and return nothing
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    exits, valued = [], []
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        command = func.name.startswith("cmd_") or func.name == "_simulate"
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stderr":
                exits.append(f"{func.name}:{node.lineno}")
            if isinstance(node, ast.Name) and node.id.startswith("EXIT_"):
                exits.append(f"{func.name}:{node.lineno}")
            if command and isinstance(node, ast.Return) and node.value is not None:
                valued.append(f"{func.name}:{node.lineno}")
    assert {site.partition(":")[0] for site in exits} == {"main"}, exits
    assert valued == []


@pytest.mark.parametrize("name", ["c_cap", "l_ind"])
def test_grid_sweep_annotates_overflowing_rows_and_exits_0(tmp_path, capsys, name):
    cfg = write_config(tmp_path, {**OVERFLOW_SOURCES[name], "controller": {"eta": 0.05}})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["--config", cfg, "--out", str(out), "grid", "sweep", "--g", "1,5"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["annotated_rows"] == [1.0, 5.0]
    rows = list(csv.DictReader((out / "grid_sweep.csv").read_text().splitlines()))
    for row in rows:
        assert row["note"] == "the steady-state sensitivity overflows: H or H_x is not finite"
        assert row["coupling_ok"] == row["loop_final_err"] == ""


def test_grid_sweep_bad_g(tmp_path):
    assert run(["grid", "sweep", "--g", "1,oops", "--eta", "0.05"]) == 2


@pytest.mark.parametrize("g", ["1,inf", "nan,1", "1,1e400", "2,-inf"])
def test_grid_sweep_rejects_a_non_finite_g(tmp_path, capsys, g):
    # a non-finite conductance is a usage error, not a noted row
    assert run(["--out", str(tmp_path / "sw"), "grid", "sweep", "--g", g, "--eta", "0.05"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid '--g': contains non-finite entries\n"
    assert not (tmp_path / "sw").exists()


def test_bad_config_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert run(["--config", str(path), "analyze"]) == 2


def test_unknown_section_rejected(tmp_path):
    cfg = write_config(tmp_path, {"grid": {}, "controler": {"eta": 0.05}})
    assert run(["--config", cfg, "analyze"]) == 2


# nodes 3 and 4 are joined to each other only
DISCONNECTED = [[1, 2], [2, 5], [5, 6], [5, 7], [5, 8], [6, 7], [1, 5], [2, 6], [3, 4]]
# name -> (config, or None for a missing file; environment; argv; the error line's pattern)
USAGE_ERRORS = {
    "unreadable-config": (None, {}, ["analyze"], re.escape("cannot read config file: ") + ".*"),
    "config-root": ([1, 2], {}, ["analyze"], re.escape("config root must be a JSON object")),
    "empty-g": (
        {"controller": {"eta": 0.05}},
        {},
        ["grid", "sweep", "--g", ","],
        re.escape("--g must contain at least one value"),
    ),
    "edge-endpoint": (
        {"grid": {"edges": _edges_with((1, 9))}},
        {},
        ["grid", "build"],
        re.escape("invalid 'grid.edges': edge (1, 9) references a node outside 1..8"),
    ),
    "disconnected": (
        {"grid": {"edges": DISCONNECTED}},
        {},
        ["grid", "build"],
        re.escape("invalid 'grid.edges': edge list does not connect nodes [3, 4] to node 1"),
    ),
    "c_cap": (
        {"grid": {"c_cap": [0.0] + [1.0] * 7}},
        {},
        ["grid", "build"],
        re.escape("invalid 'grid.c_cap': c_cap must be strictly positive"),
    ),
    # a value that is not JSON is kept as the string: here a file's name
    "raw-env": (
        {"grid": {}},
        {"OFO_OUTPUT_DIR": "rawdir"},
        ["grid", "build"],
        re.escape("'output.dir' cannot be created: ") + ".*'rawdir'",
    ),
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_error_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, name):
    config, env, argv, pattern = USAGE_ERRORS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rawdir").write_text("a file\n", encoding="utf-8")
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    path = str(tmp_path / "missing.json") if config is None else write_config(tmp_path, config)
    assert run(["--config", path, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"error: {pattern}\n", captured.err), captured.err


@pytest.mark.parametrize(
    "argv, extra, key",
    [
        (["grid", "simulate"], {"simulation": {"steps": "many"}}, "'simulation.steps'"),
        (["grid", "simulate"], {"simulation": {"decimation": "x"}}, "'simulation.decimation'"),
        (["grid", "simulate"], {"simulation": {"seed": "abc"}}, "'simulation.seed'"),
        (["grid", "simulate"], {"simulation": {"steps": 1e400}}, "'simulation.steps'"),
        (["grid", "simulate"], {"analysis": []}, "'analysis'"),
        (["grid", "simulate"], {"output": []}, "'output'"),
        (["analyze"], {"analysis": []}, "'analysis'"),
        (["analyze"], {"output": "out"}, "'output'"),
        (["figures", "fig3"], {"simulation": {"steps": "many"}}, "'simulation.steps'"),
        (["figures", "fig3"], {"simulation": {"seed": [1]}}, "'simulation.seed'"),
        (["grid", "sweep"], {"simulation": {"steps": "many"}}, "'simulation.steps'"),
        (["grid", "sweep"], {"controller": {"eta": "fast"}}, "'controller.eta'"),
        (["grid", "sweep"], {"controller": []}, "'controller'"),
        (["grid", "sweep", "--steps", "0"], {}, "'simulation.steps'"),
        (["grid", "sweep", "--steps", "-3"], {}, "'simulation.steps'"),
        (["grid", "sweep"], {"simulation": {"steps": 0}}, "'simulation.steps'"),
        (["grid", "sweep", "--eta", "0"], {}, "'controller.eta'"),
        (["grid", "sweep", "--eta", "-1"], {}, "'controller.eta'"),
        (["grid", "sweep", "--eta", "nan"], {}, "'controller.eta'"),
        (["grid", "sweep"], {"controller": {"eta": "inf"}}, "'controller.eta'"),
        (["figures", "fig3"], {"simulation": {"steps": 0}}, "'simulation.steps'"),
        (["figures", "fig4"], {"simulation": {"steps": -1}}, "'simulation.steps'"),
        (["grid", "simulate"], {"simulation": {"steps": 0}}, "'simulation.steps'"),
        (["grid", "simulate"], {"controller": {"eta": 0}}, "'controller.eta'"),
        (["analyze"], {"controller": {"eta": "nan"}}, "'controller.eta'"),
        (["grid", "simulate"], {"simulation": {"u0": ["a"] * 8}}, "'simulation.u0'"),
        (["grid", "simulate"], {"simulation": {"u0": [1.0, 2.0]}}, "'simulation.u0'"),
        (["simulate"], {"simulation": {"u0": [float("nan")] * 8}}, "'simulation.u0'"),
        (["simulate"], {"simulation": {"x0": "random"}}, "'simulation.x0'"),
        (["simulate"], {"simulation": {"x0": [0.0] * 3}}, "'simulation.x0'"),
        # an output directory below a file, which is not a directory (in a
        # config figures accepts: it sets no controller key)
        (["figures", "--out", "/dev/null/out", "fig4"], {"controller": None}, "'output.dir'"),
        # misspelled keys, in a section the subcommand uses or not
        (["grid", "simulate"], {"controller": {"eta": 0.05, "mdoe": "x"}}, "'controller.mdoe'"),
        (["grid", "simulate"], {"simulation": {"lop": "lti"}}, "'simulation.lop'"),
        (["figures", "fig4"], {"simulation": {"lop": "lti"}}, "'simulation.lop'"),
        # 'analysis' (convention, eta_grid) is no longer a section
        (["grid", "build"], {"analysis": {"eta_grid": [0.1]}}, "'analysis'"),
        (["analyze"], {"analysis": {"convention": "paper"}}, "'analysis'"),
        (["analyze"], {"objective": {"y_ref": ["a"] * 8}}, "'objective.y_ref'"),
        (["analyze"], {"objective": {"y_ref": [1.0, 2.0]}}, "'objective.y_ref'"),
        (
            ["simulate"],
            {"plant": ONE_AGENT, "objective": {"y_ref": [1.0, 2.0]}},
            "'objective.y_ref'",
        ),
        (["analyze"], {"grid": {"n_nodes": "x"}}, "'grid.n_nodes'"),
        (["analyze"], {"grid": {"n_nodes": -5}}, "'grid.n_nodes'"),
        (["grid", "build"], {"grid": {"n_nodes": 10**12}}, "'grid.n_nodes'"),
        (["analyze"], {"grid": {"edges": [1, 2]}}, "'grid.edges'"),
        (["grid", "sweep"], {"grid": {"eps": "x"}}, "'grid.eps'"),
        (["analyze"], {"grid": {"gamma1": "x"}}, "'grid.gamma1'"),
        # a JSON boolean, a numeric string or a fraction is not a valid number here
        (["grid", "simulate"], {"controller": {"eta": True}}, "'controller.eta'"),
        (["grid", "simulate"], {"controller": {"eta": "0.05"}}, "'controller.eta'"),
        (["analyze"], {"objective": {"gamma1": True}}, "'objective.gamma1'"),
        (["grid", "simulate"], {"simulation": {"decimation": True}}, "'simulation.decimation'"),
        (["grid", "simulate"], {"simulation": {"seed": True}}, "'simulation.seed'"),
        (["grid", "simulate"], {"simulation": {"steps": True}}, "'simulation.steps'"),
        (["grid", "simulate"], {"simulation": {"steps": 50.7}}, "'simulation.steps'"),
        (["grid", "simulate"], {"simulation": {"decimation": 7.9}}, "'simulation.decimation'"),
        (["analyze"], {"grid": {"n_nodes": 7.5}}, "'grid.n_nodes'"),
        (["analyze"], {"grid": {"n_nodes": True}}, "'grid.n_nodes'"),
        # start vectors are length-checked by every command that builds the instance
        (["analyze"], {"simulation": {"u0": []}}, "'simulation.u0'"),
        (["analyze"], {"simulation": {"x0": [1, 2]}}, "'simulation.x0'"),
        # an edge endpoint is a whole number, not a fraction or a boolean
        (["grid", "build"], {"grid": {"edges": _edges_with((1, 2.7))}}, "'grid.edges'"),
        (["grid", "build"], {"grid": {"edges": _edges_with((True, 2))}}, "'grid.edges'"),
        # no entry of a vector or matrix is a string, a boolean or null
        (["analyze"], {"plant": {**REF_PLANT, "d": ["1.0", True]}}, "'plant.d'"),
        (["analyze"], {"objective": {"y_ref": ["0"] + [0.0] * 7}}, "'objective.y_ref'"),
        (["analyze"], {"objective": {"y_ref": [False] + [0.0] * 7}}, "'objective.y_ref'"),
        (["grid", "build"], {"grid": {"c_cap": ["1"] + [1.0] * 7}}, "'grid.c_cap'"),
        (["grid", "build"], {"grid": {"c_cap": [True] + [1.0] * 7}}, "'grid.c_cap'"),
        (["simulate"], {"simulation": {"u0": [0.1, True] + [0.0] * 6}}, "'simulation.u0'"),
        (["analyze"], {"objective": {"y_ref": [None] * 8}}, "'objective.y_ref': entries must"),
        # a value that conflicts with another key is named by its own field
        (["analyze"], {"grid": {"c_cap": [1.0]}}, "'grid.c_cap': c_cap must have length 8"),
        (
            ["analyze"],
            {"plant": {**REF_PLANT, "D": [[0.0]]}},
            "'plant.D': D must have shape (2, 2)",
        ),
        (["analyze"], {"plant": {**REF_PLANT, "d": [1.0]}}, "'plant.d': d must have length 2"),
        (["analyze"], {"plant": {**ONE_AGENT, "A": [[1.5]]}}, "'plant.A': A is not Schur stable"),
        (["analyze"], {"grid": {"eps": -0.1}}, "'grid.eps': eps must be positive"),
        (["grid", "build"], {"grid": {"edges": _edges_with((1, 1))}}, "'grid.edges': self-loop"),
        # build, sweep and the presets take the grid's objective and read no other
        (["grid", "sweep", "--g", "1"], {"objective": {"custom": "nope"}}, "'objective'"),
        (["grid", "build"], {"objective": {"gamma1": 3.0}}, "'objective'"),
        (["figures", "fig4"], {"objective": {"y_ref": [5.0] * 8}}, "'objective'"),
        # the presets run the default grid only
        (["figures", "fig4"], {"grid": {"g_node": [3.0] * 8}}, "'grid'"),
        (["figures", "fig3"], {"grid": {"eps": None}}, "'grid'"),
        (["figures", "fig3"], {"plant": REF_PLANT}, "'plant'"),
        # the presets fix their controller and read only steps and seed
        (["figures", "fig4"], {"controller": {"eta": 0.3}}, "'controller'"),
        (["figures", "fig3"], {"controller": {"mode": "centralized"}}, "'controller'"),
        (
            ["figures", "fig4"],
            {"controller": {}, "simulation": {"decimation": 7}},
            "'simulation.decimation'",
        ),
        (
            ["figures", "fig3"],
            {"controller": {"eta": None}, "simulation": {"steps": 50, "loop": "lti"}},
            "'simulation.loop'",
        ),
        # grid sweep runs the decentralized algebraic loop and reads only eta and steps
        (
            ["grid", "sweep"],
            {"controller": {"eta": 0.05, "mode": "centralized"}},
            "'controller.mode'",
        ),
        (["grid", "sweep"], {"simulation": {"loop": "lti", "steps": 50}}, "'simulation.loop'"),
        (["grid", "sweep"], {"simulation": {"decimation": 7}}, "'simulation.decimation'"),
        (["grid", "sweep"], {"simulation": {"u0": "random"}}, "'simulation.u0'"),
        (["grid", "sweep"], {"simulation": {"x0": "zeros"}}, "'simulation.x0'"),
        (["grid", "sweep", "--seed", "3"], {}, "'simulation.seed'"),
    ],
)
def test_malformed_setting_exits_2_naming_key(tmp_path, capsys, argv, extra, key):
    config = {"grid": {}, "controller": {"eta": 0.05}, **extra}
    if "plant" in extra:
        del config["grid"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert run(["--config", str(path), "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert key in err
    assert "Traceback" not in err
    assert not (out / "trajectory.csv").exists()


def test_output_write_failure_exits_1_without_traceback(tmp_path, capsys, monkeypatch):
    def fail(path, *args, **kwargs):
        raise OSError(f"cannot write {path}")

    monkeypatch.setattr(cli.sim, "write_trajectory_csv", fail)
    cfg = write_config(
        tmp_path, {"grid": {}, "controller": {"eta": 0.05}, "simulation": {"steps": 50}}
    )
    assert run(["--config", cfg, "--out", str(tmp_path / "out"), "grid", "simulate"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, env, name",
    [
        # --convention and the 'analysis' keys are no longer read
        (["--convention", "paper", "analyze"], {}, "--convention"),
        (["analyze", "--convention=tight"], {}, "--convention"),
        (["analyze"], {"OFO_ANALYSIS_CONVENTION": "paper"}, "'OFO_ANALYSIS_CONVENTION'"),
        (["analyze"], {"OFO_ANALYSIS_ETA_GRID": "[0.1]"}, "'OFO_ANALYSIS_ETA_GRID'"),
        (
            ["simulate"],
            {"OFO_SIMULATION_U0": '["0.1", true, 0, 0, 0, 0, 0, 0]'},
            "'simulation.u0'",
        ),
    ],
)
def test_flag_or_variable_error_exits_2_naming_it(tmp_path, capsys, monkeypatch, argv, env, name):
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    cfg = write_config(tmp_path, {"grid": {}, "controller": {"eta": 0.05}})
    try:
        code = run(["--config", cfg, "--out", str(tmp_path / "out"), *argv])
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and name in errors[0], err
    assert "Traceback" not in err


# 0.8 lies past the tight window's end 0.6175, where rho crosses 1, but
# below 2(m - c)/(L^2 - m^2) = 1.215
@pytest.mark.parametrize("eta, code", [(0.5, 0), (0.8, 1), (1.5, 1)])
def test_analyze_gates_on_tight_rate(tmp_path, capsys, eta, code):
    cfg = write_config(tmp_path, {"grid": {}, "controller": {"eta": eta}})
    assert run(["--config", cfg, "analyze"]) == code
    captured = capsys.readouterr()
    conventions = json.loads(captured.out)["conventions"]
    rates = {name: entry["rate_at_eta"]["admissible"] for name, entry in conventions.items()}
    # the N-scaled gate is the tight one at N eta (4 and 12), so it fails at both
    assert rates == {"tight": code == 0, "paper": False}
    tight = conventions["tight"]["rate_at_eta"]
    assert tight["eta_upper"] == pytest.approx(0.6175, abs=1e-4)
    assert (tight["rho"] < 1.0) == (code == 0)
    window = "the tight certified window is (0, 0.617548)"
    message = f"error: step size {eta} is not admissible: {window}\n"
    assert captured.err == ("" if code == 0 else message)


def test_analyze_reports_a_singular_fixed_point(tmp_path, capsys):
    # H = B, and gamma1 I + gamma2 H_diag H = I + B is singular
    plant = {**REF_PLANT, "B": [[1.0, 2.0], [2.0, 1.0]]}
    cfg = write_config(tmp_path, {"plant": plant, "controller": {"eta": 0.1}})
    assert run(["--config", cfg, "--out", str(tmp_path / "out"), "analyze"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    validate(report, "analysis_report")
    assert report == json.loads((tmp_path / "out" / "analysis_report.json").read_text())
    message = "decentralized fixed point equations are singular"
    assert captured.err.startswith(f"error: {message}")
    eq = report["equilibrium"]
    assert eq["error"].startswith(message)
    assert eq["u_star"] == pytest.approx([-0.3, -0.3])
    assert [eq[k] for k in ("u_inf", "distance", "relative_distance")] == [None] * 3
    assert eq["uniqueness_certified"] is None
    for entry in report["conventions"].values():
        assert entry["suboptimality"] is None
        assert len(entry["rate_table"]) == len(cli.DEFAULT_ETA_GRID)
        assert "xi" in entry["lti"]


def test_divergence_at_step_0_leaves_no_stale_csv(tmp_path, capsys):
    out = tmp_path / "run"
    config = {
        "plant": {**ONE_AGENT, "C": [[4.0]]},
        "controller": {"eta": 0.1},
        "simulation": {"steps": 50},
        "output": {"dir": str(out)},
    }
    assert run(["--config", write_config(tmp_path, config), "simulate"]) == 0
    assert (out / "trajectory.csv").exists()
    capsys.readouterr()
    config["simulation"]["u0"] = [1e308]
    assert run(["--config", write_config(tmp_path, config, "div.json"), "simulate"]) == 1
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["divergence_step"] == 0
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("plant, loop", LAST_OUTPUT_PLANTS)
def test_last_output_overflow_exits_1_with_truncated_csv(tmp_path, capsys, plant, loop):
    config = _last_output_overflow(plant, loop)
    out = tmp_path / "out"
    assert run(["--config", write_config(tmp_path, config), "--out", str(out), "simulate"]) == 1
    assert "Traceback" not in capsys.readouterr().err
    metrics = json.loads((out / "metrics.json").read_text())
    validate(metrics, "metrics")
    assert metrics["diverged"] is True
    assert metrics["divergence_step"] == 100
    assert len((out / "trajectory.csv").read_text().splitlines()) == 101
    # |u| reaches 5e303: its square overflows, its norm does not
    rows = csv.DictReader((out / "trajectory.csv").open())
    assert all(math.isfinite(float(row["rel_err_u"])) for row in rows)
    assert isinstance(metrics["final_rel_err"], float)


def test_presets_accept_an_empty_grid_and_null_objective_keys(tmp_path, capsys):
    config = {
        "grid": {},
        "objective": {"custom": None, "gamma1": None},
        "simulation": {"steps": 50},
    }
    cfg = write_config(tmp_path, config)
    sweep = ["grid", "sweep", "--g", "1", "--eta", "0.05"]
    for argv in (["figures", "fig4"], ["grid", "build"], sweep):
        assert run(["--config", cfg, "--out", str(tmp_path / "out"), *argv]) == 0


def test_env_field_is_matched_to_a_key(tmp_path, capsys, monkeypatch):
    env = {"OFO_PLANT_D": "[[1]]", "OFO_PLANT_d": "[2]", "OFO_GRID_N_NODES": "4"}
    assert cli._apply_env({}, env) == {"plant": {"D": [[1]], "d": [2]}, "grid": {"n_nodes": 4}}
    cfg = write_config(tmp_path, {"plant": ONE_AGENT, "controller": {"eta": 0.1}})
    monkeypatch.setenv("OFO_PLANT_A", "[[0.5]]")
    assert run(["--config", cfg, "analyze"]) == 0
    report = json.loads(capsys.readouterr().out)
    # H = C (1 - A)^-1 B = 2 with the overriding A = 0.5
    assert report["conventions"]["tight"]["constants"]["sigma_max_h"] == pytest.approx(2.0)
    monkeypatch.setenv("OFO_CONTROLLER_ETAA", "1")
    assert run(["--config", cfg, "analyze"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "'OFO_CONTROLLER_ETAA'" in err


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", section, flags=re.S)))
    keys = {key for table in cli.SECTIONS.values() for key in table}
    keys |= set(PLANT_KEYS) | set(powergrid.GRID_TABLE)
    assert keys - listed == set()


# Valid configs whose every section key the property test below mutates.
VALID_CONFIGS = {
    "grid": {
        "grid": powergrid.spec_to_dict(powergrid.default_topology()),
        "objective": {"gamma1": 1.0, "gamma2": 1.0, "y_ref": [1.0] * 8},
        "controller": {"eta": 0.05, "mode": "centralized"},
        "simulation": {"loop": "lti", "u0": "random", "seed": 3, "x0": "zeros", "decimation": 2},
        "output": {"dir": "out"},
    },
    "plant": {
        "plant": REF_PLANT,
        "objective": {"gamma1": 1.0, "gamma2": 1.0, "y_ref": [0.0, 0.0]},
        "controller": {"eta": 0.1, "mode": "decentralized"},
        "simulation": {"loop": "lti", "u0": [0.5, 0.5], "x0": [0.0, 1.0], "decimation": 1},
        "output": {"dir": "out"},
    },
}
COMMANDS = {
    "grid": (["analyze"], ["simulate"], ["grid", "simulate"]),
    "plant": (["analyze"], ["simulate"]),
}
TARGETS = [
    (kind, section, key, command)
    for kind, config in VALID_CONFIGS.items()
    for section, body in config.items()
    for key in body
    for command in COMMANDS[kind]
]
# no key takes a list with a string or boolean entry, so these always exit 2
NON_NUMBER_ENTRIES = ([0.5, "1"], [0.5, True])
VALUES = (None, "x", [], {}, [1, "a"], float("nan"), float("inf"), -5, 10**12, True)
VALUES += NON_NUMBER_ENTRIES
MUTATIONS = [("drop",), ("unknown",)] + [("set", value) for value in VALUES]


@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(target=st.sampled_from(TARGETS), mutation=st.sampled_from(MUTATIONS))
def test_mutated_config_exits_cleanly(tmp_path, monkeypatch, capsys, target, mutation):
    kind, section, key, command = target
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("OFO_SIMULATION_STEPS", "50")
    config = copy.deepcopy(VALID_CONFIGS[kind])
    if mutation[0] == "drop":
        del config[section][key]
    elif mutation[0] == "unknown":
        key = "bogus"
        config[section][key] = 1.0
    else:
        config[section][key] = mutation[1]
    path = write_config(tmp_path, config)
    capsys.readouterr()
    code = run(["--config", path, *command])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if mutation[0] == "set" and mutation[1] in NON_NUMBER_ENTRIES:
        assert code == 2, err
    if code == 2:
        assert f"'{section}.{key}'" in err or f"'{section}'" in err, err
