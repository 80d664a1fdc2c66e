"""Command-line interface: certificate reports, closed-loop runs, presets.

Subcommands
-----------
analyze
    Emit every certificate of ``analysis.build_report`` for the configured
    instance as JSON, with rate tables over ``DEFAULT_ETA_GRID``; exits 0
    only when the diagonal-dominance condition holds and the configured
    step size is admissible under the tight constants, the checked ones.
    A failing coupling still gives every certificate: the window (0, 0),
    no eta_star.  Singular fixed-point equations still give a report,
    without the fields that need the fixed point, and exit 1.
simulate
    Run the configured closed loop; writes trajectory.csv and
    metrics.json, truncating the CSV at the divergence step if the loop
    blows up (exit 1), and removing it if that step is 0.  A sensitivity
    whose square leaves the float range exits 1 before any file, in
    either mode.
figures {fig3,fig4}
    Preset bundles on the default grid: fig3 produces the four G=1
    trajectories (centralized/decentralized x algebraic/dynamic,
    eta=0.05); fig4 produces the conductance sweep.  Each bundle carries
    a manifest.
grid {build,simulate,sweep}
    DC-grid helpers working from the "grid" config section (the default
    topology when absent).

The grid commands and presets reject a 'plant' section, and a set key
that they do not read exits 2 naming it (``_grid_config``).  grid
simulate reads every section; grid build every section but 'objective';
grid sweep, which runs the decentralized algebraic loop, reads 'grid',
controller.eta, simulation.steps and output.dir; figures reads
simulation.steps, simulation.seed and output.dir, and no grid key.

Configuration is a JSON file selected with --config; sections are
plant | grid (exactly one), objective, controller, simulation, output.
Each section has one key table (``SECTIONS`` here, ``plant.PLANT_KEYS``,
``powergrid.GRID_TABLE``): an unknown section or key is rejected, an
absent or null key takes its default, and a malformed value exits 2
naming 'section.key'.  Environment variables OFO_<SECTION>_<KEY> override
file values; KEY is a key of the section, else the one key equal to it up
to case (OFO_CONTROLLER_ETA=0.1, OFO_PLANT_A=[[0.5]]).  The flags --seed
and --out, and --eta and --steps of grid sweep, override both.
Exit codes: 0 success, 1 numerical or I/O failure, 2 usage or config error.
Each command writes what it writes, then raises its failure; ``main``
alone turns it into the exit code and prints its one 'error:' line.
A command runs on one thread of numpy's bundled OpenBLAS, so its bytes
do not depend on the BLAS thread count (``_one_blas_thread``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import analysis, powergrid, sim
from .controller import ControllerConfig, Mode
from .equilibria import decentralized_fixed_point, global_optimum
from .errors import (
    ConfigError,
    NonFinite,
    OfonetError,
    _norm,
    as_section,
    as_vector,
    convert,
    finite,
    number,
    read_section,
    whole,
)
from .objective import QuadraticObjective, SeparableObjective
from .plant import (
    PLANT_KEYS,
    LtiPlant,
    SensitivityModel,
    _radii,
    compute_sensitivity,
    plant_from_dict,
)

__all__ = ["main", "register_objective"]

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

DEFAULT_ETA_GRID = (0.001, 0.005, 0.01, 0.05, 0.1)

# Named objective factories usable from config as {"objective": {"custom": name}}.
_CUSTOM_OBJECTIVES: dict[str, Callable[[int], SeparableObjective]] = {}


def register_objective(name: str, factory: Callable[[int], SeparableObjective]) -> None:
    """Register a named objective factory (agent count -> objective)."""
    _CUSTOM_OBJECTIVES[str(name)] = factory


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - set(_SECTION_KEYS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    return data


# Parsers of config values; ``convert`` names the key of any error they raise.
def _positive(value) -> float:
    value = float(number(value))
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"must be positive and finite, got {value}")
    return value


def _integer(value) -> int:
    value = whole(value)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _choice(value, names: tuple) -> str:
    name = str(value).lower()
    if name not in names:
        raise ValueError(f"must be one of {', '.join(names)}; got '{name}'")
    return name


def _text(value) -> str:
    """A string; a JSON number counts as its spelling."""
    if isinstance(value, (bool, list, dict)):
        raise TypeError(f"must be a string, got {value!r}")
    return str(value)


def _x0(value):
    """A start vector: None for "zeros", else a finite array."""
    return None if value == "zeros" else finite(value)


def _u0(value):
    """Like ``_x0``, or "random": drawn from ``simulation.seed``."""
    return value if value == "random" else _x0(value)


# The key table of each section other than plant and grid: key -> (parser,
# default).  ``_configure`` reads all five for every subcommand.
SECTIONS = {
    "objective": {
        "custom": (_text, None),
        "gamma1": (_positive, None),
        "gamma2": (_positive, None),
        "y_ref": (finite, None),
    },
    "controller": {
        "eta": (_positive, None),
        "mode": (partial(_choice, names=tuple(m.value for m in Mode)), "decentralized"),
    },
    "simulation": {
        "steps": (_integer, sim.DEFAULT_STEPS),
        "loop": (partial(_choice, names=("algebraic", "lti")), "algebraic"),
        "u0": (_u0, None),
        "x0": (_x0, None),
        "decimation": (_integer, 1),
        "seed": (whole, None),
    },
    "output": {"dir": (_text, None)},
}

# The keys an OFO_<SECTION>_<FIELD> environment variable may name.
_SECTION_KEYS = {"plant": PLANT_KEYS, "grid": tuple(powergrid.GRID_TABLE), **SECTIONS}

# (flag, section, key) of the command-line flags that override a config key
_FLAG_KEYS = (
    ("seed", "simulation", "seed"),
    ("out", "output", "dir"),
    ("eta", "controller", "eta"),
    ("steps", "simulation", "steps"),
)


def _override(config: dict, name: str, key: str, value) -> None:
    """Set ``config[name][key]``, creating the section when absent."""
    config[name] = {**as_section(name, config.get(name)), key: value}


def _apply_env(config: dict, environ) -> dict:
    """Apply OFO_<SECTION>_<FIELD>: FIELD is a key, else the one key equal up to case."""
    for var in sorted(environ):
        if not var.startswith("OFO_"):
            continue
        section, _, field = var[len("OFO_"):].partition("_")
        keys = _SECTION_KEYS.get(section.lower(), ()) if section.isupper() else ()
        match = [k for k in keys if k == field] or [k for k in keys if k.upper() == field.upper()]
        if len(match) != 1:
            raise ConfigError(f"environment variable '{var}' names no config key")
        raw = environ[var]
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _override(config, section.lower(), match[0], value)
    return config


def _apply_flags(config: dict, args) -> dict:
    for flag, section, key in _FLAG_KEYS:
        value = getattr(args, flag, None)
        if value is not None:
            _override(config, section, key, value)
    return config


def _configure(args) -> dict:
    """The config of ``args``: file, then environment, then flags; sections read."""
    config = _load_config(getattr(args, "config", None))
    config = _apply_env(config, os.environ)
    config = _apply_flags(config, args)
    config["given"] = []  # each 'section.key' of the read sections set non-null
    for name, table in SECTIONS.items():
        raw = as_section(name, config.get(name))
        config[name] = read_section(name, raw, table)
        config["given"] += [f"{name}.{key}" for key, value in raw.items() if value is not None]
    return config


@dataclass
class Instance:
    plant: LtiPlant
    model: SensitivityModel
    obj: SeparableObjective


def _objective(objc: dict, default: QuadraticObjective) -> SeparableObjective:
    """The configured objective for the agents of ``default``, which fills any unset key."""
    n = default.n
    if objc["custom"] is not None:
        # a custom objective takes none of the quadratic's keys
        for other in ("gamma1", "gamma2", "y_ref"):
            if objc[other] is not None:
                raise ConfigError(f"'objective.custom' excludes 'objective.{other}'")
        key, factory = "custom", _CUSTOM_OBJECTIVES.get(objc["custom"])
        if factory is None:
            raise ConfigError(f"'objective.custom': '{objc['custom']}' is not registered")
        obj = convert("objective.custom", factory, n)
        if not isinstance(obj, SeparableObjective):
            kind = type(obj).__name__
            raise ConfigError(f"invalid 'objective.custom': gives {kind}, not SeparableObjective")
    else:
        key = "y_ref"
        y_ref = default.y_ref if objc["y_ref"] is None else objc["y_ref"]
        # a parsed weight is positive, so ``or`` only replaces an absent one
        gamma1, gamma2 = objc["gamma1"] or default.gamma1, objc["gamma2"] or default.gamma2
        obj = convert("objective.y_ref", QuadraticObjective, gamma1, gamma2, y_ref)
    if obj.n != n:
        raise ConfigError(f"'objective.{key}' gives {obj.n} agents, the plant has {n}")
    return obj


def _resolve_instance(config: dict) -> Instance:
    """The configured plant, model, disturbance and objective; start vectors length-checked.
    A 'plant' section leaves ``config``, so its JSON rows go once its arrays exist."""
    if ("plant" in config) == ("grid" in config):
        raise ConfigError("config must contain exactly one plant source: 'plant' or 'grid'")
    if "grid" in config:
        spec = powergrid.spec_from_dict(config["grid"])
        plant, model, _ = powergrid.assemble_plant(spec)
        default = powergrid.grid_objective(spec, model)
    else:
        plant = plant_from_dict(config.pop("plant"))
        model = compute_sensitivity(plant)
        default = QuadraticObjective(1.0, 1.0, np.zeros(model.n))
    for key, size in (("u0", model.n), ("x0", plant.n_state)):
        value = config["simulation"][key]
        if value is not None and not isinstance(value, str):  # "random" has no length
            convert(f"simulation.{key}", as_vector, value, size, "the value")
    obj = _objective(config["objective"], default)
    return Instance(plant=plant, model=model, obj=obj)


def _controller(config: dict) -> ControllerConfig:
    ctl = config["controller"]
    if ctl["eta"] is None:
        raise ConfigError("'controller.eta' is required (grid sweep also takes --eta)")
    return ControllerConfig(mode=Mode(ctl["mode"]), eta=ctl["eta"])


def _resolve_out_dir(config: dict, default: Optional[str] = None) -> Optional[str]:
    """``output.dir`` (else ``default``), created when missing; None when both are None."""
    out = config["output"]["dir"]
    out = default if out is None else out
    if out is None:
        return None
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"'output.dir' cannot be created: {exc}") from exc
    return out


def _jsonify(value):
    """Replace non-finite floats by None so emitted JSON stays standard."""
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _dump_json(data, path: Optional[str] = None) -> str:
    text = json.dumps(_jsonify(data), indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


def cmd_analyze(args) -> None:
    config = _configure(args)
    inst = _resolve_instance(config)
    ctl = _controller(config)
    report = analysis.build_report(
        inst.obj, inst.model, inst.plant.d, ctl.eta, DEFAULT_ETA_GRID, inst.plant
    )
    out_dir = _resolve_out_dir(config)
    path = os.path.join(out_dir, "analysis_report.json") if out_dir else None
    sys.stdout.write(_dump_json(report, path))
    coupling, rate = report["coupling"], report["conventions"]["tight"]["rate_at_eta"]
    if "error" in report["equilibrium"]:  # a singular fixed point
        raise OfonetError(report["equilibrium"]["error"])
    if not coupling["satisfied"]:
        lhs, rhs = coupling["lhs"], coupling["rhs"]
        sides = f"sigma_max(H - H_diag) = {lhs:.6g} exceeds {rhs:.6g}"
        raise OfonetError(f"the coupling condition fails: {sides}")
    if not rate["admissible"]:
        window = f"the tight certified window is (0, {rate['eta_upper']:.6g})"
        raise OfonetError(f"step size {ctl.eta:.6g} is not admissible: {window}")


def cmd_simulate(args) -> None:
    _simulate(_configure(args))


def _simulate(config: dict) -> None:
    inst = _resolve_instance(config)
    ctl = _controller(config)
    simc = config["simulation"]
    u0, x0, seed = simc["u0"], simc["x0"], simc["seed"]
    if isinstance(u0, str):  # "random"
        if seed is None:
            raise ConfigError("'simulation.seed' is required when u0 is 'random'")
        rng = convert("simulation.seed", np.random.default_rng, seed)
        u0 = rng.standard_normal(inst.model.n)
    # the fixed point first, so that a sensitivity whose square overflows
    # fails a decentralized run on its constants' message; a centralized
    # run never solves it
    if ctl.mode is Mode.DECENTRALIZED:
        fixed = decentralized_fixed_point(inst.obj, inst.model, inst.plant.d)
        u_ref, u_ref_kind = fixed.u, "fixed_point"
    star = global_optimum(inst.obj, inst.model, inst.plant.d)
    if ctl.mode is Mode.CENTRALIZED:
        u_ref, u_ref_kind = star.u, "optimum"
    out_dir = _resolve_out_dir(config, ".")
    run = {"u0": u0, "steps": simc["steps"], "decimation": simc["decimation"]}
    path = os.path.join(out_dir, "trajectory.csv")
    traj, err, failure = _record(path, inst, ctl, simc["loop"], u_ref, u_ref, x0, **run)
    data = {
        "mode": ctl.mode.value,
        "loop": simc["loop"],
        "eta": ctl.eta,
        "steps_requested": simc["steps"],
        "seed": seed,
        "u_ref_kind": u_ref_kind,
        "diverged": failure is not None,
    }
    if failure is not None:
        data["divergence_step"] = failure.step
    if traj is not None:
        data["iterations"] = traj.info.iterations
        data["early_stopped"] = traj.info.early_stopped
        data["final_rel_err"] = float(err.rel_err_u[-1])
        data["absolute_errors"] = err.absolute
    if ctl.mode is Mode.DECENTRALIZED:
        consts = analysis.monotonicity_constants(inst.obj, inst.model)
        sub = analysis.suboptimality_bound(inst.obj, inst.model, inst.plant.d, fixed.u, consts)
        data["suboptimality"] = {
            "distance": _norm(star.u - fixed.u),
            "bound": sub.bound,
            "applicable": sub.applicable,
            "convention": "tight",
        }
    sys.stdout.write(_dump_json(data, os.path.join(out_dir, "metrics.json")))
    if failure is not None:
        raise failure


def _record(
    path: str, inst: Instance, cfg: ControllerConfig, loop: str, u_ref, own_ref, x0=None, **run
):
    """Run the ``loop`` ("algebraic" or "lti") of ``inst`` and write its CSV to ``path``.

    rel_err_u is against ``u_ref`` and combined_sq against ``own_ref``,
    the loop's own limit; ``run`` goes to the loop.  A run that raises
    NonFinite writes the rows before it, and removes a stale ``path``
    when it has none.  Returns the trajectory, which holds only the rows
    the stream did not take, and their metrics (both None without rows)
    and the NonFinite, or None.
    """
    with sim.CsvStream(path, u_ref, inst.model, own_ref) as stream:
        failure = None
        try:
            if loop == "lti":
                traj = sim.run_lti(inst.plant, inst.obj, cfg, x0=x0, stream=stream, **run)
            else:
                d = inst.plant.d
                traj = sim.run_algebraic(inst.model, inst.obj, d, cfg, stream=stream, **run)
        except NonFinite as exc:
            traj, failure = exc.trajectory, exc
        if traj is None:
            # a run that diverged at step 0 records no rows: no CSV, not a stale one
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
            return None, None, failure
        err = sim.metrics(traj, u_ref, inst.model, own_ref)
        sim.write_trajectory_csv(path, traj, err, stream)
    return traj, err, failure


def _fig3_bundle(out_dir: str, steps: int, seed: Optional[int]) -> dict:
    spec = powergrid.default_topology()
    plant, model, d_eff = powergrid.assemble_plant(spec)
    inst = Instance(plant, model, powergrid.grid_objective(spec, model))
    star = global_optimum(inst.obj, model, d_eff)
    fixed = decentralized_fixed_point(inst.obj, model, d_eff)
    eta = 0.05
    files = {}
    for mode in (Mode.CENTRALIZED, Mode.DECENTRALIZED):
        cfg = ControllerConfig(mode=mode, eta=eta)
        # rel_err_u is against u_star, combined_sq against the mode's own limit
        own = star if mode is Mode.CENTRALIZED else fixed
        for loop in ("algebraic", "lti"):
            name = f"fig3_{mode.value}_{loop}.csv"
            path = os.path.join(out_dir, name)
            _, _, failure = _record(path, inst, cfg, loop, star.u, own.u, steps=steps)
            if failure is not None:
                raise failure
            files[f"{mode.value}_{loop}"] = name
    return {
        "preset": "fig3",
        "eta": eta,
        "g": 1.0,
        "steps": steps,
        "seed": seed,
        "rel_err_reference": "u_star",
        "combined_sq_reference": "per-mode fixed point",
        "files": files,
        "parameters": powergrid.spec_to_dict(spec),
        "u_star": star.u.tolist(),
        "u_inf": fixed.u.tolist(),
    }


FIG4_G_VALUES = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


def _fig4_bundle(out_dir: str, steps: int, seed: Optional[int]) -> dict:
    eta = 0.05
    rows = powergrid.sweep_g(FIG4_G_VALUES, eta, steps=steps)
    name = "fig4_sweep.csv"
    powergrid.write_sweep_csv(os.path.join(out_dir, name), rows)
    return {
        "preset": "fig4",
        "eta": eta,
        "g_values": list(FIG4_G_VALUES),
        "steps": steps,
        "seed": seed,
        "files": {"sweep": name},
        "parameters": powergrid.spec_to_dict(powergrid.default_topology()),
    }


def cmd_figures(args) -> None:
    why = "figures runs the default grid, fixes its controller and reads only steps and seed"
    config = _grid_config(args, ("simulation.steps", "simulation.seed", "output.dir"), why)
    out_dir = _resolve_out_dir(config, ".")
    bundle = _fig3_bundle if args.preset == "fig3" else _fig4_bundle
    manifest = bundle(out_dir, config["simulation"]["steps"], config["simulation"]["seed"])
    path = os.path.join(out_dir, f"{args.preset}_manifest.json")
    sys.stdout.write(_dump_json(manifest, path))


def _grid_config(args, read=None, why: str = "") -> dict:
    """The configuration of a grid subcommand or preset: a 'grid' section, never 'plant'.

    ``read`` lists the keys ('section.key') and whole sections the command
    reads, None meaning all.  A set key outside it exits 2 naming the key,
    or its section when none of that section is read; a non-empty 'grid'
    section outside it exits 2 first.  ``why`` ends the message.
    """
    config = _configure(args)
    if "plant" in config:
        raise ConfigError("'plant': grid subcommands and presets use the 'grid' section")
    config.setdefault("grid", {})
    if read is None:
        return config
    grid = ["grid"] if "grid" not in read and as_section("grid", config["grid"]) else []
    for key in grid + config["given"]:
        section = key.partition(".")[0]
        if key not in read and section not in read:
            named = any(r.startswith(f"{section}.") for r in read)
            raise ConfigError(f"'{key if named else section}': {why}")
    return config


def cmd_grid_build(args) -> None:
    why = "grid build assembles the grid with its own objective"
    config = _grid_config(args, ("grid", "controller", "simulation", "output"), why)
    spec = powergrid.spec_from_dict(config["grid"])
    plant, model, d_eff = powergrid.assemble_plant(spec)
    out_dir = _resolve_out_dir(config, ".")
    _dump_json(powergrid.spec_to_dict(spec), os.path.join(out_dir, "grid_spec.json"))
    plant_dict = {key: getattr(plant, key).tolist() for key in PLANT_KEYS}
    _dump_json(plant_dict, os.path.join(out_dir, "grid_plant.json"))
    summary = {
        "files": {"spec": "grid_spec.json", "plant": "grid_plant.json"},
        "n_nodes": spec.n_nodes,
        "n_edges": spec.n_edges,
        "n_state": plant.n_state,
        "spectral_radius": _radii(plant.A)[0],
        "effective_disturbance": d_eff.tolist(),
    }
    sys.stdout.write(_dump_json(summary))


def cmd_grid_simulate(args) -> None:
    _simulate(_grid_config(args))


def cmd_grid_sweep(args) -> None:
    why = "grid sweep runs the grid's decentralized algebraic loop and reads only eta and steps"
    config = _grid_config(args, ("grid", "controller.eta", "simulation.steps", "output.dir"), why)
    spec = powergrid.spec_from_dict(config["grid"])
    values = convert("--g", lambda g: [float(v) for v in g.split(",") if v != ""], args.g)
    g_values = convert("--g", finite, values).tolist()
    if not g_values:
        raise ConfigError("--g must contain at least one value")
    eta, steps = _controller(config).eta, config["simulation"]["steps"]
    rows = powergrid.sweep_g(g_values, eta, steps=steps, spec=spec)
    out_dir = _resolve_out_dir(config, ".")
    path = os.path.join(out_dir, "grid_sweep.csv")
    powergrid.write_sweep_csv(path, rows)
    summary = {
        "file": "grid_sweep.csv",
        "rows": len(rows),
        "eta": eta,
        "steps": steps,
        "annotated_rows": [row["g"] for row in rows if row.get("note")],
    }
    sys.stdout.write(_dump_json(summary))


def _build_parser() -> tuple[argparse.ArgumentParser, set]:
    """The ``ofo`` parser and every flag of it and its subcommands."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="JSON config file")
    common.add_argument(
        "--out", default=argparse.SUPPRESS, help="output directory for emitted files"
    )
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="seed override")
    parser = argparse.ArgumentParser(
        prog="ofo",
        description="Feedback-optimization simulation and certification toolkit",
        parents=[common],
    )

    def command(group, name, text, func):
        sub = group.add_parser(name, parents=[common], help=text)
        sub.set_defaults(func=func)
        return sub

    subs = parser.add_subparsers(dest="command", required=True)
    command(subs, "analyze", "emit the certificate report as JSON", cmd_analyze)
    command(subs, "simulate", "run the configured closed loop", cmd_simulate)
    figures = command(subs, "figures", "reproduce a preset experiment bundle", cmd_figures)
    figures.add_argument("preset", choices=["fig3", "fig4"])
    grid = subs.add_parser("grid", parents=[common], help="DC-grid case-study helpers")
    grid_subs = grid.add_subparsers(dest="grid_command", required=True)
    command(grid_subs, "build", "assemble and export the grid plant", cmd_grid_build)
    command(grid_subs, "simulate", "simulate the configured grid loop", cmd_grid_simulate)
    sweep = command(grid_subs, "sweep", "sweep the node conductance", cmd_grid_sweep)
    sweep.add_argument(
        "--g", default="1,2,5,10,20,50,100", help="comma-separated conductance values"
    )
    sweep.add_argument("--eta", type=float, default=None, help="controller step size")
    sweep.add_argument("--steps", type=int, default=None, help="iteration budget")
    parsers = (parser, *subs.choices.values(), *grid_subs.choices.values())
    return parser, {flag for p in parsers for flag in p._option_string_actions}


@cache
def _openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:  # not a library this process can load: not numpy's
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            get = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one BLAS thread, then restore the caller's count.

    Threaded LAPACK and BLAS-3 calls partition their work by the thread
    count, which changes their rounding on matrices above OpenBLAS's
    threading thresholds (n = 64 plants).  On one thread the bytes are
    the same at any OPENBLAS_NUM_THREADS; where no bundled OpenBLAS is
    found (MKL, Accelerate, a system OpenBLAS) the count is left alone.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def main(argv=None) -> int:
    parser, flags = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes the value of an unknown flag before the subcommand for
    # the subcommand ("invalid choice: 'paper'"), so a flag that is not a
    # known flag or a prefix of one (argparse's abbreviation) is named first
    names = [arg.split("=")[0] for arg in argv if arg.startswith("--")]
    unknown = [name for name in names if not any(f.startswith(name) for f in flags)]
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    args = parser.parse_args(argv)
    try:
        with _one_blas_thread():
            args.func(args)
    except (OfonetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ConfigError) else EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
