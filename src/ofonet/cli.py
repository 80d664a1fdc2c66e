"""Command-line interface: certificate reports, closed-loop runs, presets.

Subcommands
-----------
analyze
    Emit every certificate for the configured instance as JSON; exits 0
    only when the diagonal-dominance condition holds and the configured
    step size is admissible.
simulate
    Run the configured closed loop; writes trajectory.csv and
    metrics.json, truncating the CSV at the divergence step if the loop
    blows up (exit 1).
figures {fig3,fig4}
    Preset bundles: fig3 produces the four G=1 trajectories
    (centralized/decentralized x algebraic/dynamic, eta=0.05); fig4
    produces the conductance sweep.  Each bundle carries a manifest.
grid {build,simulate,sweep}
    DC-grid helpers working from the "grid" config section (the default
    topology when absent).

Configuration is a JSON file selected with --config; sections are
plant | grid (exactly one), objective, controller, simulation, analysis,
output.  Environment variables OFO_<SECTION>_<KEY> override file values
(e.g. OFO_CONTROLLER_ETA=0.1), and command-line flags override both.
Exit codes: 0 success, 1 numerical or I/O failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import analysis, powergrid, sim
from .analysis import Convention
from .controller import ControllerConfig, Mode
from .equilibria import decentralized_fixed_point, global_optimum
from .errors import ConfigError, NonFinite, OfonetError, as_vector
from .objective import QuadraticObjective, SeparableObjective
from .plant import (
    LtiPlant,
    SensitivityModel,
    compute_sensitivity,
    is_schur_stable,
    plant_from_dict,
)

__all__ = ["main", "register_objective"]

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

CONFIG_SECTIONS = (
    "plant",
    "grid",
    "objective",
    "controller",
    "simulation",
    "analysis",
    "output",
)

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
    unknown = set(data) - set(CONFIG_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    return data


def _section(config: dict, name: str) -> dict:
    """The config section ``name`` ({} when absent); it must be a JSON object."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{name}' section must be an object")
    return section


def _int_key(config: dict, name: str, key: str, default):
    """``int`` of ``config[name][key]`` (``default`` when absent; None stays None)."""
    value = _section(config, name).get(key, default)
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"'{name}.{key}' is not an integer: {exc}") from exc


def _steps(config: dict, value=None) -> int:
    """The step budget: ``value``, else ``simulation.steps``; it must be >= 1."""
    if value is None:
        value = _int_key(config, "simulation", "steps", sim.DEFAULT_STEPS)
    if value < 1:
        raise ConfigError(f"'simulation.steps' must be >= 1, got {value}")
    return value


def _eta(value) -> float:
    """``controller.eta`` as a float; it must be positive and finite."""
    try:
        eta = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'controller.eta' is not a number: {exc}") from exc
    if not (eta > 0.0 and math.isfinite(eta)):
        raise ConfigError(f"'controller.eta' must be positive and finite, got {eta}")
    return eta


def _override(config: dict, name: str, key: str, value) -> None:
    """Set ``config[name][key]``, creating the section when absent."""
    section = _section(config, name)
    section[key] = value
    config[name] = section


def _apply_env(config: dict, environ) -> dict:
    for key in sorted(environ):
        if not key.startswith("OFO_"):
            continue
        rest = key[len("OFO_"):]
        for section in CONFIG_SECTIONS:
            prefix = section.upper() + "_"
            if rest.startswith(prefix):
                field = rest[len(prefix):].lower()
                raw = environ[key]
                try:
                    value = json.loads(raw)
                except json.JSONDecodeError:
                    value = raw
                _override(config, section, field, value)
                break
        else:
            raise ConfigError(f"unrecognized environment override '{key}'")
    return config


def _apply_flags(config: dict, args) -> dict:
    seed = getattr(args, "seed", None)
    if seed is not None:
        _override(config, "simulation", "seed", seed)
    convention = getattr(args, "convention", None)
    if convention is not None:
        _override(config, "analysis", "convention", convention)
    out = getattr(args, "out", None)
    if out is not None:
        _override(config, "output", "dir", out)
    return config


@dataclass
class Instance:
    plant: LtiPlant
    model: SensitivityModel
    d: np.ndarray
    obj: SeparableObjective
    grid_spec: Optional[powergrid.GridSpec] = None


def _resolve_objective(obj_cfg: dict, n: int, default_y_ref, default_gammas=(1.0, 1.0)):
    if "custom" in obj_cfg:
        name = str(obj_cfg["custom"])
        factory = _CUSTOM_OBJECTIVES.get(name)
        if factory is None:
            raise ConfigError(f"unknown custom objective '{name}'")
        obj = factory(n)
        if obj.n != n:
            raise ConfigError(
                f"custom objective '{name}' has {obj.n} agents, plant has {n}"
            )
        return obj
    gamma1 = obj_cfg.get("gamma1", default_gammas[0])
    gamma2 = obj_cfg.get("gamma2", default_gammas[1])
    y_ref = obj_cfg.get("y_ref")
    y_ref = default_y_ref if y_ref is None else np.asarray(y_ref, dtype=float)
    try:
        return QuadraticObjective(gamma1=gamma1, gamma2=gamma2, y_ref=y_ref)
    except (ValueError, OfonetError) as exc:
        raise ConfigError(f"invalid objective section: {exc}") from exc


def _resolve_instance(config: dict) -> Instance:
    has_plant = "plant" in config
    has_grid = "grid" in config
    if has_plant == has_grid:
        raise ConfigError(
            "config must contain exactly one plant source: 'plant' or 'grid'"
        )
    obj_cfg = _section(config, "objective")
    if has_grid:
        spec = powergrid.spec_from_dict(config["grid"] or {})
        plant, model, d_eff = powergrid.assemble_plant(spec)
        default_y_ref = model.H @ spec.i_star + spec.d_meas
        obj = _resolve_objective(
            obj_cfg, model.n, default_y_ref, (spec.gamma1, spec.gamma2)
        )
        return Instance(plant=plant, model=model, d=d_eff, obj=obj, grid_spec=spec)
    plant = plant_from_dict(config["plant"])
    model = compute_sensitivity(plant)
    obj = _resolve_objective(obj_cfg, model.n, np.zeros(model.n))
    return Instance(plant=plant, model=model, d=np.asarray(plant.d), obj=obj)


def _resolve_controller(config: dict) -> ControllerConfig:
    ctl = _section(config, "controller")
    if "eta" not in ctl:
        raise ConfigError("config is missing required key 'controller.eta'")
    eta = _eta(ctl["eta"])
    mode_name = str(ctl.get("mode", "decentralized")).lower()
    try:
        mode = Mode(mode_name)
    except ValueError as exc:
        raise ConfigError(
            f"'controller.mode' must be 'centralized' or 'decentralized', got '{mode_name}'"
        ) from exc
    return ControllerConfig(mode=mode, eta=eta)


def _vector_key(value, n: int, key: str) -> np.ndarray:
    """``value`` of the setting ``key`` as a finite float vector of length ``n``."""
    try:
        return as_vector(value, n, "the value", finite=True)
    except (TypeError, ValueError, OfonetError) as exc:
        raise ConfigError(f"invalid '{key}': {exc}") from exc


@dataclass
class SimSettings:
    steps: int
    loop: str
    u0: Optional[np.ndarray]
    x0: Optional[np.ndarray]
    decimation: int
    seed: Optional[int]


def _resolve_simulation(config: dict, n: int, n_state: int) -> SimSettings:
    simc = _section(config, "simulation")
    steps = _steps(config)
    loop = str(simc.get("loop", "algebraic")).lower()
    if loop not in ("algebraic", "lti"):
        raise ConfigError(f"'simulation.loop' must be 'algebraic' or 'lti', got '{loop}'")
    decimation = _int_key(config, "simulation", "decimation", 1)
    if decimation < 1:
        raise ConfigError(f"'simulation.decimation' must be >= 1, got {decimation}")
    seed = _int_key(config, "simulation", "seed", None)
    u0_cfg = simc.get("u0", "zeros")
    if u0_cfg is None or u0_cfg == "zeros":
        u0 = None
    elif u0_cfg == "random":
        if seed is None:
            raise ConfigError("'simulation.seed' is required when u0 is 'random'")
        u0 = np.random.default_rng(seed).standard_normal(n)
    else:
        u0 = _vector_key(u0_cfg, n, "simulation.u0")
    x0_cfg = simc.get("x0", "zeros")
    x0 = None
    if x0_cfg is not None and x0_cfg != "zeros":
        x0 = _vector_key(x0_cfg, n_state, "simulation.x0")
    return SimSettings(
        steps=steps, loop=loop, u0=u0, x0=x0, decimation=decimation, seed=seed
    )


def _resolve_convention(config: dict) -> Convention:
    name = str(_section(config, "analysis").get("convention", "tight")).lower()
    try:
        return Convention(name)
    except ValueError as exc:
        raise ConfigError(
            f"'analysis.convention' must be 'paper' or 'tight', got '{name}'"
        ) from exc


def _resolve_eta_grid(config: dict) -> list:
    grid = _section(config, "analysis").get("eta_grid", list(DEFAULT_ETA_GRID))
    try:
        values = [float(v) for v in grid]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'analysis.eta_grid' must be a list of numbers: {exc}") from exc
    if not values or any(v <= 0.0 for v in values):
        raise ConfigError("'analysis.eta_grid' must contain positive numbers")
    return values


def _resolve_out_dir(config: dict, default: Optional[str] = None) -> Optional[str]:
    """``output.dir`` (else ``default``), created when missing; None when both are None."""
    out = _section(config, "output").get("dir")
    out = default if out is None else str(out)
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


def cmd_analyze(args) -> int:
    config = _configure(args)
    inst = _resolve_instance(config)
    ctl = _resolve_controller(config)
    convention = _resolve_convention(config)
    eta_grid = _resolve_eta_grid(config)
    report = analysis.build_report(
        inst.obj, inst.model, inst.d, ctl.eta, eta_grid, inst.plant
    )
    out_dir = _resolve_out_dir(config)
    path = os.path.join(out_dir, "analysis_report.json") if out_dir else None
    sys.stdout.write(_dump_json(report, path))
    rate = report["conventions"][convention.value]["rate_at_eta"]
    ok = report["coupling"]["satisfied"] and bool(rate.get("admissible"))
    return EXIT_OK if ok else EXIT_NUMERICAL


def _reference_points(inst: Instance):
    star = global_optimum(inst.obj, inst.model, inst.d)
    fixed = decentralized_fixed_point(inst.obj, inst.model, inst.d)
    return star, fixed


def _run_loop(inst: Instance, ctl: ControllerConfig, settings: SimSettings):
    if settings.loop == "lti":
        return sim.run_lti(
            inst.plant,
            inst.obj,
            ctl,
            x0=settings.x0,
            u0=settings.u0,
            steps=settings.steps,
            seed=settings.seed,
        )
    return sim.run_algebraic(
        inst.model,
        inst.obj,
        inst.d,
        ctl,
        u0=settings.u0,
        steps=settings.steps,
        seed=settings.seed,
    )


def cmd_simulate(args) -> int:
    return _simulate(_configure(args))


def _simulate(config: dict) -> int:
    inst = _resolve_instance(config)
    ctl = _resolve_controller(config)
    settings = _resolve_simulation(config, inst.model.n, inst.plant.n_state)
    convention = _resolve_convention(config)
    star, fixed = _reference_points(inst)
    if ctl.mode is Mode.CENTRALIZED:
        u_ref, u_ref_kind = star.u, "optimum"
    else:
        u_ref, u_ref_kind = fixed.u, "fixed_point"
    out_dir = _resolve_out_dir(config, ".")
    csv_path = os.path.join(out_dir, "trajectory.csv")
    metrics_path = os.path.join(out_dir, "metrics.json")

    def payload(traj, diverged, step=None):
        data = {
            "mode": ctl.mode.value,
            "loop": settings.loop,
            "eta": ctl.eta,
            "steps_requested": settings.steps,
            "seed": settings.seed,
            "u_ref_kind": u_ref_kind,
            "diverged": diverged,
        }
        if step is not None:
            data["divergence_step"] = step
        if traj is not None:
            err = sim.metrics(traj, u_ref, inst.model)
            sim.write_trajectory_csv(csv_path, traj, err, settings.decimation)
            data["iterations"] = traj.info.iterations
            data["early_stopped"] = traj.info.early_stopped
            data["final_rel_err"] = float(err.rel_err_u[-1])
            data["absolute_errors"] = err.absolute
        if ctl.mode is Mode.DECENTRALIZED:
            consts = analysis.monotonicity_constants(inst.obj, inst.model, convention)
            sub = analysis.suboptimality_bound(
                inst.obj, inst.model, inst.d, fixed.u, consts
            )
            data["suboptimality"] = {
                "distance": float(np.linalg.norm(star.u - fixed.u)),
                "bound": sub.bound,
                "applicable": sub.applicable,
                "convention": convention.value,
            }
        return data

    try:
        traj = _run_loop(inst, ctl, settings)
    except NonFinite as exc:
        sys.stdout.write(_dump_json(payload(exc.trajectory, True, exc.step), metrics_path))
        return EXIT_NUMERICAL
    sys.stdout.write(_dump_json(payload(traj, False), metrics_path))
    return EXIT_OK


def _fig3_bundle(out_dir: str, steps: int, seed: Optional[int]) -> dict:
    spec = powergrid.default_topology()
    plant, model, d_eff = powergrid.assemble_plant(spec)
    obj = powergrid.grid_objective(spec, model)
    star = global_optimum(obj, model, d_eff)
    fixed = decentralized_fixed_point(obj, model, d_eff)
    eta = 0.05
    files = {}
    for mode in (Mode.CENTRALIZED, Mode.DECENTRALIZED):
        for loop in ("algebraic", "lti"):
            cfg = ControllerConfig(mode=mode, eta=eta)
            if loop == "lti":
                traj = sim.run_lti(plant, obj, cfg, steps=steps, seed=seed)
            else:
                traj = sim.run_algebraic(model, obj, d_eff, cfg, steps=steps, seed=seed)
            # rel_err_u is against u_star; combined_sq against the mode's own
            # limit, which for the centralized loop is u_star as well
            if mode is Mode.CENTRALIZED:
                err = sim.metrics(traj, star.u, model)
            else:
                err = sim.metrics(traj, star.u)
                if loop == "lti":
                    err = replace(
                        err, combined_sq=sim.combined_sq(traj, fixed.u, model)
                    )
            name = f"fig3_{mode.value}_{loop}.csv"
            sim.write_trajectory_csv(os.path.join(out_dir, name), traj, err)
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


def cmd_figures(args) -> int:
    config = _configure(args)
    out_dir = _resolve_out_dir(config, ".")
    steps = _steps(config)
    seed = _int_key(config, "simulation", "seed", None)
    if args.preset == "fig3":
        manifest = _fig3_bundle(out_dir, steps, seed)
    else:
        manifest = _fig4_bundle(out_dir, steps, seed)
    path = os.path.join(out_dir, f"{args.preset}_manifest.json")
    sys.stdout.write(_dump_json(manifest, path))
    return EXIT_OK


def _grid_config(args) -> dict:
    """The configuration of a grid subcommand: a 'grid' section, never 'plant'."""
    config = _configure(args)
    if "plant" in config:
        raise ConfigError("grid subcommands use the 'grid' section, not 'plant'")
    config.setdefault("grid", {})
    return config


def cmd_grid_build(args) -> int:
    config = _grid_config(args)
    spec = powergrid.spec_from_dict(config["grid"] or {})
    plant, model, d_eff = powergrid.assemble_plant(spec)
    out_dir = _resolve_out_dir(config, ".")
    _dump_json(powergrid.spec_to_dict(spec), os.path.join(out_dir, "grid_spec.json"))
    plant_dict = {
        "A": plant.A.tolist(),
        "B": plant.B.tolist(),
        "C": plant.C.tolist(),
        "D": plant.D.tolist(),
        "d": plant.d.tolist(),
    }
    _dump_json(plant_dict, os.path.join(out_dir, "grid_plant.json"))
    _, radius = is_schur_stable(plant.A)
    summary = {
        "files": {"spec": "grid_spec.json", "plant": "grid_plant.json"},
        "n_nodes": spec.n_nodes,
        "n_edges": spec.n_edges,
        "n_state": plant.n_state,
        "spectral_radius": radius,
        "effective_disturbance": d_eff.tolist(),
    }
    sys.stdout.write(_dump_json(summary))
    return EXIT_OK


def cmd_grid_simulate(args) -> int:
    return _simulate(_grid_config(args))


def cmd_grid_sweep(args) -> int:
    config = _grid_config(args)
    spec = powergrid.spec_from_dict(config["grid"] or {})
    try:
        g_values = [float(v) for v in args.g.split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"--g must be a comma-separated list of numbers: {exc}") from exc
    if not g_values:
        raise ConfigError("--g must contain at least one value")
    eta = args.eta
    if eta is None:
        eta = _section(config, "controller").get("eta")
    if eta is None:
        raise ConfigError("step size required: pass --eta or set 'controller.eta'")
    eta = _eta(eta)
    steps = _steps(config, args.steps)
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
    return EXIT_OK


def _configure(args) -> dict:
    config = _load_config(getattr(args, "config", None))
    config = _apply_env(config, os.environ)
    config = _apply_flags(config, args)
    return config


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="JSON config file")
    common.add_argument(
        "--out", default=argparse.SUPPRESS, help="output directory for emitted files"
    )
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="seed override"
    )
    common.add_argument(
        "--convention",
        choices=[c.value for c in Convention],
        default=argparse.SUPPRESS,
        help="constant convention for checked certificates",
    )
    parser = argparse.ArgumentParser(
        prog="ofo",
        description="Feedback-optimization simulation and certification toolkit",
        parents=[common],
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_analyze = subs.add_parser(
        "analyze", parents=[common], help="emit the certificate report as JSON"
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = subs.add_parser(
        "simulate", parents=[common], help="run the configured closed loop"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_fig = subs.add_parser(
        "figures", parents=[common], help="reproduce a preset experiment bundle"
    )
    p_fig.add_argument("preset", choices=["fig3", "fig4"])
    p_fig.set_defaults(func=cmd_figures)

    p_grid = subs.add_parser(
        "grid", parents=[common], help="DC-grid case-study helpers"
    )
    grid_subs = p_grid.add_subparsers(dest="grid_command", required=True)
    g_build = grid_subs.add_parser(
        "build", parents=[common], help="assemble and export the grid plant"
    )
    g_build.set_defaults(func=cmd_grid_build)
    g_sim = grid_subs.add_parser(
        "simulate", parents=[common], help="simulate the configured grid loop"
    )
    g_sim.set_defaults(func=cmd_grid_simulate)
    g_sweep = grid_subs.add_parser(
        "sweep", parents=[common], help="sweep the node conductance"
    )
    g_sweep.add_argument(
        "--g", default="1,2,5,10,20,50,100", help="comma-separated conductance values"
    )
    g_sweep.add_argument("--eta", type=float, default=None, help="controller step size")
    g_sweep.add_argument("--steps", type=int, default=None, help="iteration budget")
    g_sweep.set_defaults(func=cmd_grid_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OfonetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
