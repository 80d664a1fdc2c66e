"""Seeded inputs for the benchmark workloads.

Every workload is a list of ``ofo`` commands plus the config files they
read.  All inputs derive from the workload seed, so the same seed gives
byte-identical config files.  The random plants are stable and satisfy
the diagonal-dominance coupling condition by construction; each one is
checked with ofonet's own ``is_schur_stable`` and ``coupling_condition``
before it is written.

Run as a script to write one workload's inputs and its manifest (the
command list plus the reference values the correctness checks need):

    python3 perfbench/bench_inputs.py --workload grid-loops --seed 1 --out DIR

The benchmark does this in a child process, so that generating the
large plants does not count towards the peak memory it measures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

# Name under which the non-quadratic objective is registered with the CLI.
LOGCOSH = "perfbench-logcosh"

MODES = ("centralized", "decentralized")
LOOPS = ("algebraic", "lti")
STEP_BUDGET = 100_000

GRID_LOOP_ETA = 0.001
GRID_U0_SCALE = 0.02

CERTIFY_PLANTS = 4
CERTIFY_N, CERTIFY_N_STATE = 256, 512
CERTIFY_ETA = 0.01
CERTIFY_DENSITY = 0.15

SWEEP_G = np.geomspace(0.5, 200.0, 120)
SWEEP_ETA = 0.05
SWEEP_STEPS = 300
SWEEP_JITTER = 0.05

GENERIC_N, GENERIC_N_STATE = 64, 128
GENERIC_ETA = 0.002
GENERIC_DECIMATION = 50
GENERIC_DENSITY = 0.25

DIGITS = 6  # decimals kept in generated matrices; keeps the JSON compact


def _logcosh(x: float) -> float:
    a = abs(x)
    return a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)


def logcosh_objective(n: int):
    """Separable non-quadratic objective with declared moduli.

    Input cost u^2/2 + log cosh(u)/2 (m_u = 1, L_u = 1.5) and output cost
    y^2/2 + log cosh(y) (m_y = 1, L_y = 2): every agent goes through the
    callable path of the objective, controller and equilibria layers.
    """
    from ofonet.objective import SeparableObjective

    input_cost = (
        lambda a: 0.5 * a * a + 0.5 * _logcosh(a),
        lambda a: a + 0.5 * math.tanh(a),
    )
    output_cost = (
        lambda b: 0.5 * b * b + _logcosh(b),
        lambda b: b + math.tanh(b),
    )
    return SeparableObjective(
        input_costs=(input_cost,) * n,
        output_costs=(output_cost,) * n,
        L_u=1.5,
        m_u=1.0,
        L_y=2.0,
        m_y=1.0,
    )


def _dump(data) -> bytes:
    return (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _sparse(rng, rows: int, cols: int, density: float, norm: float) -> np.ndarray:
    mat = rng.standard_normal((rows, cols)) * (rng.random((rows, cols)) < density)
    return mat * (norm / np.linalg.norm(mat, 2))


def random_plant(rng, n: int, n_state: int, density: float, gain: float) -> dict:
    """Stable plant whose sensitivity is diag(1..2) plus a coupling of norm <= gain.

    sigma_max(A) = 0.6 keeps the plant stable and the dynamic certificate
    defined (t = 1 - sigma_max(A)^2 > 0); B and C are scaled so that
    ||C (I - A)^-1 B|| <= gain, which leaves H diagonally dominant.
    """
    a_norm = 0.6
    side = math.sqrt(gain * (1.0 - a_norm))
    mats = {
        "A": _sparse(rng, n_state, n_state, density, a_norm),
        "B": _sparse(rng, n_state, n, density, side),
        "C": _sparse(rng, n, n_state, density, side),
        "D": np.diag(rng.uniform(1.0, 2.0, n)),
    }
    plant = {key: np.round(mat, DIGITS).tolist() for key, mat in mats.items()}
    plant["d"] = np.round(rng.uniform(-1.0, 1.0, n), DIGITS).tolist()
    return plant


def check_instance(plant_dict: dict, obj) -> None:
    """Raise unless the plant is Schur stable and the coupling condition holds.

    ``plant_from_dict`` runs ofonet's ``is_schur_stable`` on A and raises
    ConfigError for an unstable plant.
    """
    from ofonet.analysis import coupling_condition
    from ofonet.plant import compute_sensitivity, plant_from_dict

    plant = plant_from_dict(plant_dict)
    ok, lhs, rhs = coupling_condition(obj, compute_sensitivity(plant))
    if not ok:
        raise RuntimeError(f"generated plant violates the coupling condition ({lhs} > {rhs})")


def reference_points(plant_dict: dict, gamma1: float, gamma2: float, y_ref) -> dict:
    """u_star and u_inf of a quadratic instance, solved with numpy alone."""
    A, B, C, D = (np.asarray(plant_dict[k]) for k in "ABCD")
    d = np.asarray(plant_dict["d"])
    H = C @ np.linalg.solve(np.eye(A.shape[0]) - A, B) + D
    Hd = np.diag(np.diag(H))
    n = H.shape[0]
    target = np.asarray(y_ref) - d
    u_star = np.linalg.solve(gamma1 * np.eye(n) + gamma2 * H.T @ H, gamma2 * H.T @ target)
    u_inf = np.linalg.solve(gamma1 * np.eye(n) + gamma2 * Hd @ H, gamma2 * Hd @ target)
    return {"u_star": u_star.tolist(), "u_inf": u_inf.tolist()}


def _stock_grid() -> dict:
    from ofonet import powergrid

    return powergrid.spec_to_dict(powergrid.default_topology())


def _loop_commands(prefix: str, base: dict, argv_head: list) -> list:
    commands = []
    for mode in MODES:
        for loop in LOOPS:
            name = f"{mode}-{loop}"
            config = json.loads(json.dumps(base))
            config["controller"]["mode"] = mode
            config["simulation"]["loop"] = loop
            commands.append(
                {
                    "name": name,
                    "kind": "simulate",
                    "argv": argv_head,
                    "config": f"{prefix}{name}.json",
                    "data": config,
                    "expect": {"decimation": config["simulation"]["decimation"]},
                }
            )
    return commands


def _grid_loops(rng) -> list:
    u0 = np.round(rng.normal(0.0, GRID_U0_SCALE, 8), DIGITS).tolist()
    base = {
        "grid": _stock_grid(),
        "controller": {"eta": GRID_LOOP_ETA},
        "simulation": {"steps": STEP_BUDGET, "decimation": 1, "u0": u0},
    }
    return _loop_commands("grid-", base, ["grid", "simulate"])


def _random_certify(rng) -> list:
    from ofonet.objective import QuadraticObjective

    commands = []
    for i in range(CERTIFY_PLANTS):
        plant = random_plant(rng, CERTIFY_N, CERTIFY_N_STATE, CERTIFY_DENSITY, 0.2)
        y_ref = np.round(rng.uniform(-1.0, 1.0, CERTIFY_N), DIGITS).tolist()
        check_instance(plant, QuadraticObjective(1.0, 1.0, y_ref))
        config = {
            "plant": plant,
            "objective": {"gamma1": 1.0, "gamma2": 1.0, "y_ref": y_ref},
            "controller": {"eta": CERTIFY_ETA},
        }
        commands.append(
            {
                "name": f"plant{i}",
                "kind": "analyze",
                "argv": ["analyze"],
                "config": f"plant{i}.json",
                "data": config,
                "expect": reference_points(plant, 1.0, 1.0, y_ref),
            }
        )
    return commands


def _grid_sweep(rng) -> list:
    spec = _stock_grid()
    for key in ("c_cap", "l_ind", "r_line", "i_star"):
        scale = rng.uniform(1.0 - SWEEP_JITTER, 1.0 + SWEEP_JITTER, len(spec[key]))
        spec[key] = np.round(np.asarray(spec[key]) * scale, DIGITS).tolist()
    g_values = [repr(float(g)) for g in np.round(SWEEP_G, DIGITS)]
    argv = ["grid", "sweep", "--g", ",".join(g_values), "--steps", str(SWEEP_STEPS)]
    return [
        {
            "name": "sweep",
            "kind": "sweep",
            "argv": argv,
            "config": "sweep.json",
            "data": {"grid": spec, "controller": {"eta": SWEEP_ETA}},
            "expect": {"rows": len(g_values)},
        }
    ]


def _generic_n64(rng) -> list:
    plant = random_plant(rng, GENERIC_N, GENERIC_N_STATE, GENERIC_DENSITY, 0.1)
    check_instance(plant, logcosh_objective(GENERIC_N))
    base = {
        "plant": plant,
        "objective": {"custom": LOGCOSH},
        "controller": {"eta": GENERIC_ETA},
        "simulation": {"steps": STEP_BUDGET, "decimation": GENERIC_DECIMATION},
    }
    return _loop_commands("n64-", base, ["simulate"])


_GENERATORS = {
    "grid-loops": _grid_loops,
    "random-certify": _random_certify,
    "grid-sweep": _grid_sweep,
    "generic-n64": _generic_n64,
}
WORKLOADS = tuple(_GENERATORS)


def write_workload(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's config files into ``out`` and return its manifest.

    The manifest lists each command with the ``ofo`` arguments, its
    config file (relative to ``out``) and what the checks expect.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    commands = _GENERATORS[workload](rng)
    out.mkdir(parents=True, exist_ok=True)
    for command in commands:
        (out / command["config"]).write_bytes(_dump(command.pop("data")))
    manifest = {"workload": workload, "seed": seed, "commands": commands}
    (out / "manifest.json").write_bytes(_dump(manifest))
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    write_workload(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
