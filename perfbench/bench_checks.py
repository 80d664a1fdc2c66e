"""Correctness checks on what one ``ofo`` command emitted.

Each check returns the list of problems found (empty when the output is
correct) and the command's work count: closed-loop iterations for
``simulate``, one report for ``analyze`` and the row count for ``sweep``.
Checks run outside the timed region.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import jsonschema
import numpy as np

FINAL_REL_ERR_MAX = 1e-8
REFERENCE_RTOL = 1e-8
SWEEP_LOOP_ERR_MAX = 1e-6
_CHUNK = 1 << 20


def _count_lines(path: Path) -> int:
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(_CHUNK):
            lines += chunk.count(b"\n")
    return lines


def file_digests(out_dir: Path) -> dict:
    """sha256 of every file the command wrote, keyed by file name."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            while chunk := fh.read(_CHUNK):
                h.update(chunk)
        digests[path.name] = h.hexdigest()
    return digests


class Checker:
    def __init__(self, schema_dir: Path):
        self._validators = {}
        for path in sorted(schema_dir.glob("*.schema.json")):
            schema = json.loads(path.read_text(encoding="utf-8"))
            name = path.name[: -len(".schema.json")]
            self._validators[name] = jsonschema.Draft202012Validator(schema)

    def _schema_problems(self, data, schema: str) -> list[str]:
        return [
            f"{schema} schema: {err.message}"
            for err in self._validators[schema].iter_errors(data)
        ]

    def check(self, command: dict, rc, stdout: str, out_dir: Path):
        """Return (problems, work count) for one finished command."""
        if rc != 0:
            return [f"exit code {rc}"], 0
        kind = command["kind"]
        if kind == "simulate":
            return self._simulate(command, stdout, out_dir)
        if kind == "analyze":
            return self._analyze(command, stdout, out_dir)
        return self._sweep(command, stdout, out_dir)

    def _simulate(self, command, stdout, out_dir):
        text = (out_dir / "metrics.json").read_text(encoding="utf-8")
        data = json.loads(text)
        problems = self._schema_problems(data, "metrics")
        if stdout != text:
            problems.append("stdout differs from metrics.json")
        if data.get("early_stopped") is not True:
            problems.append("loop did not early-stop")
        err = data.get("final_rel_err")
        if err is None or not err < FINAL_REL_ERR_MAX:
            problems.append(f"final_rel_err {err} is not below {FINAL_REL_ERR_MAX}")
        iterations = data.get("iterations", 0)
        want = math.ceil((iterations + 1) / command["expect"]["decimation"])
        rows = _count_lines(out_dir / "trajectory.csv") - 1
        if rows != want:
            problems.append(f"trajectory.csv has {rows} data rows, expected {want}")
        return problems, iterations

    def _analyze(self, command, stdout, out_dir):
        text = (out_dir / "analysis_report.json").read_text(encoding="utf-8")
        report = json.loads(text)
        problems = self._schema_problems(report, "analysis_report")
        if stdout != text:
            problems.append("stdout differs from analysis_report.json")
        if report["coupling"]["satisfied"] is not True:
            problems.append("coupling condition reported as violated")
        for key in ("u_star", "u_inf"):
            got = np.asarray(report["equilibrium"][key], dtype=float)
            want = np.asarray(command["expect"][key])
            if got.shape != want.shape or not (
                np.linalg.norm(got - want) <= REFERENCE_RTOL * max(1.0, np.linalg.norm(want))
            ):
                problems.append(f"{key} differs from the reference solve")
        for name, entry in report["conventions"].items():
            if entry.get("lti", {}).get("eta_star") is None:
                problems.append(f"{name}: dynamic certificate eta_star missing")
        return problems, 1

    def _sweep(self, command, stdout, out_dir):
        summary = json.loads(stdout)
        problems = self._schema_problems(summary, "summary")
        want = command["expect"]["rows"]
        with open(out_dir / "grid_sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if summary.get("rows") != want or len(rows) != want:
            problems.append(f"sweep has {len(rows)} rows, expected {want}")
        for row in rows:
            if row["bound_tight_applicable"] == "true" and not (
                float(row["rel_subopt"]) <= float(row["bound_tight_rel"])
            ):
                problems.append(f"g={row['g']}: rel_subopt exceeds the tight bound")
            if not float(row["loop_final_err"]) < SWEEP_LOOP_ERR_MAX:
                problems.append(f"g={row['g']}: loop_final_err {row['loop_final_err']}")
        return problems, len(rows)
