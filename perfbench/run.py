"""Benchmark for ofonet: real ``ofo`` commands driven in one warm process.

    python3 perfbench/run.py --workload grid-loops --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload is a list of ``ofo``
commands on inputs generated from ``--seed`` (see bench_inputs.py);
they run in this process through ``ofonet.cli.main``.  One pass runs
the whole list; a warm-up pass comes first, then passes repeat until
``--seconds`` have elapsed (at least MIN_PASSES of them).  Every
command's output is checked after its pass, outside the timed region.

With ``--trace 0`` the last line reports the end-to-end metrics: medians
over passes of times scaled to a reference machine speed (Calibration),
plus ``setup_s`` timed in fresh interpreters.  With
``--trace 1`` each pass runs the commands untraced, then again with every
layer call recorded as a span (bench_trace.py), and the last line
reports the per-layer metrics.  The line before it carries provenance,
output digests and per-command timings; the same object is written to
perfbench/out/, next to the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import bench_checks
import bench_inputs
import bench_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "out"

SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT = 150
# Calibration kernel per workload (default "python"); see Calibration.
KERNEL_OF = {"random-certify": "lapack"}
# Counts that must repeat exactly from pass to pass.
EXACT_COUNTS = ("sim.iterations", "sim.csv_bytes", "analysis.svd_calls", "plant.eig_calls")


def load_cli():
    """Import ofonet from this checkout's src/, or exit without a result."""
    if not (SRC / "ofonet" / "__init__.py").is_file():
        raise SystemExit(f"error: no ofonet package under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import ofonet
    from ofonet import cli

    if Path(ofonet.__file__).resolve().parent != SRC / "ofonet":
        raise SystemExit(f"error: imported ofonet from {ofonet.__file__}, not from {SRC}")
    return cli


def tail_summary(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered), "values": values}
    if n >= 11:
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail"] = ordered[n - 11]
    return out


def provenance() -> dict:
    git_rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        git_rev = proc.stdout.strip() or None
    tree = hashlib.sha256()
    for path in sorted((SRC / "ofonet").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            tree.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            tree.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": git_rev,
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
    }


def blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


class Harness:
    """One workload's commands, run and checked pass after pass."""

    def __init__(self, cli, workload: str, seed: int, work: Path):
        self.cli = cli
        self.workload = workload
        self.inputs = work / "inputs"
        self.cli_out = work / "cli"
        subprocess.run(
            [sys.executable, str(HERE / "bench_inputs.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(self.inputs)],
            check=True, timeout=CHILD_TIMEOUT,
        )
        manifest = json.loads((self.inputs / "manifest.json").read_text(encoding="utf-8"))
        self.commands = manifest["commands"]
        cli.register_objective(bench_inputs.LOGCOSH, bench_inputs.logcosh_objective)
        self.checker = bench_checks.Checker(SRC / "ofonet" / "schemas")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict = {}
        self.digest_changes = 0
        self.command_seconds: dict = {c["name"]: [] for c in self.commands}

    def config_path(self, command) -> Path:
        return self.inputs / command["config"]

    def run_pass(self, rec=None) -> tuple[float, list]:
        """Run every command once; returns (pass seconds, per-command results).

        With a recorder each ``cli.main`` call runs inside a root span,
        which the result carries last.  Outputs of the previous pass are
        removed first, so the checks only see what this pass wrote.
        """
        shutil.rmtree(self.cli_out, ignore_errors=True)
        results = []
        start = time.perf_counter()
        for command in self.commands:
            argv = command["argv"] + [
                "--config", str(self.config_path(command)),
                "--out", str(self.cli_out / command["name"]),
            ]
            buf = io.StringIO()
            root = None
            t0 = time.perf_counter()
            try:
                with contextlib.ExitStack() as stack:
                    if rec is not None:
                        root = stack.enter_context(rec.span("cli.main", command=command["name"]))
                    stack.enter_context(contextlib.redirect_stdout(buf))
                    rc = self.cli.main(argv)
            except Exception:  # a crash is a failed command, not a failed benchmark
                traceback.print_exc()
                rc = "exception"
            results.append((command, rc, buf.getvalue(), time.perf_counter() - t0, root))
        return time.perf_counter() - start, results

    def check_pass(self, results) -> int:
        """Check one pass's outputs and digests; returns the pass's work count."""
        work = 0
        for command, rc, stdout, seconds, root in results:
            name = command["name"]
            out_dir = self.cli_out / name
            self.attempted += 1
            if root is None:
                self.command_seconds[name].append(seconds)
            try:
                problems, count = self.checker.check(command, rc, stdout, out_dir)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems, count = [f"output unreadable: {exc!r}"], 0
            if problems:
                self.failed += 1
                self.problems.extend(f"{name}: {p}" for p in problems[:3])
            work += count
            if out_dir.is_dir():
                digests = bench_checks.file_digests(out_dir)
                previous = self.digests.get(name)
                if previous is not None:
                    self.digest_changes += sum(
                        1 for f, h in digests.items() if previous.get(f) != h
                    )
                self.digests[name] = digests
        return work

    def detail(self) -> dict:
        return {
            "digests": self.digests,
            "digest_changes": self.digest_changes,
            "problems": self.problems[:20],
            "command_seconds": {k: tail_summary(v) for k, v in self.command_seconds.items() if v},
        }


class Calibration:
    """A fixed kernel, independent of ofonet, timed between passes.

    On a shared host the machine's speed drifts by tens of percent over
    seconds to minutes.  Scaling a pass by ``ref / kernel seconds`` around
    it gives its wall time on a reference machine, where the kernel takes
    ``ref`` seconds, and cancels most of that drift.  The kernel mirrors
    the workload's kind of work: interpreter-bound Python with small numpy
    operations, or multithreaded LAPACK.  ``ref`` is the kernel's time on
    the 2-vCPU x86-64 VM (OpenBLAS, 2 threads) the benchmark was tuned on.
    """

    KERNELS = {"python": (0.018, 9), "lapack": (0.065, 5)}  # ref seconds, repeats

    def __init__(self, kind: str):
        rng = numpy.random.default_rng(0)
        self.kind = kind
        self.ref, self.repeats = self.KERNELS[kind]
        self.small = rng.standard_normal((8, 8))
        self.vec = numpy.ones(8)
        self.big = rng.standard_normal((384, 384))

    def _kernel(self) -> None:
        if self.kind == "lapack":
            numpy.linalg.svd(self.big, compute_uv=False)
            numpy.linalg.eigvals(self.big[:256, :256])
            return
        total = 0.0
        for i in range(100_000):
            total += i * 0.5
        y = self.vec
        for _ in range(3000):
            y = self.small @ y * 0.1 + self.vec

    def __call__(self) -> float:
        """Median seconds of the kernel over ``repeats`` runs."""
        times = []
        for _ in range(self.repeats):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def time_setup(config: Path) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config)],
        check=True, timeout=CHILD_TIMEOUT,
    )
    return time.perf_counter() - start


def measure(h: Harness, seconds: float):
    setup = [time_setup(h.config_path(h.commands[0])) for _ in range(SETUP_REPEATS)]
    h.check_pass(h.run_pass()[1])  # warm-up
    calibrate = Calibration(KERNEL_OF.get(h.workload, "python"))
    walls, items, cals = [], [], [calibrate()]
    deadline = time.monotonic() + seconds
    while len(walls) < MIN_PASSES or time.monotonic() < deadline:
        wall, results = h.run_pass()
        walls.append(wall)
        items.append(h.check_pass(results))
        cals.append(calibrate())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ref_walls = [
        wall * calibrate.ref / ((before + after) / 2)
        for wall, before, after in zip(walls, cals, cals[1:])
    ]
    rates = [n / wall for n, wall in zip(items, ref_walls)]
    metrics = {
        "wall_ref_s": (statistics.median(ref_walls), "ref-s"),
        "items_per_ref_s": (statistics.median(rates), "1/ref-s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ok_frac": (1.0 - h.failed / h.attempted, "ratio"),
    }
    detail = {
        "wall_s": tail_summary(walls),
        "wall_ref_s": tail_summary(ref_walls),
        "items_per_ref_s": tail_summary(rates),
        "items": items,
        "setup_s": tail_summary(setup),
        "calibration": {"kernel": calibrate.kind, "ref_s": calibrate.ref, "seconds": cals},
    }
    return metrics, detail


def measure_traced(h: Harness, seconds: float, run_id: str):
    h.check_pass(h.run_pass()[1])  # warm-up
    passes, recorders = [], []
    deadline = time.monotonic() + seconds
    while len(passes) < MIN_TRACED_PASSES or time.monotonic() < deadline:
        _, plain = h.run_pass()
        h.check_pass(plain)
        rec = bench_trace.Recorder(f"{run_id}-pass{len(passes)}")
        with bench_trace.instrumented(rec):
            _, traced = h.run_pass(rec)
        h.check_pass(traced)
        roots = [r[4] for r in traced]
        for root in roots:
            bench_trace.replay_steps(rec, root)
        passes.append(bench_trace.layer_metrics(rec, roots, [r[3] for r in plain]))
        recorders.append(rec)
    metrics = {
        name: (statistics.median(p[name] for p in passes), bench_trace.UNITS[name])
        for name in bench_trace.PER_LAYER
    }
    repeats = {name: len({p[name] for p in passes}) == 1 for name in EXACT_COUNTS}
    return metrics, {"passes": len(passes), "exact_counts_repeat": repeats}, recorders


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ofonet benchmark")
    parser.add_argument("--workload", required=True, choices=bench_inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{run_id}-{os.getpid()}"
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        h = Harness(cli, args.workload, args.seed, work)
        if args.trace:
            metrics, extra, recorders = measure_traced(h, args.seconds, run_id)
            with open(OUT / f"spans-{run_id}.jsonl", "w", encoding="utf-8") as fh:
                for rec in recorders:
                    rec.write(fh)
        else:
            metrics, extra = measure(h, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail = {"run": run_id, "provenance": provenance(), **extra, **h.detail()}
    (OUT / f"result-{run_id}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    result = {
        "correct": h.failed == 0,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
