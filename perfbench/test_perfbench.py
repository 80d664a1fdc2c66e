"""Tests of the benchmark's own machinery: seeded inputs and the linalg counter."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_inputs  # noqa: E402
import bench_trace  # noqa: E402


def _files(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("workload", bench_inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(workload, tmp_path, monkeypatch):
    # Smaller certify plants keep the test fast; the generator path is the same.
    monkeypatch.setattr(bench_inputs, "CERTIFY_PLANTS", 2)
    monkeypatch.setattr(bench_inputs, "CERTIFY_N", 24)
    monkeypatch.setattr(bench_inputs, "CERTIFY_N_STATE", 48)
    bench_inputs.write_workload(workload, 7, tmp_path / "a")
    bench_inputs.write_workload(workload, 7, tmp_path / "b")
    bench_inputs.write_workload(workload, 8, tmp_path / "c")
    first, again, other = (_files(tmp_path / k) for k in "abc")
    assert first == again
    assert first.keys() == other.keys()
    assert first != other


def test_svd_counter_counts_24_in_one_build_report():
    import numpy as np
    from ofonet import analysis
    from ofonet.objective import QuadraticObjective
    from ofonet.plant import compute_sensitivity, plant_from_dict

    rng = np.random.default_rng(3)
    plant_dict = bench_inputs.random_plant(rng, 12, 24, 0.5, 0.2)
    obj = QuadraticObjective(1.0, 1.0, np.zeros(12))
    bench_inputs.check_instance(plant_dict, obj)
    plant = plant_from_dict(plant_dict)
    model = compute_sensitivity(plant)
    original = analysis.build_report
    rec = bench_trace.Recorder("test")
    with bench_trace.instrumented(rec):
        with rec.span("cli.main") as root:
            analysis.build_report(obj, model, plant.d, 0.01, [0.01, 0.05], plant)
    assert analysis.build_report is original
    assert np.linalg.svd.__module__ == "numpy.linalg"
    metrics = bench_trace.layer_metrics(rec, [root], [root.duration])
    assert metrics["analysis.svd_calls"] == 24
    assert set(metrics) == set(bench_trace.PER_LAYER)
