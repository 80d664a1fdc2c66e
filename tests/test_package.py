"""Package-level checks that span every module."""

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ofonet

MODULES = ["ofonet"] + [f"ofonet.{info.name}" for info in pkgutil.iter_modules(ofonet.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a deleted name must not linger in an export list
    module = importlib.import_module(name)
    assert [key for key in module.__all__ if not hasattr(module, key)] == []


# Output records that check nothing but their immutability: each invariant
# they hold is made by their one builder, so a second builder must bring
# its own checks.
RECORDS = ("Trajectory", "EquilibriumSolution", "MonotonicityConstants", "LtiRateCertificate")


def test_each_output_record_has_one_builder():
    sites = {name: [] for name in RECORDS}
    for path in sorted(Path(ofonet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in sites:
                    sites[name].append(f"{path.name}:{node.lineno}")
    assert {name: len(found) for name, found in sites.items()} == dict.fromkeys(RECORDS, 1), sites


def test_import_loads_no_hash_module():
    # the CSV's temporary name comes from os.urandom: secrets would load
    # hmac and hashlib on every start
    names = "{'secrets', 'hmac', 'hashlib'}"
    code = f"import sys, ofonet.cli; print(sorted({names} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_import_builds_no_power_table_and_loads_no_exact_arithmetic():
    # the CSV formatter builds its table of powers of ten on first use, from
    # integer arithmetic: fractions and decimal would cost every start
    code = (
        "import sys, ofonet.cli, ofonet.sim as sim; "
        "print(sim._POW10, sorted({'fractions', 'decimal'} & set(sys.modules))); "
        "sim._pow10(); print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "None []\n[]\n"


def test_import_looks_up_no_blas_library():
    # the first command looks up numpy's OpenBLAS, so importing costs no start-up
    code = "import ofonet.cli as cli; print(cli._openblas.cache_info().misses)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "0\n"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    # the documented calls, run as written: the second block streams the
    # first one's loop into traj.csv
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    rows = (tmp_path / "traj.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0].startswith("k,u_1,u_2,y_1,y_2,x_1,x_2,rel_err_u")
    assert len(rows) == namespace["traj"].kept + 1
