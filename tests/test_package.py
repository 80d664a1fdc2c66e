"""Package-level checks that span every module."""

import ast
import importlib
import pkgutil
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
