"""Package-level checks that span every module."""

import importlib
import pkgutil

import pytest

import ofonet

MODULES = ["ofonet"] + [f"ofonet.{info.name}" for info in pkgutil.iter_modules(ofonet.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a deleted name must not linger in an export list
    module = importlib.import_module(name)
    assert [key for key in module.__all__ if not hasattr(module, key)] == []
