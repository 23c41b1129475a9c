"""Every exported name and every traced layer boundary resolves."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import rmtorus

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(rmtorus.__path__))


def _boundaries():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_rmtorus_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BOUNDARIES


def test_package_exports_resolve():
    missing = [name for name in rmtorus.__all__ if not hasattr(rmtorus, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    # importlib, since the package attribute ``theta`` is the function
    module = importlib.import_module(f"rmtorus.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_tracer_boundaries_resolve():
    for module_name, function in _boundaries():
        module = importlib.import_module(f"rmtorus.{module_name}")
        assert callable(getattr(module, function, None)), f"{module_name}.{function}"
