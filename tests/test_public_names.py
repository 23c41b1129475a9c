"""Every exported name and every traced layer boundary resolves; no import is unused."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
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


def test_import_brings_in_numpy_and_mpmath_and_nothing_else():
    # In a fresh interpreter, the packages outside the standard library that
    # importing rmtorus and its CLI adds are rmtorus, numpy and mpmath.
    code = (
        "import sys; before = set(sys.modules); import rmtorus, rmtorus.cli; "
        "added = {name.split('.')[0] for name in set(sys.modules) - before}; "
        "print(' '.join(sorted(added - sys.stdlib_module_names)))"
    )
    src = str(Path(rmtorus.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["mpmath", "numpy", "rmtorus"]


def test_tracer_boundaries_resolve():
    for module_name, function in _boundaries():
        module = importlib.import_module(f"rmtorus.{module_name}")
        assert callable(getattr(module, function, None)), f"{module_name}.{function}"


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_import_check_sees_plain_from_and_aliased_imports():
    source = "import os, numpy as np\nfrom json import dumps, loads\n__all__ = ['loads']\nnp.pi\n"
    assert _unused_imports(source) == ["dumps", "os"]


@pytest.mark.parametrize("name", ["__init__", *SUBMODULES])
def test_every_import_is_used(name):
    path = Path(rmtorus.__file__).resolve().parent / f"{name}.py"
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
