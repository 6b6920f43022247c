"""Import hygiene: every exported name resolves, and light imports stay light."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))
PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = set(getattr(module, "__all__", ())) | set(getattr(module, "_LAZY_ATTRS", {}))
    missing = sorted(name for name in exported if not hasattr(module, name))
    assert not missing, f"{package} exports names it cannot resolve: {missing}"


def test_engine_import_leaves_scipy_optimize_unloaded():
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import sys, repro.engine; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
