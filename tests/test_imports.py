"""Import hygiene: every exported name resolves, and light imports stay light.

The layering rule: the simulation stack never imports the optimizer stack.
"""

import importlib
import json
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


#: The simulation stack: what Monte Carlo jobs, corner sweeps, queue
#: workers and engine children import.
SIMULATION_ENTRY_POINTS = ["repro.spice", "repro.bench", "repro.engine",
                           "repro.circuits", "repro.mc", "repro.service.worker"]

#: The optimizer stack, which no simulation-only process may load.
OPTIMIZER_STACK = ["repro.bo.base", "repro.gp", "repro.autodiff", "repro.nn",
                   "repro.kernels", "repro.optim", "repro.acquisition",
                   "repro.moo", "repro.surrogates", "repro.core",
                   "repro.study.study", "scipy.linalg", "scipy.optimize"]


def _fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter and return its standard output.

    In-process checks cannot see import-order effects: by the time they run,
    the test session has imported nearly every module.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("entry_point", SIMULATION_ENTRY_POINTS)
def test_simulation_stack_leaves_optimizer_stack_unloaded(entry_point):
    code = (f"import json, sys, {entry_point}\n"
            f"print(json.dumps([m for m in {OPTIMIZER_STACK!r} "
            "if m in sys.modules]))")
    assert json.loads(_fresh_python(code)) == []


def test_registry_is_complete_in_a_fresh_interpreter():
    # repro.bo is a lazy package, so the registry must import the modules
    # that register, not the package.
    code = ("import json\n"
            "from repro.study import available_optimizers, optimizer_aliases\n"
            "print(json.dumps([available_optimizers(), optimizer_aliases()]))")
    names, aliases = json.loads(_fresh_python(code))
    assert names == ["kato", "kato_tl", "mace", "mace_modified", "mesmoc",
                     "random_search", "smac_rf", "tlmbo", "usemoc"]
    assert aliases == {"modified_mace": "mace_modified", "random": "random_search",
                       "rs": "random_search", "smac": "smac_rf"}
