"""Start-up cost of the package's entry points (BENCH_IMPORTS).

Simulation-only processes -- Monte Carlo jobs, corner sweeps, queue workers
and engine children -- import the simulation stack and nothing of the
optimizer stack (see ``tests/test_imports.py``, which pins the same
boundary).  This benchmark measures what each entry point costs a fresh
interpreter: the fastest import over ``REPEATS`` interpreters, the peak RSS
after the import and the number of loaded modules.  It asserts the
boundary, not a time floor: import times swing too much between hosts.

Emits one BENCH_IMPORTS record::

    BENCH_IMPORTS {"entry_points": {"repro.engine": {"import_s": 0.12,
                   "maxrss_mb": 36.0, "n_modules": 288}, ...}, "repeats": 5}
"""

import json
import os
import subprocess
import sys

from conftest import record_bench, record_report

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))
REPEATS = 5

SIMULATION_ENTRY_POINTS = ("repro.spice", "repro.bench", "repro.engine",
                           "repro.circuits", "repro.mc", "repro.service.worker")
#: Measured for comparison: the study driver loads the optimizer stack.
ENTRY_POINTS = SIMULATION_ENTRY_POINTS + ("repro.study.study",)

OPTIMIZER_STACK = ("repro.bo.base", "repro.gp", "repro.autodiff", "repro.nn",
                   "repro.kernels", "repro.optim", "repro.acquisition",
                   "repro.moo", "repro.surrogates", "repro.core",
                   "repro.study.study", "scipy.linalg", "scipy.optimize")

_PROBE = """
import importlib, json, resource, sys, time
start = time.perf_counter()
importlib.import_module({module!r})
elapsed = time.perf_counter() - start
print(json.dumps({{
    "import_s": elapsed,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "n_modules": len(sys.modules),
    "loaded": [m for m in {stack!r} if m in sys.modules]}}))
"""


def _probe(module: str) -> dict:
    """Import ``module`` in a fresh interpreter with BLAS pinned."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(module=module, stack=OPTIMIZER_STACK)],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def test_bench_imports():
    rows = {}
    for module in ENTRY_POINTS:
        runs = [_probe(module) for _ in range(REPEATS)]
        if module in SIMULATION_ENTRY_POINTS:
            assert runs[0]["loaded"] == [], (
                f"{module} loads the optimizer stack: {runs[0]['loaded']}")
        rows[module] = {
            "import_s": round(min(run["import_s"] for run in runs), 4),
            "maxrss_mb": round(max(run["maxrss_mb"] for run in runs), 1),
            "n_modules": runs[0]["n_modules"],
        }

    record_bench("BENCH_IMPORTS", {"entry_points": rows, "repeats": REPEATS})
    lines = ["entry-point start-up (fresh interpreter, fastest of "
             f"{REPEATS})",
             "entry point          | import s | maxrss MB | modules"]
    for module, row in rows.items():
        lines.append(f"{module:<20} | {row['import_s']:>8} | "
                     f"{row['maxrss_mb']:>9} | {row['n_modules']:>7}")
    record_report("\n".join(lines))
