"""Benchmark E-ENGINE -- evaluation-engine throughput.

Not a paper figure: this benchmark guards the scaling work.  It measures

* ``evaluate_batch`` throughput (designs/sec) on the two-stage op-amp under
  each execution backend, and
* the AC-analysis speedup from the vectorized stacked-frequency solve over
  the per-frequency reference loop,

and emits one machine-readable ``BENCH_ENGINE_THROUGHPUT {json}`` line so CI
can track regressions, next to the usual human-readable table.
"""

from __future__ import annotations

import time

import numpy as np

from repro.circuits import TwoStageOpAmp
from repro.engine import EvaluationEngine, resolve_backend
from repro.spice import ac_analysis, dc_operating_point
from repro.spice.ac import _ac_analysis_per_frequency

from conftest import budget, record_bench, record_report

BACKENDS = ("serial", "process")


def _measure_backend(backend_name: str, x: np.ndarray) -> dict[str, float]:
    problem = TwoStageOpAmp("180nm")
    engine = EvaluationEngine(problem, backend=resolve_backend(backend_name),
                              cache=False)
    try:
        # Warm the pool outside the timed region (a 2-row batch: single-row
        # batches bypass the pool entirely and would not create it).
        engine.evaluate_batch(x[:2])
        start = time.perf_counter()
        results = engine.evaluate_batch(x)
        elapsed = time.perf_counter() - start
    finally:
        engine.close()
    objectives = [r.objective for r in results]
    return {"seconds": elapsed, "designs_per_sec": len(results) / elapsed,
            "objectives": objectives}


def _measure_ac_speedup(problem: TwoStageOpAmp, x: np.ndarray,
                        repeats: int) -> dict[str, float]:
    """Vectorized vs per-frequency AC wall-clock on one converged design."""
    for row in x:
        circuit = problem.build_circuit(problem.design_space.as_dict(row))
        op = dc_operating_point(circuit)
        if op.converged:
            break
    else:  # pragma: no cover - the fixed seed always converges somewhere
        raise RuntimeError("no converged design in the benchmark batch")
    frequencies = problem.ac_frequencies
    sweeps = {
        "vectorized": lambda: ac_analysis(circuit, op, frequencies,
                                          observe=["out"]),
        "per_frequency": lambda: _ac_analysis_per_frequency(
            circuit, op, frequencies, ["out"]),
    }
    timings = {}
    for method, sweep in sweeps.items():
        start = time.perf_counter()
        for _ in range(repeats):
            sweep()
        timings[method] = (time.perf_counter() - start) / repeats
    return {"vectorized_sec": timings["vectorized"],
            "per_frequency_sec": timings["per_frequency"],
            "speedup": timings["per_frequency"] / timings["vectorized"]}


def test_engine_throughput(benchmark):
    problem = TwoStageOpAmp("180nm")
    n_designs = budget(8, 32)
    x = problem.design_space.sample(n_designs, rng=np.random.default_rng(2024))

    results = {name: benchmark.pedantic(_measure_backend, args=(name, x),
                                        rounds=1, iterations=1) if name == "serial"
               else _measure_backend(name, x)
               for name in BACKENDS}
    ac = _measure_ac_speedup(problem, x, repeats=budget(10, 50))

    # All backends must agree on the numbers they produced.
    reference = results["serial"]["objectives"]
    for name in BACKENDS:
        np.testing.assert_allclose(results[name]["objectives"], reference,
                                   rtol=1e-12, atol=1e-12)
    # The stacked solve must actually beat the per-frequency loop (it is
    # ~13x here); dropping below 1x means the vectorization regressed.
    assert ac["speedup"] > 1.0

    record = {
        "benchmark": "engine_throughput",
        "n_designs": n_designs,
        "backends": {name: {"seconds": round(results[name]["seconds"], 4),
                            "designs_per_sec": round(results[name]["designs_per_sec"], 2)}
                     for name in BACKENDS},
        "ac_vectorization": {key: round(value, 6) for key, value in ac.items()},
    }
    record_bench("BENCH_ENGINE_THROUGHPUT", record)

    lines = ["Engine throughput (two-stage op-amp, "
             f"{n_designs}-design batch):"]
    for name in BACKENDS:
        lines.append(f"  {name:<8} {results[name]['designs_per_sec']:8.2f} designs/sec"
                     f"  ({results[name]['seconds']:.3f} s)")
    lines.append(f"  AC vectorization speedup: {ac['speedup']:.1f}x "
                 f"({ac['per_frequency_sec'] * 1e3:.2f} ms -> "
                 f"{ac['vectorized_sec'] * 1e3:.2f} ms per sweep)")
    record_report("\n".join(lines))
