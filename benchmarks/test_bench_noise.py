"""Benchmark B-NOISE -- adjoint noise analysis and the new circuit families.

Not a paper figure: this benchmark guards the noise subsystem.  It measures

* the stacked-adjoint speedup: ``noise_analysis`` (one ``(F, N, N)``
  transposed solve) against the same analysis through the per-frequency
  fallback loop on a registry op-amp bias, at the bench's default grid
  density, and
* the end-to-end evaluation cost of the scenario-expansion circuit
  families (``ldo``, ``comparator``, ``ring_vco``) whose benches exercise
  noise, transient and mixed analyses,

and emits one machine-readable ``BENCH_NOISE {json}`` line so CI can track
regressions, next to the usual human-readable table.
"""

from __future__ import annotations

import time

import numpy as np

from repro.circuits import make_problem
from repro.spice import dc_operating_point, noise_analysis
from repro.spice.noise import (
    _adjoint_per_frequency,
    _assemble_result,
    _gather_sources,
)

from conftest import budget, record_bench, record_report

GOOD_TWO_STAGE = dict(w_diff=20e-6, l_diff=0.5e-6, w_load=10e-6, l_load=0.5e-6,
                      w_out=60e-6, l_out=0.3e-6, c_comp=2e-12, r_zero=2e3,
                      i_bias1=20e-6, i_bias2=100e-6)
GOOD_LDO = dict(w_pass=100e-6, l_pass=0.5e-6, gm_ea=3e-3, r_ea=3e5,
                c_ea=5e-12, r_fb=2e4)
GOOD_COMPARATOR = dict(w_in=10e-6, l_in=0.18e-6, w_latch_n=4e-6,
                       w_latch_p=8e-6, w_tail=10e-6)
GOOD_RING = dict(w_n=5e-6, w_p=10e-6, l_gate=0.18e-6, c_stage=1e-12)


def _per_frequency_noise(circuit, op, frequencies, output="out"):
    """``noise_analysis`` through the per-frequency fallback loop."""
    adjoints, rhs = _adjoint_per_frequency(circuit, op, frequencies,
                                           circuit.node_index(output))
    return _assemble_result(frequencies, output, _gather_sources(circuit, op),
                            adjoints, rhs)


def _median_seconds(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def test_bench_noise():
    repeats = budget(quick=3, paper=9)

    # -- adjoint sweep: stacked solve vs per-frequency reference --------- #
    problem = make_problem("two_stage_opamp")
    circuit = problem.build_circuit(GOOD_TWO_STAGE)
    op = dc_operating_point(circuit)
    assert op.converged
    frequencies = np.logspace(0, 9, 181)  # 20 points/decade
    vectorized = noise_analysis(circuit, op, frequencies, output="out")
    reference = _per_frequency_noise(circuit, op, frequencies)
    np.testing.assert_allclose(vectorized.output_psd, reference.output_psd,
                               rtol=1e-9)
    fast_s = _median_seconds(
        lambda: noise_analysis(circuit, op, frequencies, output="out"),
        repeats)
    slow_s = _median_seconds(
        lambda: _per_frequency_noise(circuit, op, frequencies), repeats)
    adjoint_speedup = slow_s / fast_s if fast_s > 0 else float("inf")

    # -- per-family evaluation cost -------------------------------------- #
    families = {
        "ldo": (make_problem("ldo"), GOOD_LDO),
        "comparator": (make_problem("comparator"), GOOD_COMPARATOR),
        "ring_vco": (make_problem("ring_vco", t_stop=100e-9), GOOD_RING),
    }
    family_seconds = {}
    family_ok = {}
    for name, (family_problem, design) in families.items():
        metrics, ok = family_problem.simulate_checked(design)
        family_ok[name] = bool(ok)
        family_seconds[name] = _median_seconds(
            lambda p=family_problem, d=design: p.simulate(d),
            max(1, repeats - 1))
    assert all(family_ok.values()), family_ok

    lines = [
        "B-NOISE: adjoint noise sweep and family evaluation cost",
        f"  {frequencies.size}-pt sweep, {circuit.n_nodes} nodes: "
        f"vectorized {fast_s * 1e3:8.2f} ms | per-frequency "
        f"{slow_s * 1e3:8.2f} ms | speedup {adjoint_speedup:5.2f}x",
    ]
    for name, seconds in family_seconds.items():
        lines.append(f"  {name:<12} evaluation {seconds * 1e3:8.1f} ms")
    record_report("\n".join(lines))

    record_bench("BENCH_NOISE", {
        "n_frequencies": int(frequencies.size),
        "n_nodes": int(circuit.n_nodes),
        "vectorized_ms": round(fast_s * 1e3, 3),
        "per_frequency_ms": round(slow_s * 1e3, 3),
        "adjoint_speedup": round(adjoint_speedup, 3),
        "family_eval_ms": {name: round(seconds * 1e3, 1)
                           for name, seconds in family_seconds.items()},
    })

    # The stacked solve must never lose to the reference loop.
    assert adjoint_speedup > 1.0
