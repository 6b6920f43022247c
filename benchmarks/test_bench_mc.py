"""Benchmark B-MC -- Monte Carlo mismatch throughput and accuracy.

Not a paper figure: this benchmark guards the Monte Carlo yield subsystem.
It measures

* fixed-budget MC throughput (samples/second) of the two-stage op-amp
  mismatch bench on the serial and process backends -- and checks
  that the estimates stay bit-identical while the wall clock drops,
* the adaptive-stopping economics: samples spent on a deeply feasible
  design vs a marginal one at the same CI target, and
* estimator accuracy: the 256-sample Wilson interval must cover a
  high-resolution (1024-sample) reference estimate of the marginal design,

and emits one machine-readable ``BENCH_MC {json}`` line so CI can track
regressions, next to the usual human-readable summary.

The >= 3x process-vs-serial throughput expectation only applies on hosts
with at least four physical cores; below that the ratio is recorded but not
asserted.
"""

from __future__ import annotations

import os
import time

from repro.circuits import make_problem

from conftest import budget, record_bench, record_report

GOOD_TWO_STAGE = dict(w_diff=20e-6, l_diff=0.5e-6, w_load=10e-6, l_load=0.5e-6,
                      w_out=60e-6, l_out=0.3e-6, c_comp=2e-12, r_zero=2e3,
                      i_bias1=20e-6, i_bias2=100e-6)

#: Mean gain sits on the 60 dB spec, so the mismatch yield is ~0.5 (see
#: tests/test_mc.py) -- the worst case for both sampling cost and the
#: accuracy comparison.
MARGINAL_TWO_STAGE = dict(w_diff=2.0e-6, l_diff=0.18e-6, w_load=2.0e-6,
                          l_load=0.18e-6, w_out=20e-6, l_out=0.18e-6,
                          c_comp=0.8e-12, r_zero=3e3,
                          i_bias1=52e-6, i_bias2=150e-6)


def _mc_problem(n_samples: int, backend: str, adaptive: bool = False,
                **overrides):
    mc = {"n_max": n_samples, "n_min": min(32, n_samples),
          "batch_size": min(64, n_samples), "seed": 11,
          "ci_half_width": 0.05 if adaptive else None}
    mc.update(overrides)
    return make_problem("two_stage_opamp_yield", mc=mc, backend=backend,
                        max_workers=4)


def test_bench_mc():
    n_samples = budget(quick=256, paper=1024)

    # -- fixed-budget throughput per backend, bit-identity enforced ------ #
    seconds, estimates = {}, {}
    for backend in ("serial", "process"):
        with _mc_problem(n_samples, backend) as problem:
            if backend == "process":
                problem.simulate(GOOD_TWO_STAGE)  # warm the pool untimed
            start = time.perf_counter()
            estimates[backend] = problem.simulate(MARGINAL_TWO_STAGE)
            seconds[backend] = time.perf_counter() - start
    assert estimates["process"] == estimates["serial"]
    yield_estimate = estimates["serial"]["yield"]
    process_speedup = seconds["serial"] / seconds["process"]

    # -- adaptive stopping: cheap vs marginal design --------------------- #
    with _mc_problem(n_samples, "serial", adaptive=True) as problem:
        easy_n = problem.simulate(GOOD_TWO_STAGE)["mc_samples"]
        marginal_n = problem.simulate(MARGINAL_TWO_STAGE)["mc_samples"]

    # -- accuracy: the budget estimate must cover a high-res reference --- #
    # (Bit-identical on every backend; batched is simply the fastest.)
    with _mc_problem(4 * n_samples, "batched") as problem:
        reference = problem.simulate(MARGINAL_TWO_STAGE)

    record = {
        "n_samples": n_samples,
        "yield": round(yield_estimate, 4),
        "ci_low": round(estimates["serial"]["yield_ci_low"], 4),
        "ci_high": round(estimates["serial"]["yield_ci_high"], 4),
        "reference_yield": round(reference["yield"], 4),
        "serial_s": round(seconds["serial"], 4),
        "process_s": round(seconds["process"], 4),
        "serial_samples_per_s": round(n_samples / seconds["serial"], 1),
        "process_samples_per_s": round(n_samples / seconds["process"], 1),
        "process_speedup": round(process_speedup, 3),
        "adaptive_easy_samples": easy_n,
        "adaptive_marginal_samples": marginal_n,
        "cpu_count": os.cpu_count(),
    }
    record_bench("BENCH_MC", record)
    record_report(
        f"Monte Carlo mismatch ({n_samples} samples): yield "
        f"{yield_estimate:.3f} [{record['ci_low']:.3f}, {record['ci_high']:.3f}] "
        f"(reference {reference['yield']:.3f}); "
        f"{record['serial_samples_per_s']:.0f} samples/s serial, "
        f"{record['process_samples_per_s']:.0f} samples/s process "
        f"({process_speedup:.2f}x on {os.cpu_count()} cores); adaptive "
        f"stopping spent {easy_n:.0f} samples on the easy design vs "
        f"{marginal_n:.0f} on the marginal one")

    # Guard rails.  Accuracy: the budget interval must cover the high-res
    # reference estimate.  Economics: adaptive stopping must spend well
    # under half the marginal design's budget on the easy one.
    assert (estimates["serial"]["yield_ci_low"] <= reference["yield"]
            <= estimates["serial"]["yield_ci_high"])
    assert easy_n <= 0.5 * marginal_n
    # Throughput: process fan-out must deliver >= 3x with its 4 workers
    # when the host has comfortable parallel headroom (>= 8 logical CPUs).
    # On exactly-4-vCPU hosts -- e.g. shared CI runners, where 3x of the
    # ideal 4x leaves no room for pickling overhead plus noisy neighbours,
    # and logical CPUs may be 2 physical cores -- only a softer bar is
    # asserted; the record still carries the exact ratio for tracking.
    cpus = os.cpu_count() or 1
    if cpus >= 8:
        assert process_speedup >= 3.0
    elif cpus >= 4:
        assert process_speedup >= 2.0
    else:
        assert process_speedup > 0.2
