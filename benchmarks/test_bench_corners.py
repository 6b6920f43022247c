"""Benchmark B-CORNERS -- testbench OP reuse and PVT corner fan-out.

Not a paper figure: this benchmark guards the declarative testbench layer.
It measures

* the bench simulator's wall time on a multi-analysis bench whose
  analyses share one operating point (one Newton solve per design),
* nominal-vs-five-corner wall time for the ``two_stage_opamp_corners``
  robust-sizing problem (serial fan-out), and

emits one machine-readable ``BENCH_CORNERS {json}`` line so CI can track
regressions, next to the usual human-readable table.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import ACSpec, OPSpec, Simulator, Testbench, gain_db
from repro.circuits import make_problem

from conftest import budget, record_bench, record_report

GOOD_TWO_STAGE = dict(w_diff=20e-6, l_diff=0.5e-6, w_load=10e-6, l_load=0.5e-6,
                      w_out=60e-6, l_out=0.3e-6, c_comp=2e-12, r_zero=2e3,
                      i_bias1=20e-6, i_bias2=100e-6)


def _multi_analysis_bench(problem) -> Testbench:
    """Three AC sweeps around one bias: the OP-reuse showcase."""
    frequencies = problem.ac_frequencies
    return Testbench(
        name="reuse_bench",
        builders={"main": problem.build_circuit},
        analyses=[
            OPSpec("op"),
            ACSpec("ac1", frequencies=frequencies, observe=("out",), op="op"),
            ACSpec("ac2", frequencies=frequencies, observe=("out",), op="op"),
            ACSpec("ac3", frequencies=frequencies, observe=("out",), op="op"),
        ],
        measures=[gain_db("ac1", "out", name="gain")])


def _time_simulations(fn, designs) -> float:
    start = time.perf_counter()
    for design in designs:
        fn(design)
    return time.perf_counter() - start


def test_bench_corners():
    n_designs = budget(quick=8, paper=64)
    problem = make_problem("two_stage_opamp")
    rng = np.random.default_rng(11)
    rows = problem.design_space.sample(n_designs, rng)
    designs = [problem.design_space.as_dict(row) for row in rows]

    # -- one shared bias on a multi-analysis bench ----------------------- #
    bench = _multi_analysis_bench(problem)
    shared_sim = Simulator()
    shared_s = _time_simulations(lambda d: shared_sim.run(bench, d), designs)
    check = shared_sim.run(bench, GOOD_TWO_STAGE)
    assert check.ok and check.stats["n_op_solves"] == 1

    # -- nominal vs five-corner wall time -------------------------------- #
    nominal_s = _time_simulations(problem.simulate, designs)
    with make_problem("two_stage_opamp_corners") as corner_problem:
        corner_problem.simulate(designs[0])  # warm up untimed
        corners_s = _time_simulations(corner_problem.simulate, designs)
        n_corners = len(corner_problem.corners)
    per_corner_overhead = corners_s / (nominal_s * n_corners)

    record = {
        "n_designs": n_designs,
        "n_corners": n_corners,
        "bench_shared_s": round(shared_s, 4),
        "nominal_s": round(nominal_s, 4),
        "corners_serial_s": round(corners_s, 4),
        "corner_overhead_vs_ideal": round(per_corner_overhead, 3),
    }
    record_bench("BENCH_CORNERS", record)
    record_report(
        f"Testbench corners ({n_designs} designs): 4-analysis shared-bias "
        f"bench {shared_s:.2f}s; 5-corner sweep "
        f"{corners_s:.2f}s serial vs {nominal_s:.2f}s nominal "
        f"({per_corner_overhead:.2f}x the ideal {n_corners}x cost)")

    # Guard rail, generous for CI noise: the five-corner sweep must stay
    # within a sane multiple of nominal.
    assert corners_s < nominal_s * n_corners * 3.0
