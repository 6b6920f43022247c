"""Batched-tensor simulation core throughput (BENCH_BATCHED[_TRAN]).

Measures the stacked DC Newton and batched transient solves against their
serial per-design counterparts at batch sizes 1, 8 and 64 on
the two-stage opamp (a Monte Carlo style workload: mismatch variations of
one good design).  Bit-identity of every batched result against its
serial twin is asserted inline -- a throughput number for a solver that
drifts would be meaningless.

Emits one BENCH_BATCHED JSON record::

    BENCH_BATCHED {"dc": {"1": {...}, "8": {...}, "64": {...}},
                   "speedup_dc_b64": 6.9, ...}

plus one BENCH_BATCHED_TRAN record for the transient workloads::

    BENCH_BATCHED_TRAN {"tran": {"1": {...}, "8": {...}, "64": {...}},
                        "speedup_tran_b64": 3.9,
                        "settling": {"64": {...}}, "ring_vco": {"8": {...}},
                        ...}

``tran`` runs the two-stage opamp's "main" netlist for 400 ns; many of its
mismatch samples fail the initial-condition DC, so it mostly times the
batched DC solve.  ``settling`` is the follower step bench of
``two_stage_opamp_settling`` over its full window at B=64 (the transient
half of a settling-problem Monte Carlo), where the batched step controller
does the work.  ``ring_vco`` is a low-occupancy batch: 8 ring oscillators
whose step counts differ by an order of magnitude, so most Newton passes
advance few designs.  It has no floor: batched may lose there.

The nightly lane tracks ``speedup_dc_b64`` (acceptance floor: >= 4x single
core at B=64) and ``speedup_tran_b64`` (floor: >= 2x at B=64 -- the
transient batch carries per-design controller work the DC batch does not).
Batched AC is a per-design loop of the serial sweep, so it has no record.
"""

import time

import numpy as np
import pytest
from conftest import budget, record_bench, record_report

from repro.circuits import make_problem
from repro.errors import ConvergenceError
from repro.mc.samplers import make_sampler
from repro.spice import (
    dc_operating_point,
    dc_operating_point_batch,
    transient_analysis,
    transient_analysis_batch,
)

GOOD_DESIGN = dict(w_diff=20e-6, l_diff=0.5e-6, w_load=10e-6, l_load=0.5e-6,
                   w_out=60e-6, l_out=0.3e-6, c_comp=2e-12, r_zero=2e3,
                   i_bias1=20e-6, i_bias2=100e-6)

#: The ring oscillator row: a working design plus seven design-space
#: samples.  Over 5 ns they take 70 to 700 accepted steps each, so the
#: batch empties unevenly, as it does over longer windows.
GOOD_RING = dict(w_n=5e-6, w_p=10e-6, l_gate=0.18e-6, c_stage=1e-12)
RING_T_STOP = 5e-9

#: timing repeats (best-of): quick for PR smoke, paper for the nightly lane
REPEATS = budget(quick=2, paper=5)
BATCH_SIZES = (1, 8, 64)


def _best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _serial_transients(circuits, t_stop, **kwargs) -> list:
    """One :func:`transient_analysis` per circuit; a failure is kept."""
    results = []
    for circuit in circuits:
        try:
            results.append(transient_analysis(circuit, t_stop, **kwargs))
        except ConvergenceError as exc:
            results.append(exc)
    return results


def _assert_tran_identical(serial_results, batched_results) -> None:
    assert len(serial_results) == len(batched_results)
    for res_serial, res_batched in zip(serial_results, batched_results):
        if isinstance(res_serial, Exception):
            assert type(res_batched) is type(res_serial)
            assert str(res_batched) == str(res_serial)
            continue
        assert np.array_equal(res_serial.times, res_batched.times)
        assert res_serial.node_voltages.keys() == res_batched.node_voltages.keys()
        for node, wave in res_serial.node_voltages.items():
            assert np.array_equal(wave, res_batched.node_voltages[node])
        assert res_serial.n_accepted == res_batched.n_accepted
        assert res_serial.n_rejected == res_batched.n_rejected
        assert res_serial.n_newton_iterations == res_batched.n_newton_iterations


def _timed_transient_row(circuits, t_stop, **kwargs) -> dict:
    """Best-of-``REPEATS`` serial loop vs one batched run over ``circuits()``.

    Netlists are built outside the timed region.  The first repeat's serial
    and batched outcomes are compared for bit-identity.
    """
    t_serial, t_batched = [], []
    for repeat in range(REPEATS):
        serial_circuits, batched_circuits = circuits(), circuits()
        start = time.perf_counter()
        serial = _serial_transients(serial_circuits, t_stop, **kwargs)
        t_serial.append(time.perf_counter() - start)
        start = time.perf_counter()
        batched = transient_analysis_batch(batched_circuits, t_stop,
                                           return_errors=True, **kwargs)
        t_batched.append(time.perf_counter() - start)
        if repeat == 0:
            _assert_tran_identical(serial, batched)
    steps = [r.n_accepted for r in serial if not isinstance(r, Exception)]
    return {"serial_s": round(min(t_serial), 4),
            "batched_s": round(min(t_batched), 4),
            "speedup": round(min(t_serial) / min(t_batched), 2),
            "designs_per_s": round(len(serial) / min(t_batched), 1),
            "n_failed": len(serial) - len(steps),
            "accepted_steps_min_max": [min(steps, default=0),
                                       max(steps, default=0)]}


def _mc_problems(count: int, name: str = "two_stage_opamp"):
    """``count`` mismatch variations of problem ``name``."""
    problem = make_problem(name)
    sampler = make_sampler("normal", problem.mismatch_device_names(),
                           seed=7, n_max=count)
    return problem, [problem.with_variation(sample)
                     for sample in sampler.take(0, count)]


@pytest.mark.slow
def test_batched_throughput(benchmark):
    _, varied = _mc_problems(max(BATCH_SIZES))
    builder_key = "main"

    def circuits(count):
        return [p.bench.builders[builder_key](GOOD_DESIGN)
                for p in varied[:count]]

    record: dict = {"workload": "two_stage_opamp mismatch MC",
                    "repeats": REPEATS, "dc": {}}

    # -- DC: serial loop vs stacked Newton, with inline bit-identity ----- #
    serial_ops = [dc_operating_point(c) for c in circuits(max(BATCH_SIZES))]
    batched_ops = dc_operating_point_batch(circuits(max(BATCH_SIZES)))
    for op_serial, op_batched in zip(serial_ops, batched_ops):
        assert op_serial.converged == op_batched.converged
        assert op_serial.iterations == op_batched.iterations
        assert np.array_equal(op_serial.voltages, op_batched.voltages,
                              equal_nan=True)

    for size in BATCH_SIZES:
        t_serial = _best_of(
            lambda size=size: [dc_operating_point(c) for c in circuits(size)],
            REPEATS)
        t_batched = _best_of(
            lambda size=size: dc_operating_point_batch(circuits(size)),
            REPEATS)
        record["dc"][str(size)] = {
            "serial_s": round(t_serial, 4),
            "batched_s": round(t_batched, 4),
            "speedup": round(t_serial / t_batched, 2),
            "designs_per_s": round(size / t_batched, 1),
        }

    speedup_b64 = record["dc"]["64"]["speedup"]
    record["speedup_dc_b64"] = speedup_b64
    # Acceptance floor with headroom below the ~7x measured on an idle
    # core: a shared CI box must still clear it comfortably.
    assert speedup_b64 >= 4.0, (
        f"batched DC at B=64 regressed to {speedup_b64}x (< 4x floor)")

    record_bench("BENCH_BATCHED", record)
    lines = ["batched-core throughput (serial time / batched time)",
             "analysis | batch size | speedup"]
    for size, row in sorted(record["dc"].items(), key=lambda kv: int(kv[0])):
        lines.append(f"      dc | {size:>10} | {row['speedup']:>6}x")
    record_report("\n".join(lines))

    benchmark.pedantic(lambda: dc_operating_point_batch(circuits(64)),
                       rounds=1, iterations=1)


@pytest.mark.slow
def test_batched_transient_throughput(benchmark):
    problem, varied = _mc_problems(max(BATCH_SIZES))
    t_stop = 4e-7  # enough of the settling window for ~100 steps per design

    def circuits(count):
        return [p.bench.builders["main"](GOOD_DESIGN)
                for p in varied[:count]]

    record: dict = {"workload": "two_stage_opamp settling mismatch MC",
                    "t_stop": t_stop, "repeats": REPEATS, "tran": {}}

    # -- inline bit-identity over the full batch before any timing ------- #
    _assert_tran_identical(
        _serial_transients(circuits(max(BATCH_SIZES)), t_stop, observe=["out"]),
        transient_analysis_batch(circuits(max(BATCH_SIZES)), t_stop,
                                 observe=["out"], return_errors=True))

    # -- serial per-design loop vs one batched run ----------------------- #
    for size in BATCH_SIZES:
        t_serial = _best_of(
            lambda size=size: _serial_transients(circuits(size), t_stop,
                                                 observe=["out"]),
            REPEATS)
        t_batched = _best_of(
            lambda size=size: transient_analysis_batch(
                circuits(size), t_stop, observe=["out"], return_errors=True),
            REPEATS)
        record["tran"][str(size)] = {
            "serial_s": round(t_serial, 4),
            "batched_s": round(t_batched, 4),
            "speedup": round(t_serial / t_batched, 2),
            "designs_per_s": round(size / t_batched, 1),
        }

    speedup_b64 = record["tran"]["64"]["speedup"]
    record["speedup_tran_b64"] = speedup_b64
    # Acceptance floor with headroom below the ~4x measured on an idle core.
    # The transient batch keeps the per-design adaptive controllers in
    # Python, so its ceiling sits below the DC batch's.
    assert speedup_b64 >= 2.0, (
        f"batched transient at B=64 regressed to {speedup_b64}x (< 2x floor)")

    # -- the follower step bench: the controller does the work ---------- #
    settling, varied = _mc_problems(64, "two_stage_opamp_settling")
    record["settling"] = {"64": _timed_transient_row(
        lambda: [p.bench.builders["main"](GOOD_DESIGN) for p in varied],
        settling.t_stop, observe=["out"], reltol=settling.transient_reltol,
        abstol=settling.transient_abstol,
        temperature=settling.sim_temperature)}

    # -- low occupancy: ring oscillators of very different step counts --- #
    ring = make_problem("ring_vco")
    rows = ring.design_space.sample(7, rng=np.random.default_rng(11))
    designs = [GOOD_RING] + [ring.design_space.as_dict(row) for row in rows]
    record["ring_vco"] = {str(len(designs)): _timed_transient_row(
        lambda: [ring.bench.builders["main"](d) for d in designs],
        RING_T_STOP, observe=["n1"])}

    record_bench("BENCH_BATCHED_TRAN", record)
    lines = ["batched transient throughput (serial time / batched time)",
             "analysis | batch size | speedup"]
    for key in ("tran", "settling", "ring_vco"):
        for size, row in sorted(record[key].items(), key=lambda kv: int(kv[0])):
            lines.append(f"{key:>8} | {size:>10} | {row['speedup']:>6}x")
    record_report("\n".join(lines))

    benchmark.pedantic(
        lambda: transient_analysis_batch(circuits(64), t_stop,
                                         observe=["out"], return_errors=True),
        rounds=1, iterations=1)
