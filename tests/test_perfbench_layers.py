"""perfbench's layer tracer must find every entry point it wraps.

``perfbench/layers.py`` looks the traced functions up by module and name.
Renaming or moving one would silently drop its layer from the benchmark's
traced run, so these tests resolve every target here, and check that the
serial and batched simulators report their solves under the right layers.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.bench import BatchSimulator, Simulator
from repro.circuits import make_problem

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

GOOD_TWO_STAGE = dict(w_diff=20e-6, l_diff=0.5e-6, w_load=10e-6,
                      l_load=0.5e-6, w_out=60e-6, l_out=0.3e-6,
                      c_comp=2e-12, r_zero=2e3, i_bias1=20e-6,
                      i_bias2=100e-6)


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_target(layers):
    with layers.Tracer() as tracer:
        assert tracer.missing == []


def _calls(layers, run) -> dict:
    with layers.Tracer() as tracer:
        run()
    return tracer.self_times()[2]


def test_serial_simulator_records_only_serial_layers(layers):
    problem = make_problem("two_stage_opamp")
    calls = _calls(layers, lambda: Simulator().run(problem.bench,
                                                   GOOD_TWO_STAGE))
    assert calls.get("bench.run") == 1
    assert calls.get("spice.dc", 0) >= 1
    assert calls.get("spice.ac", 0) >= 1
    for layer in ("bench.batch_run", "spice.dc_batch", "spice.ac_batch",
                  "spice.tran_batch"):
        assert layer not in calls, layer


def test_batch_simulator_records_only_batched_layers(layers):
    problem = make_problem("two_stage_opamp")
    jobs = [(problem.bench, GOOD_TWO_STAGE)] * 2
    calls = _calls(layers, lambda: BatchSimulator().run(jobs))
    assert calls.get("bench.batch_run") == 1
    assert calls.get("spice.dc_batch", 0) >= 1
    assert calls.get("spice.ac_batch", 0) >= 1
    for layer in ("bench.run", "spice.dc", "spice.ac"):
        assert layer not in calls, layer
