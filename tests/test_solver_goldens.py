"""Recorded solver goldens: DC and transient counters pinned to fixed values.

The serial and batched entry points share one controller, so agreeing
with each other no longer says the controller itself is unchanged.  These
tests pin what it did when the goldens were recorded:

* ``dc_operating_point`` on 16 Sobol designs of ``two_stage_opamp``,
  ``three_stage_opamp`` and ``ldo`` at 180 nm, through every builder of the
  family's testbench -- Newton iterations (total and per gmin step), rescue
  entry and damping clamps exactly, node voltages to a tight tolerance;
* ``transient_analysis`` of a few ``two_stage_opamp_settling`` followers
  over a short window -- accepted/rejected steps and Newton iterations
  exactly, the output waveform to a tight tolerance.

Voltages are compared with a tolerance rather than as raw bits so a
different BLAS build cannot make the suite flaky; the counters are exact.
Regenerate the recording (only when a change moves solver output on
purpose) with ``PYTHONPATH=src python tests/test_solver_goldens.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import make_problem
from repro.errors import ConvergenceError
from repro.spice import dc_operating_point, transient_analysis
from repro.spice.transient import transient_operating_point

GOLDENS = Path(__file__).with_name("solver_goldens.json")
DC_FAMILIES = ("two_stage_opamp", "three_stage_opamp", "ldo")
N_DESIGNS = 16
#: Settling followers over a short window: the first few Sobol designs whose
#: transient completes.
TRAN_T_STOP = 1e-6
TRAN_DESIGNS = 3
#: Accepted timepoints compared per waveform, evenly spread over the sweep.
TRAN_SAMPLES = 17
RTOL = 1e-9
ATOL = 1e-9


def _dc_cases():
    for family in DC_FAMILIES:
        problem = make_problem(family, "180nm")
        for index, row in enumerate(problem.design_space.sobol(N_DESIGNS,
                                                               seed=0)):
            design = problem.design_space.as_dict(row)
            for builder_name, builder in problem.bench.builders.items():
                yield f"{family}/{index}/{builder_name}", builder, design


def _dc_record(builder, design) -> dict:
    op = dc_operating_point(builder(design))
    return {"converged": op.converged, "iterations": op.iterations,
            "iterations_per_gmin": list(op.stats.iterations_per_gmin),
            "rescue_entered": op.stats.rescue_entered,
            "damping_clamps": op.stats.damping_clamps,
            "voltages": op.voltages.tolist()}


def _settling_problem():
    return make_problem("two_stage_opamp_settling", "180nm",
                        t_stop=TRAN_T_STOP)


def _tran_record(problem, design) -> dict:
    circuit = problem.bench.builders["main"](design)
    op = transient_operating_point(circuit)
    result = transient_analysis(
        circuit, problem.t_stop, observe=["out"], operating_point=op,
        reltol=problem.transient_reltol, abstol=problem.transient_abstol)
    samples = np.linspace(0, result.times.size - 1, TRAN_SAMPLES).astype(int)
    return {"n_accepted": result.n_accepted, "n_rejected": result.n_rejected,
            "n_newton_iterations": result.n_newton_iterations,
            "times": result.times[samples].tolist(),
            "out": result.voltage("out")[samples].tolist()}


def _record() -> dict:
    dc = {key: _dc_record(builder, design)
          for key, builder, design in _dc_cases()}
    problem = _settling_problem()
    tran = {}
    for index, row in enumerate(problem.design_space.sobol(N_DESIGNS, seed=0)):
        try:
            tran[str(index)] = _tran_record(
                problem, problem.design_space.as_dict(row))
        except ConvergenceError:
            continue
        if len(tran) == TRAN_DESIGNS:
            break
    return {"dc": dc, "tran": tran}


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text())


DC_CASES = {key: (builder, design) for key, builder, design in _dc_cases()}


def test_recording_covers_every_case(goldens):
    assert sorted(goldens["dc"]) == sorted(DC_CASES)
    assert len(goldens["tran"]) == TRAN_DESIGNS


@pytest.mark.parametrize("key", sorted(DC_CASES))
def test_dc_operating_point_matches_recording(goldens, key):
    expected = goldens["dc"][key]
    actual = _dc_record(*DC_CASES[key])
    for counter in ("converged", "iterations", "iterations_per_gmin",
                    "rescue_entered", "damping_clamps"):
        assert actual[counter] == expected[counter], counter
    np.testing.assert_allclose(actual["voltages"], expected["voltages"],
                               rtol=RTOL, atol=ATOL)


def test_settling_transient_matches_recording(goldens):
    problem = _settling_problem()
    rows = problem.design_space.sobol(N_DESIGNS, seed=0)
    for index, expected in goldens["tran"].items():
        actual = _tran_record(problem,
                              problem.design_space.as_dict(rows[int(index)]))
        for counter in ("n_accepted", "n_rejected", "n_newton_iterations"):
            assert actual[counter] == expected[counter], (index, counter)
        np.testing.assert_allclose(actual["times"], expected["times"],
                                   rtol=RTOL, atol=0.0)
        np.testing.assert_allclose(actual["out"], expected["out"],
                                   rtol=RTOL, atol=ATOL)


if __name__ == "__main__":
    recording = _record()
    lines = []
    for section in ("dc", "tran"):
        entries = [f"  {json.dumps(key)}: {json.dumps(value)}"
                   for key, value in recording[section].items()]
        lines.append(f"{json.dumps(section)}: {{\n" + ",\n".join(entries)
                     + "\n}")
    GOLDENS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
