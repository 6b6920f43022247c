"""Hand-tuned "Human Expert" reference designs.

Tables 1 and 2 of the paper include a Human Expert row.  The designs below
were tuned by hand against this repository's testbenches starting from
textbook sizing procedures (gm/Id-style reasoning for the op-amps, the
standard R2/R1 ratio rule for the bandgap); they are frozen here so the
tables are reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.bo.problem import EvaluatedDesign
from repro.circuits.base import CircuitSizingProblem

_EXPERT_DESIGNS: dict[tuple[str, str], dict[str, float]] = {
    ("two_stage_opamp", "180nm"): {
        "w_diff": 24e-6, "l_diff": 0.6e-6,
        "w_load": 12e-6, "l_load": 0.6e-6,
        "w_out": 80e-6, "l_out": 0.35e-6,
        "c_comp": 2.2e-12, "r_zero": 1.8e3,
        "i_bias1": 30e-6, "i_bias2": 220e-6,
    },
    ("two_stage_opamp", "40nm"): {
        "w_diff": 10e-6, "l_diff": 0.15e-6,
        "w_load": 6e-6, "l_load": 0.15e-6,
        "w_out": 30e-6, "l_out": 0.08e-6,
        "c_comp": 1.0e-12, "r_zero": 1.2e3,
        "i_bias1": 60e-6, "i_bias2": 240e-6,
    },
    ("three_stage_opamp", "180nm"): {
        "w_diff": 20e-6, "l_diff": 0.6e-6,
        "w_load": 10e-6, "l_load": 0.6e-6,
        "w_mid": 25e-6, "l_mid": 0.4e-6,
        "w_out": 90e-6, "l_out": 0.3e-6,
        "c_m1": 3.0e-12, "c_m2": 0.8e-12,
        "i_bias1": 20e-6, "i_bias23": 200e-6,
    },
    ("three_stage_opamp", "40nm"): {
        "w_diff": 8e-6, "l_diff": 0.15e-6,
        "w_load": 5e-6, "l_load": 0.15e-6,
        "w_mid": 12e-6, "l_mid": 0.1e-6,
        "w_out": 40e-6, "l_out": 0.08e-6,
        "c_m1": 1.5e-12, "c_m2": 0.4e-12,
        "i_bias1": 25e-6, "i_bias23": 100e-6,
    },
    ("bandgap", "180nm"): {
        "r_ptat": 120e3, "r_out": 750e3,
        "w_mirror": 12e-6, "l_mirror": 1.2e-6,
        "w_amp_in": 6e-6, "l_amp_in": 0.8e-6,
        "i_amp": 0.8e-6, "area_ratio": 8.0,
    },
    ("bandgap", "40nm"): {
        "r_ptat": 90e3, "r_out": 520e3,
        "w_mirror": 6e-6, "l_mirror": 0.3e-6,
        "w_amp_in": 3e-6, "l_amp_in": 0.25e-6,
        "i_amp": 0.8e-6, "area_ratio": 8.0,
    },
}


def expert_design(circuit: str, technology: str) -> dict[str, float]:
    """The stored expert design for one circuit / technology pair."""
    key = (circuit.lower(), technology.lower())
    if key not in _EXPERT_DESIGNS:
        raise KeyError(
            f"no expert design for {key}; available: {sorted(_EXPERT_DESIGNS)}")
    return dict(_EXPERT_DESIGNS[key])


def evaluate_expert(problem: CircuitSizingProblem) -> EvaluatedDesign:
    """Evaluate the stored expert design on the given problem instance."""
    base_name = problem.name.rsplit("_", 1)[0]
    design = expert_design(base_name, problem.technology.name)
    vector = problem.design_space.from_dict(design)
    return problem.evaluate(np.asarray(vector))
