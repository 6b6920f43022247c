"""Experiment harnesses regenerating every table and figure of the paper.

Each experiment function takes explicit budget/seed arguments so the same
code serves quick smoke benchmarks and full paper-scale runs (see
``EXPERIMENTS.md`` for the mapping and the recorded results).
"""

from repro.experiments.runner import (
    make_source_model,
    run_repeated,
)
from repro.experiments.neuk_assessment import run_neuk_assessment
from repro.experiments.fom_experiment import run_fom_experiment
from repro.experiments.constrained_experiment import run_constrained_experiment
from repro.experiments.transfer_experiment import run_transfer_experiment
from repro.experiments.tables import run_table1, run_table2
from repro.experiments.ablation import run_mace_ablation, run_stl_ablation
from repro.experiments.reporting import (
    curves_to_rows,
    format_table,
    improvement_ratio,
    speedup_ratio,
)

__all__ = [
    "make_source_model",
    "run_repeated",
    "run_neuk_assessment",
    "run_fom_experiment",
    "run_constrained_experiment",
    "run_transfer_experiment",
    "run_table1",
    "run_table2",
    "run_mace_ablation",
    "run_stl_ablation",
    "curves_to_rows",
    "format_table",
    "improvement_ratio",
    "speedup_ratio",
]
