"""Experiment E3 (paper Fig. 5): constrained optimization on the 180 nm circuits.

MESMOC, USeMOC, constrained MACE and KATO minimise the objective subject to
the specification constraints.  As in the paper, every method starts from the
same pool of random initial designs (300 in the paper; configurable here) and
only feasible designs improve the reported best-so-far curve.

Each method is one declarative :class:`repro.study.StudySpec` executed by
:func:`repro.study.run_study`.
"""

from __future__ import annotations

from repro.study import StudySpec, run_study

DEFAULT_METHODS = ("mesmoc", "usemoc", "mace", "kato")


def run_constrained_experiment(circuit: str = "two_stage_opamp",
                               technology: str = "180nm",
                               methods=DEFAULT_METHODS,
                               n_simulations: int = 80, n_init: int = 40,
                               n_seeds: int = 3, seed: int = 0,
                               quick: bool = True) -> dict[str, dict[str, object]]:
    """Run Fig. 5 for one circuit; returns ``{method: run_study(...) result}``."""
    results: dict[str, dict[str, object]] = {}
    for method in methods:
        spec = StudySpec(optimizer=method, circuit=circuit, technology=technology,
                         n_simulations=n_simulations, n_init=n_init,
                         seed=seed, n_seeds=n_seeds, quick=quick,
                         tag=f"fig5:{circuit}")
        results[method] = run_study(spec)
    return results
