"""Experiments E5-E7 (paper Fig. 6): transfer learning across nodes and designs.

The six panels of Fig. 6 are all instances of one experiment shape: build a
source model from random simulations of a source circuit (a different
technology node, a different topology, or both), then compare KATO with and
without transfer on the target circuit.  TLMBO joins the comparison whenever
the source and target design spaces match (technology-only transfer), which
is the only setting it supports.

Each method is one declarative :class:`repro.study.StudySpec`; the transfer
source is part of the spec (:class:`repro.study.TransferSpec`), so a panel
run is fully described by serializable data.
"""

from __future__ import annotations

from repro.circuits import FOMProblem, make_problem
from repro.study import StudySpec, TransferSpec, run_study


def run_transfer_experiment(source_circuit: str, source_technology: str,
                            target_circuit: str, target_technology: str,
                            constrained: bool = True,
                            n_source_samples: int = 100,
                            n_simulations: int = 60, n_init: int = 30,
                            n_seeds: int = 2, seed: int = 0,
                            include_tlmbo: bool | None = None,
                            quick: bool = True) -> dict[str, dict[str, object]]:
    """One Fig. 6 panel: KATO vs KATO(TL) (vs TLMBO when applicable)."""
    same_space = (source_circuit == target_circuit)
    if include_tlmbo is None:
        include_tlmbo = same_space and not constrained

    fom = not constrained
    fom_normalization = None
    if fom:
        # One normalisation shared by all methods and seeds (paper scale).
        norm_problem = FOMProblem(make_problem(target_circuit, target_technology),
                                  n_normalization_samples=60, rng=seed)
        fom_normalization = norm_problem.normalization

    transfer = TransferSpec(circuit=source_circuit, technology=source_technology,
                            n_samples=n_source_samples, seed=seed)

    def panel_spec(method: str, method_transfer: TransferSpec | None) -> StudySpec:
        return StudySpec(optimizer=method, circuit=target_circuit,
                         technology=target_technology,
                         n_simulations=n_simulations, n_init=n_init,
                         seed=seed, n_seeds=n_seeds, quick=quick,
                         fom=fom, fom_normalization=fom_normalization,
                         transfer=method_transfer,
                         tag=f"fig6:{source_circuit}@{source_technology}->"
                             f"{target_circuit}@{target_technology}")

    specs: dict[str, StudySpec] = {
        "kato": panel_spec("kato", None),
        "kato_tl": panel_spec("kato_tl", transfer),
    }
    if include_tlmbo and same_space:
        # TLMBO consumes raw (x, FOM) source observations; a fom=True
        # transfer spec (with its own seed, as in the original harness)
        # provides them.
        specs["tlmbo"] = panel_spec("tlmbo", TransferSpec(
            circuit=source_circuit, technology=source_technology,
            n_samples=n_source_samples, seed=seed + 1, fom=True))

    return {name: run_study(spec) for name, spec in specs.items()}
