"""KATO: the full optimizer of Algorithm 1.

KATO is :class:`repro.bo.MACE` with
* NeukGP surrogates (Neural Kernel GPs) fitted on the target data,
* the modified constrained MACE acquisition ensemble (Eq. 13) searched with
  NSGA-II (plain MACE {UCB, EI, PI} for unconstrained FOM problems),
and on top of it
* an optional KAT-GP transfer surrogate aligned to a source circuit, and
* Selective Transfer Learning (Eq. 14) to split each simulation batch
  between the transfer model and the target-only model.

Without a source model KATO degenerates to "KATO w/o TL": NeukGP plus the
modified constrained MACE -- exactly the ablation the paper's Fig. 6 plots.
"""

from __future__ import annotations

import numpy as np

from repro.bo.mace import MACE, search_budget
from repro.bo.problem import EvaluatedDesign, OptimizationProblem
from repro.core.kat_gp import KATGP, SourceModel
from repro.core.neuk_gp import neural_kernel_factory
from repro.core.selective_transfer import SelectiveTransfer
from repro.errors import OptimizationError
from repro.study.registry import register_optimizer
from repro.utils.random import RandomState, as_rng


def _kato_kwargs(context) -> dict:
    """Quick-scale budgets (KAT-GP included) or KATO's paper-scale defaults."""
    if context.quick:
        return search_budget(context, kat_train_iters=60)
    return context.constructor_kwargs()


def _build_kato(cls, problem, rng, context):
    # "kato" is the no-transfer ablation ("KATO w/o TL"): a provided source
    # is deliberately ignored.
    return cls(problem, source=None, rng=rng, **_kato_kwargs(context))


def _build_kato_tl(cls, problem, rng, context):
    return cls(problem, source=context.source, rng=rng, **_kato_kwargs(context))


@register_optimizer("kato", builder=_build_kato,
                    description="KATO without transfer (NeukGP + modified "
                                "constrained MACE)")
@register_optimizer("kato_tl", builder=_build_kato_tl, requires_source=True,
                    description="Full KATO with knowledge alignment and "
                                "selective transfer from a source model")
class KATO(MACE):
    """Knowledge Alignment and Transfer Optimization (Algorithm 1).

    Parameters
    ----------
    problem:
        Target sizing problem (constrained, or an unconstrained FOM problem).
    source:
        Optional :class:`SourceModel` built from another circuit and/or
        technology node; ``None`` disables transfer ("KATO w/o TL").
    kat_train_iters:
        Training iterations of each KAT-GP refit.
    use_neural_kernel / kernel_kwargs:
        Neural-Kernel surrogates (with these :class:`NeuralKernel`
        keywords), or ARD RBF ones when ``use_neural_kernel`` is false;
        ``kernel_kwargs`` are then rejected rather than ignored.

    The batch size and the surrogate/NSGA-II budgets are :class:`MACE`'s.
    """

    name = "kato"

    def __init__(self, problem: OptimizationProblem, source: SourceModel | None = None,
                 rng: RandomState = None, batch_size: int = 4,
                 surrogate_train_iters: int = 60, kat_train_iters: int = 120,
                 pop_size: int = 64, n_generations: int = 30, ucb_beta: float = 2.0,
                 use_neural_kernel: bool = True, kernel_kwargs: dict | None = None):
        if kernel_kwargs and not use_neural_kernel:
            raise OptimizationError(
                f"kernel_kwargs {sorted(kernel_kwargs)} configure the Neural "
                "Kernel and would be ignored with use_neural_kernel=False")
        super().__init__(problem, batch_size=batch_size, rng=rng, variant="modified",
                         surrogate_train_iters=surrogate_train_iters,
                         pop_size=pop_size, n_generations=n_generations,
                         ucb_beta=ucb_beta)
        self.source = source
        self.kat_train_iters = int(kat_train_iters)
        self.kat_model: KATGP | None = None
        self.selector: SelectiveTransfer | None = None
        self._last_labels = None
        self._kernel_rng = as_rng(self.rng.integers(0, 2**31 - 1))
        if use_neural_kernel:
            self.kernel_factory = neural_kernel_factory(rng=self._kernel_rng,
                                                        **(kernel_kwargs or {}))

    def fit_transfer_surrogate(self) -> KATGP:
        """(Re)train the KAT-GP alignment on the current target data."""
        if self.source is None:
            raise RuntimeError("fit_transfer_surrogate() requires a source model")
        x_unit = self.problem.design_space.to_unit(self.history.x)
        y = self.history.metrics_matrix()
        if self.kat_model is None:
            self.kat_model = KATGP(self.source, target_input_dim=x_unit.shape[1],
                                   target_output_dim=y.shape[1],
                                   rng=self._kernel_rng)
        self.kat_model.fit(x_unit, y, n_iters=self.kat_train_iters)
        return self.kat_model

    # ------------------------------------------------------------------ #
    # Algorithm 1                                                          #
    # ------------------------------------------------------------------ #
    def _ensure_selector(self) -> SelectiveTransfer:
        if self.selector is None:
            initial = [max(self.source.x.shape[0], 1), max(len(self.history), 1)]
            self.selector = SelectiveTransfer(initial, names=["kat_gp", "neuk_gp"],
                                              rng=self.rng)
        return self.selector

    def propose(self) -> np.ndarray:
        if self.source is None:
            return super().propose()
        # Transfer path: proposals from the target-only and the KAT-GP
        # ensembles, the batch split between them by STL.
        target_pareto = self.acquisition_pareto(*self.fit_surrogates(self.kernel_factory))
        kat = self.fit_transfer_surrogate()
        kat_constraint = kat.constraint_view() if self.problem.n_constraints else None
        kat_pareto = self.acquisition_pareto(kat.objective_view(), kat_constraint)
        selector = self._ensure_selector()
        designs, labels = selector.select_from([kat_pareto, target_pareto], self.batch_size)
        self._last_labels = labels
        return designs

    def step(self) -> list[EvaluatedDesign]:
        incumbent_before = self.incumbent()
        evaluations = super().step()
        # Update the STL weights with the number of proposals (per source)
        # that improved on the incumbent (Eq. 14).
        if self.source is not None and self.selector is not None and evaluations:
            labels = self._last_labels
            if labels is not None and len(labels) == len(evaluations):
                eligible = np.array([
                    e.feasible or self.problem.n_constraints == 0 for e in evaluations])
                objectives = np.array([e.objective for e in evaluations])
                # Infeasible designs never count as improvements.
                masked = np.where(eligible, objectives,
                                  np.inf if self.problem.minimize else -np.inf)
                self.selector.update_from_evaluations(
                    labels, masked, incumbent_before, self.problem.minimize)
        return evaluations

    # ------------------------------------------------------------------ #
    # reporting                                                            #
    # ------------------------------------------------------------------ #
    def transfer_report(self) -> dict[str, object]:
        """Summary of the selective-transfer behaviour for the experiment logs."""
        if self.selector is None:
            return {"transfer": self.source is not None, "weights": None}
        return {
            "transfer": True,
            "weights": self.selector.weights.tolist(),
            "probabilities": self.selector.probabilities().tolist(),
            "names": self.selector.names,
        }
