"""KATO: Knowledge Alignment And Transfer for Transistor Sizing.

A full reproduction of the DAC 2024 paper "KATO: Knowledge Alignment And
Transfer for Transistor Sizing Of Different Design and Technology".

The package is organised bottom-up:

* :mod:`repro.autodiff` -- reverse-mode automatic differentiation on numpy.
* :mod:`repro.nn` / :mod:`repro.optim` -- neural-network layers and optimizers.
* :mod:`repro.kernels` / :mod:`repro.gp` -- GP kernels (including the Neural
  Kernel of the paper) and exact Gaussian-process regression.
* :mod:`repro.moo` / :mod:`repro.acquisition` / :mod:`repro.bo` -- NSGA-II,
  acquisition functions and Bayesian-optimization engines (MACE and the
  modified constrained MACE).
* :mod:`repro.spice` / :mod:`repro.pdk` / :mod:`repro.circuits` -- an
  MNA-based analog circuit simulator, synthetic 180 nm / 40 nm technology
  cards and the three sizing problems used in the paper's evaluation.
* :mod:`repro.core` -- the KATO contribution: KAT-GP, Neural-Kernel GP
  surrogates and Selective Transfer Learning (Algorithm 1).
* :mod:`repro.baselines` -- MESMOC, USeMOC, TLMBO and human-expert designs.
* :mod:`repro.engine` -- the batched evaluation engine: pluggable
  serial/batched/process execution backends, a content-hash design cache and
  failure isolation for every ``evaluate_batch`` in the library.
* :mod:`repro.mc` -- Monte Carlo mismatch & yield: Pelgrom variation cards
  on the technology nodes, seeded stream-splittable samplers, and
  engine-parallel Wilson-interval yield estimation with adaptive stopping
  behind the ``*_yield`` sizing problems.
* :mod:`repro.study` -- the unified Study API: the optimizer registry,
  declarative :class:`~repro.study.StudySpec` run specifications, the
  :class:`~repro.study.Study` driver (callbacks, JSONL checkpoint/resume)
  and the ``python -m repro`` command line.
* :mod:`repro.experiments` -- harnesses regenerating every table and figure.
"""

from repro.version import __version__

__all__ = ["__version__"]
