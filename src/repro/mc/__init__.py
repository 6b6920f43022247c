"""Monte Carlo mismatch and yield: the statistical robustness layer.

PVT corners (:mod:`repro.bench.corners`) cover *global* process spread with
a handful of deterministic conditions; this package covers *local* device
mismatch -- the dominant yield killer for matched analog circuits -- with
seeded Monte Carlo over the Pelgrom variation cards in :mod:`repro.pdk`:

* :mod:`repro.mc.samplers` -- deterministic, stream-splittable
  Normal / Latin-hypercube / Sobol z-score streams over the matched devices;
* :mod:`repro.mc.estimator` -- Wilson-interval yield estimation and the
  adaptive-stopping criterion;
* :mod:`repro.mc.runner` -- :class:`MonteCarloRunner`, fanning sample
  batches through the engine's serial/batched/process execution backends
  with per-sample cache identities and bit-identical results on all of them.

The ``*_yield`` sizing problems in :mod:`repro.circuits.montecarlo` wrap
this machinery into drop-in optimization problems (objective s.t. yield >=
target) consumable by every optimizer, the Study API and the CLI.
"""

from repro.mc.estimator import (
    YieldEstimate,
    YieldEstimator,
    normal_quantile,
    wilson_interval,
)
from repro.mc.runner import (
    MonteCarloConfig,
    MonteCarloResult,
    MonteCarloRunner,
    classify_pass,
)
from repro.mc.samplers import (
    LatinHypercubeSampler,
    MismatchSampler,
    NormalSampler,
    SobolSampler,
    available_samplers,
    make_sampler,
)

__all__ = [
    "MismatchSampler",
    "NormalSampler",
    "LatinHypercubeSampler",
    "SobolSampler",
    "available_samplers",
    "make_sampler",
    "YieldEstimate",
    "YieldEstimator",
    "wilson_interval",
    "normal_quantile",
    "MonteCarloConfig",
    "MonteCarloResult",
    "MonteCarloRunner",
    "classify_pass",
]
