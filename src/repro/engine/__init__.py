"""Batched evaluation engine: backends, design cache and the coordinator.

The paper's whole cost model is "number of expensive simulations"; this
subsystem makes each batch of them as cheap as the hardware allows:

* :mod:`repro.engine.backends` -- pluggable execution strategies
  (:class:`SerialBackend`, :class:`BatchedBackend`, :class:`ProcessBackend`)
  behind one ordered ``map`` and one simulation fan-out, ``simulate``,
  whose raising jobs come back as :class:`SimulationFailure` records;
* :mod:`repro.engine.cache` -- an exact content-hash design cache with
  hit/miss statistics, so re-proposed designs cost nothing;
* :mod:`repro.engine.engine` -- :class:`EvaluationEngine`, which owns
  batching, caching and failure isolation and is what
  :meth:`repro.bo.problem.OptimizationProblem.evaluate_batch` routes through.

Every optimizer in the library picks this up transparently.  The default is
always serial; experiments opt into batched or process evaluation per call
(``backend="batched"``, ``backend="process"``) or per study
(``StudySpec.backend``).
"""

from repro.engine.backends import (
    BatchedBackend,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    SimulationFailure,
    available_backends,
    resolve_backend,
    simulate_job,
)
from repro.engine.cache import CacheStats, DesignCache
from repro.engine.engine import EvaluationEngine, evaluate_rows

__all__ = [
    "BatchedBackend",
    "CacheStats",
    "DesignCache",
    "EvaluationEngine",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "SimulationFailure",
    "available_backends",
    "evaluate_rows",
    "resolve_backend",
    "simulate_job",
]
