"""Pluggable execution backends for batched design evaluation.

A backend has two ordered entry points.  :meth:`ExecutionBackend.map` runs a
picklable callable over work items.  :meth:`ExecutionBackend.simulate` is the
one simulation fan-out: it takes ``(problem, design)`` jobs and returns each
job's metric dictionary or a :class:`SimulationFailure`.  The evaluation
engine, the Monte Carlo runner, the PVT corner sweep and the queue worker all
call it instead of branching on the backend (the engine keeps one branch:
the queue backend's ``job_dispatch``).

* :class:`SerialBackend` -- a plain list comprehension; zero overhead, fully
  deterministic, the default everywhere.
* :class:`BatchedBackend` -- serial ``map``; its ``simulate`` stacks every
  job whose problem sets ``supports_batch_simulation`` into one
  :class:`~repro.bench.BatchSimulator` session (``(B, N, N)`` Newton systems
  across designs, samples or corners).  Results are bit-identical to serial
  by construction of the batched solvers.
* :class:`ProcessBackend` -- a :class:`~concurrent.futures.ProcessPoolExecutor`.
  Escapes the GIL entirely (the Newton stamping loops are pure Python and
  hold the GIL), at the price of pickling the problem and results per task.

``map`` does **no** error handling: callables submitted to it must encode
failures in their return value (as :func:`simulate_job` does), so one failed
work item can never poison the rest of a batch.
"""

from __future__ import annotations

import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class SimulationFailure:
    """Picklable record of one simulation job that raised.

    ``kind`` is the exception's type name and ``message`` the full
    ``"TypeName: text"`` string; consumers classify on ``kind`` (the engine
    re-raises contract errors) and report ``message``.
    """

    kind: str
    message: str

    @classmethod
    def from_exception(cls, exc: BaseException) -> "SimulationFailure":
        name = type(exc).__name__
        return cls(name, f"{name}: {exc}")


def simulate_job(job):
    """Simulate one ``(problem, design)`` job; never raises.

    The unit of work every map-style backend ships to its workers: a
    module-level function (picklable for :class:`ProcessBackend`) returning
    ``problem.simulate(design)``, or a :class:`SimulationFailure` when the
    simulation raised, so one diverging solve cannot poison the surrounding
    ``map``.
    """
    problem, design = job
    try:
        return problem.simulate(design)
    except Exception as exc:  # noqa: BLE001 - isolation is the whole point
        return SimulationFailure.from_exception(exc)


class ExecutionBackend:
    """Strategy interface: run a function over work items, preserving order."""

    name = "base"

    #: Capability flag for job-shaped dispatch: the evaluation engine hands
    #: a backend advertising this the whole pending design block via
    #: ``map_jobs(problem, rows)`` instead of one ``simulate`` call, so the
    #: backend can ship work to external processes as serialized jobs (see
    #: :class:`repro.service.queue.QueueBackend`).
    job_dispatch = False

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item and return results in input order."""
        raise NotImplementedError

    def simulate(self, jobs) -> list:
        """Simulate ``(problem, design)`` jobs, results in input order.

        Each entry is the job's metric dictionary or a
        :class:`SimulationFailure`.  Map-style backends map
        :func:`simulate_job` over the jobs.
        """
        return self.map(simulate_job, list(jobs))

    def shutdown(self) -> None:
        """Release any worker pools (idempotent; serial backends are no-ops)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Evaluate items one after the other on the calling thread."""

    name = "serial"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        return [fn(item) for item in items]


class BatchedBackend(SerialBackend):
    """Single-process backend that stacks simulations into one session.

    ``map`` is inherited serial behaviour -- consumers without a simulation
    fan-out (e.g. study repetition) degrade gracefully.  :meth:`simulate`
    hands every job whose problem sets ``supports_batch_simulation`` to one
    :class:`~repro.bench.BatchSimulator` session, which solves the batch
    inside shared ``(B, N, N)`` Newton iterations.  The batched solvers are
    bit-identical to the serial ones, so switching a run to this backend
    never changes its results -- only its wall-clock time.
    """

    name = "batched"

    def simulate(self, jobs) -> list:
        """Stack the testbench jobs; every other job runs :func:`simulate_job`.

        The stacked jobs may carry *different* problem instances (designs,
        per-sample mismatch clones, per-corner variants) as long as their
        benches declare the same analyses; structurally incompatible benches
        (a :class:`ValueError` from the batch validator) fall back to
        :func:`simulate_job` per job.  A failed (not raising) simulation
        returns the problem's pessimised ``failed_metrics()``, exactly as
        ``problem.simulate`` would.
        """
        from repro.bench import BatchSimulator
        results: list = []
        stacked = []
        for problem, design in jobs:
            results.append(None)
            if not getattr(problem, "supports_batch_simulation", False):
                results[-1] = simulate_job((problem, design))
                continue
            try:
                stacked.append((len(results) - 1, problem, problem.bench,
                                design))
            except Exception as exc:  # noqa: BLE001 - mirror simulate()
                results[-1] = SimulationFailure.from_exception(exc)
        try:
            outcomes = BatchSimulator().run(
                [(bench, design) for _, _, bench, design in stacked])
        except ValueError:
            # Mixed bench structures cannot share one batch; serial sessions
            # per job produce the identical results, just one at a time.
            for index, problem, _, design in stacked:
                results[index] = simulate_job((problem, design))
            return results
        for (index, problem, _, _), outcome in zip(stacked, outcomes):
            if isinstance(outcome, SimulationFailure):
                results[index] = outcome
            else:
                results[index] = (outcome.metrics if outcome.ok
                                  else problem.failed_metrics())
        return results


class ProcessBackend(ExecutionBackend):
    """Run work items on a lazily created process pool.

    Best for CPU-bound pure-Python work (the Newton stamping loop) on
    multi-core machines.  Work functions and items must be picklable:
    module-level functions and problem instances qualify, lambdas and
    closures do not.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers
        self._executor: ProcessPoolExecutor | None = None

    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._worker_count())
        return self._executor

    def _worker_count(self) -> int:
        return self.max_workers or (os.cpu_count() or 1)

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        items = list(items)
        if not items:
            return []
        if len(items) == 1:
            # Avoid pool (and pickling) overhead for trivial batches.
            return [fn(items[0])]
        # Chunking amortises IPC and -- because pickle memoises within one
        # chunk message -- serialises a problem object shared by the chunk's
        # items once instead of once per item.
        chunksize = max(1, len(items) // (self._worker_count() * 4))
        return list(self.executor.map(fn, items, chunksize=chunksize))

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __getstate__(self) -> dict:
        # Executors are not picklable; workers receiving a backend (e.g. as
        # part of a problem object) get a fresh, lazily-created pool.
        state = self.__dict__.copy()
        state["_executor"] = None
        return state


_BACKENDS: dict[str, type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    BatchedBackend.name: BatchedBackend,
    ProcessBackend.name: ProcessBackend,
}


def available_backends() -> list[str]:
    """Names accepted by :func:`resolve_backend`."""
    return sorted(_BACKENDS)


def _backend_key(name: str) -> str:
    key = str(name).lower()
    if key not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}; available: {available_backends()}")
    return key


def resolve_backend(spec: str | ExecutionBackend | None,
                    max_workers: int | None = None) -> ExecutionBackend:
    """Normalise a backend specification to an :class:`ExecutionBackend`.

    ``None`` resolves to :class:`SerialBackend`; a string names one of
    :func:`available_backends`; an existing backend instance passes through
    unchanged (so pools can be shared between engines).
    """
    if spec is None:
        return SerialBackend()
    if isinstance(spec, ExecutionBackend):
        return spec
    key = _backend_key(spec)
    if key == ProcessBackend.name:
        return ProcessBackend(max_workers=max_workers)
    return _BACKENDS[key]()


class BackendOwner:
    """Lazy, race-safe owner of one execution backend resolved from a spec.

    The shared lifecycle plumbing of every fan-out helper that holds a
    backend (PVT :class:`~repro.bench.CornerSweep`, the Monte Carlo
    :class:`~repro.mc.MonteCarloRunner`):

    * resolution is lazy and lock-guarded, so two threads reaching an
      unresolved owner at once cannot each build a pooled backend and leak
      the loser's pool;
    * :meth:`close` is idempotent and the owner is a context manager, so
      ``with`` blocks are a first-class release path next to
      ``OptimizationProblem.close()``;
    * a *leaked* pool fails loudly: if the owner is garbage-collected while
      a pooled backend it created still holds a live executor, a
      :class:`ResourceWarning` names the backend.  (The warning fires inside
      ``__del__``, where raising cannot abort the process -- under pytest,
      ``filterwarnings = error`` surfaces it through the unraisable-exception
      hook; plain scripts see it on stderr.)  Caller-provided backend
      instances are not owned, so they never warn.
    * pickling drops the live backend -- pools cannot cross process
      boundaries -- and workers rebuild it lazily from the spec.
    """

    def __init__(self, spec: str | ExecutionBackend | None = None,
                 max_workers: int | None = None):
        if spec is not None and not isinstance(spec, ExecutionBackend):
            _backend_key(spec)  # fail at construction, not on first use
        self._backend_spec = spec
        self._max_workers = max_workers
        self._backend: ExecutionBackend | None = None
        self._backend_lock = threading.Lock()

    @property
    def backend(self) -> ExecutionBackend:
        if self._backend is None:
            with self._backend_lock:
                if self._backend is None:
                    self._backend = resolve_backend(
                        self._backend_spec, max_workers=self._max_workers)
        return self._backend

    def _owns_backend(self) -> bool:
        """Whether the held backend's lifecycle belongs to this owner.

        Caller-provided instances (the documented way to *share* one pool
        between consumers) are merely borrowed: closing them out from under
        their other users would abort in-flight maps, so :meth:`close` only
        drops the reference.
        """
        return (self._backend is not None
                and not isinstance(self._backend_spec, ExecutionBackend))

    def _owns_live_pool(self) -> bool:
        return (self._owns_backend()
                and isinstance(self._backend, ProcessBackend)
                and self._backend._executor is not None)

    def close(self) -> None:
        """Shut down the held backend's pool if owned, else release it
        (idempotent)."""
        if self._backend is not None:
            if self._owns_backend():
                self._backend.shutdown()
            self._backend = None

    def __enter__(self) -> "BackendOwner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # noqa: D105 - leak detector, not API
        try:
            leaked = self._owns_live_pool()
        except Exception:  # pragma: no cover - interpreter shutdown
            return
        if leaked:
            # Deliberately outside the guard: under warnings-as-errors this
            # raises out of __del__ and surfaces through the interpreter's
            # unraisable-exception hook (which pytest's plugin reports),
            # instead of being swallowed into a silent leak.
            warnings.warn(
                f"{type(self).__name__} was garbage-collected with a live "
                f"{self._backend.name!r} worker pool; call close() or use "
                "it as a context manager", ResourceWarning, stacklevel=2)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_backend"] = None
        state.pop("_backend_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._backend_lock = threading.Lock()
