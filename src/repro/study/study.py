"""The Study driver: one front door for running optimizations.

:class:`Study` executes one ``(spec, seed)`` optimization run -- building the
problem, engine, transfer source and optimizer from a declarative
:class:`~repro.study.spec.StudySpec`, owning the ask/evaluate/tell loop on
top of :meth:`repro.bo.base.BaseOptimizer.step`, notifying callbacks, and
(optionally) checkpointing every batch to JSONL so a killed run resumes
bit-identically (see :mod:`repro.study.checkpoint`).

:func:`run_study` layers multi-seed execution and curve aggregation on top,
and is what the ``experiments/`` harnesses and the CLI call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.bo.history import OptimizationHistory
from repro.errors import OptimizationError
from repro.study.callbacks import CallbackList, StudyCallback
from repro.study.checkpoint import (
    CheckpointData,
    coerce_checkpoint,
    prime_cache,
)
from repro.study.spec import StudySpec
from repro.utils.stats import summarize_runs


@dataclass
class StudyResult:
    """Outcome of one study run (one seed)."""

    spec: StudySpec
    seed: int
    history: OptimizationHistory
    n_iterations: int
    stop_reason: str | None = None
    resumed: bool = False
    n_replayed: int = 0
    engine_stats: dict = field(default_factory=dict)

    @property
    def constrained(self) -> bool:
        return self.history.problem.n_constraints > 0

    @property
    def n_simulations(self) -> int:
        return self.history.n_simulations

    def best_curve(self) -> np.ndarray:
        """Best-so-far objective per simulation (feasible-only if constrained)."""
        return self.history.best_curve(constrained=self.constrained)

    def to_record(self) -> dict:
        """One flat JSON-able result record (the CLI's output line)."""
        best = self.history.best(constrained=self.constrained)
        return {
            "kind": "study_result",
            "spec": self.spec.to_dict(),
            "seed": int(self.seed),
            "problem": self.history.problem.name,
            "optimizer": self.spec.optimizer,
            "n_simulations": int(self.n_simulations),
            "n_iterations": int(self.n_iterations),
            "n_feasible": int(self.history.feasible.sum())
            if len(self.history) else 0,
            "stop_reason": self.stop_reason,
            "resumed": bool(self.resumed),
            "n_replayed": int(self.n_replayed),
            "best_objective": None if best is None else float(best.objective),
            "best_feasible": None if best is None else bool(best.feasible),
            "best_metrics": None if best is None
            else {k: float(v) for k, v in best.metrics.items()},
            "best_x": None if best is None
            else [float(v) for v in np.asarray(best.x).ravel()],
            "curve": [float(v) for v in self.best_curve()],
            "engine": self.engine_stats,
        }


class Study:
    """One declarative optimization run with callbacks and checkpointing.

    Parameters
    ----------
    spec:
        The declarative run specification.  Multi-seed specs must go through
        :func:`run_study`; a :class:`Study` runs exactly one seed.
    seed:
        Override of ``spec.seed`` (used by :func:`run_study` fan-out).
    callbacks:
        :class:`~repro.study.callbacks.StudyCallback` instances, notified in
        order via ``on_init`` / ``on_batch`` / ``on_finish``.
    checkpoint_path:
        When set, every evaluation batch is appended to this JSONL file so
        the run can be resumed with :meth:`Study.resume`.
    checkpoint:
        Generalisation of ``checkpoint_path``: a path *or* any
        :class:`~repro.study.checkpoint.StudyCheckpoint` backend (e.g. the
        SQLite results store's
        :class:`~repro.service.store.StoreCheckpoint`).  At most one of the
        two may be given.
    engine_backend:
        Optional :class:`~repro.engine.backends.ExecutionBackend` instance
        that replaces the spec-resolved backend on the problem's engine --
        the seam the study service uses to dispatch evaluation batches as
        work-queue jobs instead of in-process simulations.
    optimizer_factory:
        Escape hatch for programmatic studies: a ``(problem, rng) ->
        optimizer`` callable used instead of the registry.  Such studies are
        only resumable when the same factory is passed to :meth:`resume`.
    """

    def __init__(self, spec: StudySpec, seed: int | None = None,
                 callbacks: list[StudyCallback] | tuple = (),
                 checkpoint_path: str | None = None,
                 checkpoint=None,
                 engine_backend=None,
                 optimizer_factory=None,
                 source=None, source_data=None,
                 _checkpoint_data: CheckpointData | None = None):
        if spec.n_seeds != 1 and seed is None:
            raise OptimizationError(
                f"Study runs one seed but spec.n_seeds={spec.n_seeds}; use "
                "run_study() for multi-seed execution (or pass seed=...)")
        if checkpoint is not None and checkpoint_path is not None:
            raise OptimizationError(
                "pass either checkpoint_path or checkpoint, not both")
        self.spec = spec if seed is None else spec.for_seed(seed)
        self.seed = int(self.spec.seed)
        self.callbacks = CallbackList(list(callbacks))
        self.checkpoint = coerce_checkpoint(
            checkpoint if checkpoint is not None else checkpoint_path)
        self.engine_backend = engine_backend
        self.optimizer_factory = optimizer_factory
        # Prebuilt transfer source (run_study builds one and shares it
        # across seeds instead of re-simulating it per repetition).
        self._source = source
        self._source_data = source_data
        self._checkpoint_data = _checkpoint_data
        self._stop_reason: str | None = None
        self.problem = None
        self.optimizer = None

    # ------------------------------------------------------------------ #
    # introspection used by callbacks                                     #
    # ------------------------------------------------------------------ #
    @property
    def label(self) -> str:
        return f"{self.spec.optimizer}:{self.spec.circuit}:seed{self.seed}"

    @property
    def checkpoint_path(self) -> str | None:
        """Path of a JSONL checkpoint backend (``None`` for others)."""
        from repro.study.checkpoint import JSONLCheckpoint
        if isinstance(self.checkpoint, JSONLCheckpoint):
            return self.checkpoint.path
        return None

    @property
    def history(self) -> OptimizationHistory:
        if self.optimizer is None:
            raise OptimizationError("study has not started yet")
        return self.optimizer.history

    @property
    def constrained(self) -> bool:
        return self.problem is not None and self.problem.n_constraints > 0

    def request_stop(self, reason: str) -> None:
        """Ask the loop to stop after the current batch (callback API)."""
        if self._stop_reason is None:
            self._stop_reason = reason

    @staticmethod
    def _write_metrics(writer, iteration: int) -> None:
        """Persist a per-batch telemetry snapshot on capable backends.

        Duck-typed: only checkpoint writers exposing ``write_metrics``
        (the SQLite store's) persist snapshots, and only when telemetry is
        enabled -- JSONL checkpoints stay bit-identical with and without
        instrumentation.
        """
        if writer is None or not telemetry.enabled():
            return
        write_metrics = getattr(writer, "write_metrics", None)
        if write_metrics is not None:
            write_metrics(iteration, telemetry.snapshot())

    # ------------------------------------------------------------------ #
    # construction helpers                                                #
    # ------------------------------------------------------------------ #
    @classmethod
    def from_file(cls, path, **kwargs) -> "Study":
        """Study from a JSON spec file (see :meth:`StudySpec.from_file`)."""
        return cls(StudySpec.from_file(path), **kwargs)

    @classmethod
    def resume(cls, checkpoint, callbacks: tuple = (),
               optimizer_factory=None, engine_backend=None) -> "Study":
        """Rebuild a study from its checkpoint; :meth:`run` continues it.

        ``checkpoint`` is a JSONL path or any
        :class:`~repro.study.checkpoint.StudyCheckpoint` backend.  The
        replayed prefix consumes no simulations (checkpointed evaluations
        are served from the design cache) and reproduces the interrupted
        run bit-identically; see :mod:`repro.study.checkpoint`.
        """
        backend = coerce_checkpoint(checkpoint)
        data = backend.read()
        spec = StudySpec.from_dict(data.spec_dict)
        return cls(spec, seed=data.seed, callbacks=callbacks,
                   checkpoint=backend,
                   optimizer_factory=optimizer_factory,
                   engine_backend=engine_backend,
                   _checkpoint_data=data)

    # ------------------------------------------------------------------ #
    # the loop                                                            #
    # ------------------------------------------------------------------ #
    def run(self) -> StudyResult:
        """Execute the study to completion (or early stop) and return the result."""
        spec = self.spec
        if self.optimizer_factory is None:
            spec.validate()

        resumed = self._checkpoint_data is not None
        if resumed and not spec.cache:
            raise OptimizationError(
                "cannot resume a cache=False study: bit-identical replay "
                "relies on the design cache serving the checkpointed "
                "evaluations (cache=False exists for stochastic simulators, "
                "which cannot replay deterministically)")

        self.problem = problem = spec.build_problem()
        if self.engine_backend is not None:
            # Service seam: the spec-resolved backend is discarded before it
            # ever creates a pool, and evaluation batches dispatch through
            # the caller-provided backend (e.g. the work queue) instead.
            problem.engine.backend.shutdown()
            problem.engine.backend = self.engine_backend
        n_replayed = 0
        if resumed:
            n_replayed = prime_cache(problem, self._checkpoint_data.evaluations)

        rng = np.random.default_rng(self.seed)
        if self.optimizer_factory is not None:
            self.optimizer = optimizer = self.optimizer_factory(problem, rng)
        else:
            if self._source is not None or self._source_data is not None:
                source, source_data = self._source, self._source_data
            else:
                source, source_data = spec.build_source()
            self.optimizer = optimizer = spec.build_optimizer(
                problem, rng, source=source, source_data=source_data)

        writer = None
        covered = 0  # evaluations already recorded in the checkpoint
        if self.checkpoint is not None:
            if resumed:
                # Re-seed the backend with the existing records atomically,
                # so killing the resume never loses checkpointed progress;
                # the replayed batches below are skipped, not re-written.
                writer = self.checkpoint.open_writer(
                    resume_records=self._checkpoint_data.raw_records)
                covered = len(self._checkpoint_data.evaluations)
            else:
                writer = self.checkpoint.open_writer()
                writer.write_header(spec.to_dict(), self.seed)

        iteration = 0
        try:
            n_init = min(spec.n_init, spec.n_simulations)
            optimizer.initialize(n_init=n_init)
            if len(optimizer.history) == 0:
                raise OptimizationError(
                    "study has no initial designs: set n_init > 0 in the spec")
            if writer is not None and len(optimizer.history) > covered:
                writer.write_batch(0, "init", optimizer.history.evaluations,
                                   n_total=len(optimizer.history), rng=optimizer.rng)
            self._write_metrics(writer, 0)
            self.callbacks.on_init(self, list(optimizer.history.evaluations))

            while (len(optimizer.history) < spec.n_simulations
                   and self._stop_reason is None):
                with telemetry.span("study.batch", study=self.label,
                                    iteration=iteration + 1):
                    evaluations = optimizer.step()
                iteration += 1
                if writer is not None and len(optimizer.history) > covered:
                    writer.write_batch(iteration, "step", evaluations,
                                       n_total=len(optimizer.history),
                                       rng=optimizer.rng)
                self._write_metrics(writer, iteration)
                self.callbacks.on_batch(self, iteration, evaluations)

            result = StudyResult(
                spec=spec,
                seed=self.seed,
                history=optimizer.history,
                n_iterations=iteration,
                stop_reason=self._stop_reason,
                resumed=resumed,
                n_replayed=n_replayed,
                engine_stats=problem.engine.stats(),
            )
            if writer is not None:
                writer.write_finish(result.n_simulations, result.stop_reason)
            self.callbacks.on_finish(self, result)
            return result
        finally:
            if writer is not None:
                writer.close()
            problem.engine.close()
            # Problems owning pools of their own (corner sweeps) release
            # them here; the base implementation is a no-op.
            problem.close()


# ---------------------------------------------------------------------- #
# multi-seed execution                                                    #
# ---------------------------------------------------------------------- #
def _seed_checkpoint_path(checkpoint_path: str | None, index: int,
                          n_seeds: int) -> str | None:
    if checkpoint_path is None:
        return None
    if n_seeds == 1:
        return checkpoint_path
    return f"{checkpoint_path}.seed{index}"


def _run_study_task(task: tuple) -> StudyResult:
    """One seed of a study (top-level, so process backends can pickle it)."""
    spec_dict, seed, checkpoint_path = task
    spec = StudySpec.from_dict(spec_dict)
    return Study(spec, seed=seed, checkpoint_path=checkpoint_path).run()


def run_study(spec: StudySpec, callbacks: tuple = (),
              checkpoint_path: str | None = None,
              runner_backend=None) -> dict[str, object]:
    """Run a (possibly multi-seed) study and aggregate best-so-far curves.

    Parameters
    ----------
    spec:
        The study specification; ``spec.n_seeds`` independent repetitions
        are executed with seeds from :meth:`StudySpec.spawn_seeds`.
    callbacks:
        Callbacks attached to every seed's study (in-process execution
        only).  The same instances observe every seed in turn, so stateful
        callbacks should reset per-run state in ``on_init`` (the stock
        :class:`~repro.study.callbacks.EarlyStopping` does).
    checkpoint_path:
        Checkpoint file; multi-seed studies write one file per seed
        (``<path>.seed<k>``).
    runner_backend:
        ``None``/``"serial"`` runs seeds in-process (supports callbacks);
        ``"process"`` or an
        :class:`~repro.engine.ExecutionBackend` fans whole seeds out (each
        worker rebuilds its problem and transfer source from the spec).

    Returns a dict with ``curves`` (array), ``summary`` (mean/std/... per
    budget), ``histories``, ``results`` (the per-seed :class:`StudyResult`
    records) and ``seeds``.
    """
    spec.validate()
    seeds = spec.spawn_seeds()
    in_process = runner_backend in (None, "serial")
    if callbacks and not in_process:
        raise OptimizationError(
            "callbacks require in-process seed execution; drop the "
            "runner_backend (evaluation-level parallelism via spec.backend "
            "still applies) or drop the callbacks")

    if in_process:
        # The transfer source is seed-independent (TransferSpec carries its
        # own seed), so build it once and share it across repetitions
        # instead of re-simulating and re-training it per seed.  Parallel
        # runners rebuild it per worker from the spec instead.
        shared_source, shared_data = spec.build_source()
        results = []
        for index, seed in enumerate(seeds):
            study = Study(spec, seed=seed, callbacks=callbacks,
                          checkpoint_path=_seed_checkpoint_path(
                              checkpoint_path, index, len(seeds)),
                          source=shared_source, source_data=shared_data)
            results.append(study.run())
    else:
        from repro.engine import ExecutionBackend, resolve_backend
        tasks = [(spec.to_dict(), seed,
                  _seed_checkpoint_path(checkpoint_path, index, len(seeds)))
                 for index, seed in enumerate(seeds)]
        owns_backend = not isinstance(runner_backend, ExecutionBackend)
        backend = resolve_backend(runner_backend)
        try:
            results = backend.map(_run_study_task, tasks)
        finally:
            if owns_backend:
                backend.shutdown()

    curves = [result.best_curve() for result in results]
    length = min(len(curve) for curve in curves)
    curves = [curve[:length] for curve in curves]
    return {
        "curves": np.asarray(curves),
        "summary": summarize_runs(curves),
        "histories": [result.history for result in results],
        "results": results,
        "seeds": seeds,
    }
