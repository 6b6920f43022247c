"""The study callback protocol and the stock callbacks.

A callback observes one :class:`~repro.study.Study` run through three hooks
layered over :meth:`repro.bo.base.BaseOptimizer.step`:

* :meth:`StudyCallback.on_init` -- after the initial designs are evaluated;
* :meth:`StudyCallback.on_batch` -- after every ask/evaluate/tell iteration;
* :meth:`StudyCallback.on_finish` -- once, with the final result (also on
  early stop).

Callbacks may call ``study.request_stop(reason)`` to end the run after the
current batch -- that is the entire control surface, which keeps the loop in
one place and the callbacks composable.
"""

from __future__ import annotations

import sys
from typing import Sequence


class StudyCallback:
    """Base class: every hook is a no-op, subclass what you need."""

    def on_init(self, study, evaluations) -> None:
        """Called once after initialization; ``evaluations`` are the seeds."""

    def on_batch(self, study, iteration: int, evaluations) -> None:
        """Called after each batch; ``iteration`` counts from 1."""

    def on_finish(self, study, result) -> None:
        """Called once with the :class:`~repro.study.study.StudyResult`."""


class CallbackList(StudyCallback):
    """Dispatch to several callbacks in order (used internally by Study)."""

    def __init__(self, callbacks: Sequence[StudyCallback] = ()):
        self.callbacks = list(callbacks)

    def on_init(self, study, evaluations) -> None:
        for callback in self.callbacks:
            callback.on_init(study, evaluations)

    def on_batch(self, study, iteration: int, evaluations) -> None:
        for callback in self.callbacks:
            callback.on_batch(study, iteration, evaluations)

    def on_finish(self, study, result) -> None:
        for callback in self.callbacks:
            callback.on_finish(study, result)


class LoggingCallback(StudyCallback):
    """Progress lines ("sim 24/60, best 1.2345e-04") on a stream.

    Parameters
    ----------
    stream:
        Defaults to ``sys.stderr`` so progress does not pollute structured
        stdout output (the CLI prints result JSON on stdout).
    every:
        Log every ``every``-th batch (the init and finish lines always print).
    """

    def __init__(self, stream=None, every: int = 1):
        self.stream = stream
        self.every = max(1, int(every))

    def _write(self, study, message: str) -> None:
        stream = self.stream if self.stream is not None else sys.stderr
        print(f"[study {study.label}] {message}", file=stream, flush=True)

    def _best(self, study) -> str:
        best = study.history.best_objective(constrained=study.constrained)
        return f"best {best:.6g}"

    def on_init(self, study, evaluations) -> None:
        self._write(study, f"initialized with {len(evaluations)} designs, "
                           f"{self._best(study)}")

    def on_batch(self, study, iteration: int, evaluations) -> None:
        if iteration % self.every:
            return
        self._write(study, f"batch {iteration}: sim "
                           f"{len(study.history)}/{study.spec.n_simulations}, "
                           f"{self._best(study)}")

    def on_finish(self, study, result) -> None:
        reason = f" ({result.stop_reason})" if result.stop_reason else ""
        self._write(study, f"finished after {result.n_simulations} simulations, "
                           f"{self._best(study)}{reason}")


class EarlyStopping(StudyCallback):
    """Stop when the incumbent stalls or reaches a target value.

    Parameters
    ----------
    patience:
        Stop after this many consecutive batches without ``min_delta``
        improvement of the best objective (``None`` disables stall detection).
    min_delta:
        Minimum improvement that resets the stall counter.
    target:
        Stop as soon as the best objective is at least this good (respecting
        the problem's optimization direction).
    """

    def __init__(self, patience: int | None = None, min_delta: float = 0.0,
                 target: float | None = None):
        if patience is not None and patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.min_delta = float(min_delta)
        self.target = target
        self._stalled = 0
        self._best: float | None = None

    def on_init(self, study, evaluations) -> None:
        # run_study reuses one callback instance across all seeds; each run
        # starts with a fresh incumbent and stall counter.
        self._stalled = 0
        self._best = None

    def _improved(self, study, best: float) -> bool:
        if self._best is None:
            return True
        if study.problem.minimize:
            return best < self._best - self.min_delta
        return best > self._best + self.min_delta

    def on_batch(self, study, iteration: int, evaluations) -> None:
        best = study.history.best_objective(constrained=study.constrained)
        if self.target is not None and study.problem.is_better(best, self.target):
            study.request_stop(f"target {self.target:g} reached (best {best:g})")
            return
        if self._improved(study, best):
            self._best = best
            self._stalled = 0
        else:
            self._stalled += 1
            if self.patience is not None and self._stalled >= self.patience:
                study.request_stop(
                    f"no improvement for {self._stalled} batches")
