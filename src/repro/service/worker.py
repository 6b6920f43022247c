"""Queue workers: claim evaluation jobs, simulate, write results back.

A worker is a plain process (``python -m repro worker --db results.db``)
that loops claim → evaluate → complete against the shared store.  Several
workers against one database shard a study's evaluation batches between
them; workers can come and go freely because correctness lives in the queue
semantics (leases + deterministic evaluation), not in worker lifetime.

Evaluation mirrors the in-process engine exactly:

* a job's distinct cache misses go through one
  :func:`repro.engine.engine.evaluate_rows` call -- the engine's own fan-out
  over its backend's ``simulate`` -- so a ``backend="batched"`` worker
  stacks them into one session, and exceptions are encoded per row and
  shipped back for the coordinating study process to pessimise, exactly as
  a local backend would;
* results serialize via
  :func:`~repro.study.checkpoint.evaluation_to_dict`, whose float handling
  round-trips bit-exactly;
* a per-worker :class:`~repro.engine.cache.DesignCache` (the same class the
  engine uses, with the same clipped-design keying) serves repeat designs --
  e.g. a re-leased job whose rows the worker already simulated, or a row
  repeated within one job -- without re-simulating.

While a job runs, a daemon thread extends the lease and refreshes the
worker's heartbeat row, so the dashboard can tell a busy worker from a dead
one and a long simulation is never reaped mid-flight.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
import uuid

import numpy as np

from repro import telemetry
from repro.engine.backends import SimulationFailure
from repro.engine.cache import DesignCache
from repro.engine.engine import EvaluationEngine, evaluate_rows
from repro.service.queue import DEFAULT_LEASE_SECONDS, Job, WorkQueue
from repro.service.store import ResultsStore, _dump
from repro.study.checkpoint import evaluation_to_dict
from repro.study.spec import StudySpec


def make_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class Worker:
    """One claim-evaluate-complete loop against a results store.

    Parameters
    ----------
    store:
        The shared results store (path or instance).
    worker_id:
        Stable identity used for leases and the heartbeat row; generated
        when omitted.
    lease_seconds:
        Lease duration requested on claim and on each heartbeat extension.
    poll_interval:
        Idle sleep between claim attempts when the queue is empty.
    backend:
        Evaluation backend override for problems built from job specs
        (default ``"serial"``; ``"batched"`` stacks a job's distinct
        cache misses into one simulation session).  Workers never inherit
        the spec's backend -- a spec asking for a process pool should not
        make every worker spawn one.
    """

    def __init__(self, store: ResultsStore | str,
                 worker_id: str | None = None,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 poll_interval: float = 0.2,
                 backend: str = "serial"):
        self.store = store if isinstance(store, ResultsStore) else ResultsStore(store)
        self.queue = WorkQueue(self.store)
        self.worker_id = worker_id or make_worker_id()
        self.lease_seconds = float(lease_seconds)
        self.poll_interval = float(poll_interval)
        self.backend = backend
        self.n_jobs_done = 0
        self._problems: dict[str, object] = {}
        self._caches: dict[str, DesignCache] = {}
        self._stop = threading.Event()

    # ------------------------------------------------------------------ #
    # lifecycle                                                           #
    # ------------------------------------------------------------------ #
    def request_stop(self) -> None:
        self._stop.set()

    def run(self, max_jobs: int | None = None,
            idle_timeout: float | None = None) -> int:
        """Process jobs until stopped; returns the number completed.

        ``max_jobs`` bounds the number of jobs processed; ``idle_timeout``
        exits after that many consecutive seconds with an empty queue (how
        CI smoke workers wind down without signals).
        """
        self.store.register_worker(self.worker_id,
                                   hostname=socket.gethostname(),
                                   pid=os.getpid())
        idle_since: float | None = None
        try:
            while not self._stop.is_set():
                job = self.queue.claim(self.worker_id, self.lease_seconds)
                if job is None:
                    now = time.time()
                    idle_since = idle_since if idle_since is not None else now
                    if (idle_timeout is not None
                            and now - idle_since >= idle_timeout):
                        break
                    self.store.worker_heartbeat(self.worker_id, "idle")
                    self._stop.wait(self.poll_interval)
                    continue
                idle_since = None
                self.process_job(job)
                if max_jobs is not None and self.n_jobs_done >= max_jobs:
                    break
        finally:
            self.store.worker_heartbeat(self.worker_id, "stopped")
            self._release_problems()
        return self.n_jobs_done

    def _release_problems(self) -> None:
        for problem in self._problems.values():
            try:
                problem.engine.close()
                problem.close()
            except Exception:  # pragma: no cover - shutdown is best-effort
                pass
        self._problems.clear()

    # ------------------------------------------------------------------ #
    # one job                                                             #
    # ------------------------------------------------------------------ #
    def process_job(self, job: Job) -> bool:
        """Evaluate one claimed job; returns True if the completion landed.

        Each heartbeat carries the job's wall time and evaluated row count
        as deltas, so the dashboard's per-worker throughput stays fresh
        without a second bookkeeping channel.
        """
        self.store.worker_heartbeat(self.worker_id, "busy",
                                    current_job=job.job_id)
        stop_beat = threading.Event()
        beat = threading.Thread(target=self._heartbeat_loop,
                                args=(job, stop_beat), daemon=True)
        beat.start()
        started = time.perf_counter()
        try:
            with telemetry.span("worker.job", job=job.job_id,
                                study=job.study_id,
                                batch=job.batch_index):
                results = self._evaluate_payload(job.payload)
        except Exception as exc:  # noqa: BLE001 - job-level isolation
            stop_beat.set()
            beat.join()
            self.queue.fail(job.job_id, self.worker_id,
                            f"{type(exc).__name__}: {exc}\n"
                            f"{traceback.format_exc(limit=5)}")
            self.store.worker_heartbeat(
                self.worker_id, "idle",
                busy_seconds_delta=time.perf_counter() - started)
            return False
        wall = time.perf_counter() - started
        stop_beat.set()
        beat.join()
        landed = self.queue.complete(job.job_id, self.worker_id, results)
        self.n_jobs_done += 1
        self.store.worker_heartbeat(self.worker_id, "idle",
                                    jobs_done_delta=1,
                                    rows_delta=len(results),
                                    busy_seconds_delta=wall)
        if telemetry.enabled():
            telemetry.observe("repro_job_seconds", wall,
                              telemetry.SECONDS_BUCKETS)
            telemetry.inc("repro_jobs_done_total")
            telemetry.inc("repro_rows_evaluated_total", len(results))
            # pid rides along so /api/metrics can collapse sources sharing
            # one process registry (e.g. --spawn-workers threads).
            self.store.write_metrics_snapshot(
                job.study_id, job.batch_index,
                {**telemetry.snapshot(), "pid": os.getpid()},
                source=self.worker_id)
        return landed

    def _heartbeat_loop(self, job: Job, stop: threading.Event) -> None:
        interval = max(0.05, self.lease_seconds / 3.0)
        while not stop.wait(interval):
            if not self.queue.heartbeat(job.job_id, self.worker_id,
                                        self.lease_seconds):
                return  # lease lost; completion will be rejected anyway
            self.store.worker_heartbeat(self.worker_id, "busy",
                                        current_job=job.job_id)

    # ------------------------------------------------------------------ #
    # evaluation                                                          #
    # ------------------------------------------------------------------ #
    def _problem_for(self, spec_dict: dict):
        """Build (and memoise) the problem a job's spec describes.

        Keyed on the canonical spec JSON, so every job of one study reuses
        one problem instance -- and its engine plumbing -- instead of
        rebuilding testbenches per job.  The worker overrides the spec's
        evaluation backend with its own.
        """
        key = _dump(spec_dict)
        problem = self._problems.get(key)
        if problem is None:
            from dataclasses import replace
            spec = replace(StudySpec.from_dict(spec_dict),
                           backend=self.backend, max_workers=None)
            problem = spec.build_problem()
            self._problems[key] = problem
            self._caches[key] = problem.engine.cache or DesignCache()
        return problem, self._caches[key]

    def _evaluate_payload(self, payload: dict) -> list[dict]:
        if payload.get("kind") != "evaluate":
            raise ValueError(f"unknown job kind {payload.get('kind')!r}")
        problem, cache = self._problem_for(payload["spec"])
        space = problem.design_space
        token = getattr(problem, "cache_token", problem.name)
        rows = [np.asarray(row, dtype=float) for row in payload["x"]]
        keys = [DesignCache.key_for(token, space.clip(x.reshape(1, -1))[0])
                for x in rows]
        known: dict[str, object] = {}
        pending: dict[str, np.ndarray] = {}
        for x, key in zip(rows, keys):
            if key in known or key in pending:
                # Repeated within the job: simulated once, like the engine.
                cache.record_saved_duplicate()
            elif (hit := cache.get(key)) is None:
                pending[key] = x
            else:
                known[key] = hit
        outcomes = evaluate_rows(problem, list(pending.values()),
                                 problem.engine.backend)
        for key, outcome in zip(pending, outcomes):
            if not isinstance(outcome, SimulationFailure):
                # Successes only, like the engine: failures may be
                # environment-transient and should retry on a fresh claim.
                cache.put(key, outcome)
            known[key] = outcome
        results: list[dict] = []
        for x, key in zip(rows, keys):
            outcome = known[key]
            if isinstance(outcome, SimulationFailure):
                results.append({"ok": False, "kind": outcome.kind,
                                "message": outcome.message})
            else:
                # Clone onto the requested raw x, as the engine's cache
                # layer does (keys use the clipped design, records keep x).
                results.append({"ok": True, "evaluation": evaluation_to_dict(
                    EvaluationEngine._clone(outcome, x))})
        return results


def run_worker(db_path: str, worker_id: str | None = None,
               lease_seconds: float = DEFAULT_LEASE_SECONDS,
               poll_interval: float = 0.2, backend: str = "serial",
               max_jobs: int | None = None,
               idle_timeout: float | None = None) -> int:
    """Entry point behind ``python -m repro worker``."""
    worker = Worker(db_path, worker_id=worker_id,
                    lease_seconds=lease_seconds,
                    poll_interval=poll_interval, backend=backend)
    try:
        return worker.run(max_jobs=max_jobs, idle_timeout=idle_timeout)
    except KeyboardInterrupt:
        worker.request_stop()
        return worker.n_jobs_done
    finally:
        worker.store.close()
