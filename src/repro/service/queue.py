"""The leased work queue: evaluation batches as crash-safe SQLite jobs.

A **job** is one shard of one evaluation batch: a JSON payload carrying the
study's :class:`~repro.study.spec.StudySpec` dict and the design rows to
simulate.  Jobs are keyed ``(study_id, batch_index, shard_index)`` and live
in the results store's ``jobs`` table, moving through::

    queued --claim--> leased --complete--> done
      ^                  |
      |   lease expired / worker failed (attempts < max_attempts)
      +------------------+
                         |  attempts exhausted
                         +--------------------> failed

**Leases, not locks.**  A claim stamps the job with the worker's id and a
deadline; the worker extends the deadline by heartbeating while it
simulates.  If the worker is killed, the deadline passes and the job becomes
claimable again (each claim increments ``attempts``).  Because every
evaluation in this package is a deterministic function of the payload, a
re-leased job reproduces the lost attempt's results exactly -- so a crashed
worker costs wall-clock time, never correctness, and duplicate completions
write identical bytes into an idempotent slot.

:class:`QueueBackend` is the driver side: an
:class:`~repro.engine.backends.ExecutionBackend` whose ``job_dispatch``
capability flag tells the :class:`~repro.engine.engine.EvaluationEngine` to
hand it whole pending design blocks (see ``EvaluationEngine._dispatch``).
It shards them into jobs, blocks until workers complete them, and returns
per-row outcomes indistinguishable from in-process evaluation.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from repro.engine.backends import ExecutionBackend
from repro.errors import OptimizationError
from repro.service.store import ResultsStore, _dump

#: Default lease duration; generous against slow corner/MC fan-out jobs.
DEFAULT_LEASE_SECONDS = 60.0
#: Default per-job claim budget before a job is declared failed.
DEFAULT_MAX_ATTEMPTS = 5


@dataclass
class Job:
    """One claimed unit of work (a shard of an evaluation batch)."""

    job_id: int
    study_id: str
    batch_index: int
    shard_index: int
    payload: dict
    attempts: int
    max_attempts: int
    lease_expires: float


class WorkQueue:
    """Lease/retry job queue on top of a :class:`ResultsStore`.

    All state transitions are single short ``BEGIN IMMEDIATE`` transactions,
    so any number of worker processes can share one database file.
    """

    def __init__(self, store: ResultsStore):
        self.store = store

    # ------------------------------------------------------------------ #
    # producing                                                           #
    # ------------------------------------------------------------------ #
    def enqueue(self, study_id: str, batch_index: int, shard_index: int,
                payload: dict, max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> int:
        """Idempotently enqueue one job; returns its ``job_id``.

        If the slot already holds a job with the **same payload** it is left
        untouched -- in particular a ``done`` job keeps its result, which is
        how a resumed driver reuses work completed before it was killed
        (evaluations are deterministic, so the recorded result is exactly
        what a re-run would produce).  A different payload replaces the job
        and resets it to ``queued``.
        """
        payload_text = _dump(payload)
        now = time.time()
        with self.store.transaction() as conn:
            row = conn.execute(
                """SELECT job_id, payload FROM jobs
                   WHERE study_id = ? AND batch_index = ? AND shard_index = ?""",
                (study_id, int(batch_index), int(shard_index))).fetchone()
            if row is not None and row["payload"] == payload_text:
                return int(row["job_id"])
            if row is not None:
                conn.execute(
                    """UPDATE jobs SET payload = ?, status = 'queued',
                           attempts = 0, max_attempts = ?, lease_owner = NULL,
                           lease_expires = NULL, result = NULL, error = NULL,
                           updated_at = ?
                       WHERE job_id = ?""",
                    (payload_text, int(max_attempts), now, int(row["job_id"])))
                return int(row["job_id"])
            cursor = conn.execute(
                """INSERT INTO jobs
                       (study_id, batch_index, shard_index, payload,
                        max_attempts, created_at, updated_at)
                   VALUES (?, ?, ?, ?, ?, ?, ?)""",
                (study_id, int(batch_index), int(shard_index), payload_text,
                 int(max_attempts), now, now))
            return int(cursor.lastrowid)

    # ------------------------------------------------------------------ #
    # consuming                                                           #
    # ------------------------------------------------------------------ #
    def claim(self, worker_id: str,
              lease_seconds: float = DEFAULT_LEASE_SECONDS) -> Job | None:
        """Claim the oldest available job (or ``None`` if the queue is idle).

        Available means ``queued``, or ``leased`` with an expired deadline
        and attempts to spare; expired jobs out of attempts are moved to
        ``failed`` on the way.  The claim stamps ``lease_owner`` and a fresh
        deadline inside one write transaction, so two workers can never hold
        the same job.
        """
        now = time.time()
        with self.store.transaction() as conn:
            conn.execute(
                """UPDATE jobs SET status = 'failed', updated_at = ?,
                       error = COALESCE(error,
                           'lease expired with no attempts left')
                   WHERE status = 'leased' AND lease_expires < ?
                     AND attempts >= max_attempts""", (now, now))
            row = conn.execute(
                """SELECT * FROM jobs
                   WHERE status = 'queued'
                      OR (status = 'leased' AND lease_expires < ?)
                   ORDER BY created_at, job_id LIMIT 1""", (now,)).fetchone()
            if row is None:
                return None
            expires = now + float(lease_seconds)
            conn.execute(
                """UPDATE jobs SET status = 'leased', attempts = attempts + 1,
                       lease_owner = ?, lease_expires = ?, updated_at = ?
                   WHERE job_id = ?""",
                (worker_id, expires, now, int(row["job_id"])))
            return Job(job_id=int(row["job_id"]), study_id=row["study_id"],
                       batch_index=int(row["batch_index"]),
                       shard_index=int(row["shard_index"]),
                       payload=json.loads(row["payload"]),
                       attempts=int(row["attempts"]) + 1,
                       max_attempts=int(row["max_attempts"]),
                       lease_expires=expires)

    def heartbeat(self, job_id: int, worker_id: str,
                  lease_seconds: float = DEFAULT_LEASE_SECONDS) -> bool:
        """Extend a held lease; ``False`` means the lease was lost."""
        with self.store.transaction() as conn:
            cursor = conn.execute(
                """UPDATE jobs SET lease_expires = ?, updated_at = ?
                   WHERE job_id = ? AND lease_owner = ? AND status = 'leased'""",
                (time.time() + float(lease_seconds), time.time(),
                 int(job_id), worker_id))
            return cursor.rowcount > 0

    def complete(self, job_id: int, worker_id: str, results: list[dict]) -> bool:
        """Record a job's results; ``False`` if the lease was lost meanwhile.

        A lost lease is benign: either another worker already completed the
        re-leased job with identical (deterministic) results, or it will.
        The stale worker's results are discarded rather than racing the
        current lease holder.
        """
        with self.store.transaction() as conn:
            cursor = conn.execute(
                """UPDATE jobs SET status = 'done', result = ?, error = NULL,
                       updated_at = ?
                   WHERE job_id = ? AND lease_owner = ? AND status = 'leased'""",
                (_dump(results), time.time(), int(job_id), worker_id))
            return cursor.rowcount > 0

    def fail(self, job_id: int, worker_id: str, error: str) -> None:
        """Report a worker-side job failure: requeue, or fail permanently."""
        with self.store.transaction() as conn:
            conn.execute(
                """UPDATE jobs SET
                       status = CASE WHEN attempts >= max_attempts
                                     THEN 'failed' ELSE 'queued' END,
                       lease_owner = NULL, lease_expires = NULL,
                       error = ?, updated_at = ?
                   WHERE job_id = ? AND lease_owner = ? AND status = 'leased'""",
                (str(error)[:2000], time.time(), int(job_id), worker_id))

    # ------------------------------------------------------------------ #
    # inspection                                                          #
    # ------------------------------------------------------------------ #
    def job_rows(self, study_id: str | None = None) -> list[dict]:
        query = "SELECT * FROM jobs"
        args: tuple = ()
        if study_id is not None:
            query += " WHERE study_id = ?"
            args = (study_id,)
        rows = self.store.connection().execute(
            query + " ORDER BY study_id, batch_index, shard_index",
            args).fetchall()
        return [dict(row) for row in rows]

    def counts(self, study_id: str | None = None) -> dict[str, int]:
        query = "SELECT status, COUNT(*) AS n FROM jobs"
        args: tuple = ()
        if study_id is not None:
            query += " WHERE study_id = ?"
            args = (study_id,)
        rows = self.store.connection().execute(
            query + " GROUP BY status", args).fetchall()
        base = {"queued": 0, "leased": 0, "done": 0, "failed": 0}
        base.update({row["status"]: int(row["n"]) for row in rows})
        return base


# ---------------------------------------------------------------------- #
# the driver-side execution backend                                       #
# ---------------------------------------------------------------------- #
class QueueBackend(ExecutionBackend):
    """Dispatch evaluation batches through the work queue.

    Attached to a study's engine (``Study(spec,
    engine_backend=QueueBackend(...))``), it turns every pending design
    block into ``ceil(n / shard_size)`` jobs, waits for workers to complete
    them, and maps results back row by row: successful evaluations
    reconstruct bit-exactly via
    :func:`~repro.study.checkpoint.evaluation_from_dict`, failures come back
    as the engine's internal failure marker -- so failure isolation,
    pessimisation and caching behave exactly as in-process evaluation, and
    the study's final history is bit-identical to a serial run.
    """

    name = "queue"
    job_dispatch = True

    def __init__(self, store: ResultsStore | str, study_id: str,
                 spec_dict: dict, shard_size: int = 1,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 poll_interval: float = 0.1,
                 dispatch_timeout: float | None = None,
                 first_batch_index: int = 0):
        if shard_size < 1:
            raise OptimizationError(f"shard_size must be >= 1, got {shard_size}")
        self.store = store if isinstance(store, ResultsStore) else ResultsStore(store)
        self.queue = WorkQueue(self.store)
        self.study_id = str(study_id)
        self.spec_dict = dict(spec_dict)
        self.shard_size = int(shard_size)
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        self.poll_interval = float(poll_interval)
        #: ``None`` waits forever (workers may arrive late); a number bounds
        #: the wait so a worker-less deployment fails loudly instead of
        #: hanging the driver.
        self.dispatch_timeout = dispatch_timeout
        #: Next batch index to assign; a resumed driver starts it at the
        #: number of checkpointed batches so live dispatches line up with
        #: the job slots of the interrupted run and reuse their results.
        self.next_batch_index = int(first_batch_index)

    # ``map`` is unused (the engine routes through map_jobs), but keep the
    # base contract honest for any generic consumer.
    def map(self, fn, items):
        return [fn(item) for item in items]

    def map_jobs(self, problem, rows: list[np.ndarray]) -> list:
        """Evaluate design rows via the queue; blocks until all jobs land."""
        from repro.engine.backends import SimulationFailure
        from repro.study.checkpoint import evaluation_from_dict

        batch_index = self.next_batch_index
        self.next_batch_index += 1
        shards = [rows[i:i + self.shard_size]
                  for i in range(0, len(rows), self.shard_size)]
        job_ids = []
        for shard_index, shard in enumerate(shards):
            payload = {
                "kind": "evaluate",
                "study_id": self.study_id,
                "spec": self.spec_dict,
                "x": [[float(v) for v in np.asarray(row, dtype=float).ravel()]
                      for row in shard],
            }
            job_ids.append(self.queue.enqueue(
                self.study_id, batch_index, shard_index, payload,
                max_attempts=self.max_attempts))

        results_by_job = self._wait(job_ids, batch_index)
        outcomes: list = []
        for job_id in job_ids:
            for row_result in results_by_job[job_id]:
                if row_result.get("ok"):
                    outcomes.append(
                        evaluation_from_dict(row_result["evaluation"]))
                else:
                    outcomes.append(SimulationFailure(
                        row_result.get("kind", "RuntimeError"),
                        row_result.get("message", "worker-side failure")))
        return outcomes

    def _wait(self, job_ids: list[int], batch_index: int) -> dict[int, list]:
        deadline = (None if self.dispatch_timeout is None
                    else time.time() + self.dispatch_timeout)
        pending = set(job_ids)
        results: dict[int, list] = {}
        while pending:
            placeholders = ",".join("?" * len(pending))
            rows = self.store.connection().execute(
                f"SELECT job_id, status, result, error, attempts FROM jobs "
                f"WHERE job_id IN ({placeholders})",
                tuple(pending)).fetchall()
            for row in rows:
                if row["status"] == "done":
                    results[int(row["job_id"])] = json.loads(row["result"])
                    pending.discard(int(row["job_id"]))
                elif row["status"] == "failed":
                    raise OptimizationError(
                        f"study {self.study_id!r} batch {batch_index} job "
                        f"{row['job_id']} failed after {row['attempts']} "
                        f"attempt(s): {row['error']}")
            if not pending:
                break
            if deadline is not None and time.time() > deadline:
                counts = self.queue.counts(self.study_id)
                raise OptimizationError(
                    f"timed out after {self.dispatch_timeout:g}s waiting for "
                    f"{len(pending)} job(s) of study {self.study_id!r} batch "
                    f"{batch_index} (queue: {counts}); are any workers "
                    "running? start one with `python -m repro worker --db "
                    f"{self.store.path}`")
            time.sleep(self.poll_interval)
        return results

    def shutdown(self) -> None:
        """Nothing pooled to release (connections close with the store)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QueueBackend(store={self.store.path!r}, "
                f"study_id={self.study_id!r}, shard_size={self.shard_size})")
