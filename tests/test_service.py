"""Tests for the study service: store, checkpoints, queue, workers, HTTP API.

The service's core guarantee is that none of its machinery changes results:
a store-checkpointed study resumes bit-identically (including from a fresh
process), and a study distributed over any number of workers -- including
workers that die mid-job -- produces exactly the history of a serial run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import service_plugin  # noqa: F401 - registers the service_quadratic problem
from repro.errors import OptimizationError
from repro.service.api import create_server, study_curve, study_pareto
from repro.service.driver import resume_service_study, run_service_study
from repro.service.queue import QueueBackend, WorkQueue
from repro.service.store import ResultsStore, StoreCheckpoint, derive_study_id
from repro.service.worker import Worker
from repro.study import Study, StudyCallback, StudySpec, read_checkpoint
from repro.study.cli import main as cli_main

_TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
_SRC_DIR = os.path.join(os.path.dirname(_TESTS_DIR), "src")

_MACE_OPTIONS = {"surrogate_train_iters": 8, "pop_size": 12,
                 "n_generations": 4}


def _spec(**overrides) -> StudySpec:
    base = dict(optimizer="mace", circuit="service_quadratic",
                n_simulations=14, n_init=6, batch_size=2, seed=5,
                optimizer_options=_MACE_OPTIONS)
    base.update(overrides)
    return StudySpec(**base)


def _subprocess_env(**extra) -> dict:
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([_SRC_DIR, _TESTS_DIR]))
    env.pop("SVC_SIM_SLEEP", None)  # never inherit a stray slowdown
    env.update(extra)
    return env


class _KillAfter(StudyCallback):
    """Simulates a mid-run kill by raising after N batches."""

    def __init__(self, batches: int):
        self.batches = batches

    def on_batch(self, study, iteration, evaluations):
        if iteration >= self.batches:
            raise KeyboardInterrupt


@pytest.fixture(scope="module")
def reference_result():
    """The serial, uncheckpointed run every service variant must reproduce."""
    return Study(_spec()).run()


@pytest.fixture
def store(tmp_path):
    store = ResultsStore(tmp_path / "results.db")
    yield store
    store.close()


def _assert_history_identical(result, reference) -> None:
    np.testing.assert_array_equal(result.history.x, reference.history.x)
    np.testing.assert_array_equal(result.history.objectives,
                                  reference.history.objectives)


# ---------------------------------------------------------------------- #
# results store                                                           #
# ---------------------------------------------------------------------- #
class TestResultsStore:
    def test_store_checkpoint_matches_jsonl_records(self, tmp_path, store,
                                                    reference_result):
        spec = _spec()
        jsonl = tmp_path / "ref.jsonl"
        jsonl_result = Study(spec, checkpoint=str(jsonl)).run()
        _assert_history_identical(jsonl_result, reference_result)
        store_result = Study(spec,
                             checkpoint=StoreCheckpoint(store, "st")).run()
        _assert_history_identical(store_result, reference_result)
        # The store holds the same records the JSONL file does, verbatim.
        assert (store.read_checkpoint_data("st").raw_records
                == read_checkpoint(jsonl).raw_records)
        row = store.study_row("st")
        assert row["status"] == "finished"
        assert store.list_studies()[0]["n_evaluations"] == spec.n_simulations

    def test_batch_record_upsert_is_idempotent(self, store):
        spec_dict = _spec().to_dict()
        store.upsert_study("s", spec_dict, seed=5)
        record = {"kind": "batch", "index": 0, "phase": "init", "n_total": 2,
                  "evaluations": [
                      {"x": [0.1, 0.2, 0.3], "objective": 1.0,
                       "feasible": True, "violation": 0.0, "metrics": {},
                       "tag": None}]}
        store.write_batch_record("s", record)
        store.write_batch_record("s", record)
        assert len(store.batch_rows("s")) == 1
        assert len(store.evaluation_rows("s")) == 1
        assert store.batch_rows("s", since=0) == []

    def test_derive_study_id_content_addressed(self):
        spec = _spec()
        first = derive_study_id(spec.to_dict(), 5)
        assert first == derive_study_id(spec.to_dict(), 5)
        assert first.startswith("mace-service_quadratic-s5-")
        assert first != derive_study_id(spec.to_dict(), 6)
        assert first != derive_study_id(_spec(n_simulations=16).to_dict(), 5)

    def test_bench_ingest_dedupes(self, store):
        assert store.ingest_bench_record("BENCH_X", {"runtime": 1.5})
        assert not store.ingest_bench_record("BENCH_X", {"runtime": 1.5})
        assert store.ingest_bench_record("BENCH_X", {"runtime": 2.5})
        assert len(store.bench_rows("BENCH_X")) == 2
        assert store.bench_rows("BENCH_Y") == []


# ---------------------------------------------------------------------- #
# kill-and-resume through the store (the regression gate)                 #
# ---------------------------------------------------------------------- #
class TestStoreCheckpointResume:
    def test_kill_and_resume_is_bit_identical(self, store, reference_result):
        checkpoint = StoreCheckpoint(store, "killed")
        with pytest.raises(KeyboardInterrupt):
            Study(_spec(), callbacks=(_KillAfter(2),),
                  checkpoint=checkpoint).run()
        partial = store.read_checkpoint_data("killed")
        assert not partial.finished
        assert 0 < len(partial.evaluations) < _spec().n_simulations
        resumed = Study.resume(checkpoint).run()
        assert resumed.resumed
        assert resumed.n_replayed == len(partial.evaluations)
        _assert_history_identical(resumed, reference_result)
        assert store.study_row("killed")["status"] == "finished"

    def test_fresh_process_resume_is_bit_identical(self, store, tmp_path,
                                                   reference_result):
        study_id = "fresh"
        with pytest.raises(KeyboardInterrupt):
            Study(_spec(), callbacks=(_KillAfter(2),),
                  checkpoint=StoreCheckpoint(store, study_id)).run()
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "resume", study_id,
             "--db", str(store.path), "--import", "service_plugin",
             "--quiet", "-o", str(tmp_path / "out.jsonl")],
            env=_subprocess_env(), capture_output=True, text=True,
            timeout=180)
        assert completed.returncode == 0, completed.stderr
        data = store.read_checkpoint_data(study_id)
        assert data.finished
        resumed_x = np.array([e.x for e in data.evaluations])
        np.testing.assert_array_equal(resumed_x, reference_result.history.x)
        record = json.loads((tmp_path / "out.jsonl").read_text())
        assert record["resumed"] and record["n_replayed"] > 0

    def test_resubmitting_identical_spec_resumes(self, store,
                                                 reference_result):
        first = run_service_study(_spec(), store)
        second = run_service_study(_spec(), store)
        assert second["study_ids"] == first["study_ids"]
        result = second["results"][0]
        assert result.resumed
        assert result.n_replayed == _spec().n_simulations
        # The replay is free: every replayed design comes from the cache.
        assert result.engine_stats["cache"]["hits"] >= result.n_replayed
        _assert_history_identical(result, reference_result)

    def test_explicit_id_with_different_spec_is_refused(self, store):
        run_service_study(_spec(n_simulations=8), store, study_id="fixed")
        with pytest.raises(OptimizationError, match="different spec"):
            run_service_study(_spec(n_simulations=10), store,
                              study_id="fixed")

    def test_jsonl_import_roundtrip_resume(self, store, tmp_path,
                                           reference_result):
        jsonl = tmp_path / "partial.jsonl"
        with pytest.raises(KeyboardInterrupt):
            Study(_spec(), callbacks=(_KillAfter(2),),
                  checkpoint=str(jsonl)).run()
        study_id = store.import_jsonl(jsonl)
        assert study_id == derive_study_id(_spec().to_dict(), 5)
        assert (store.read_checkpoint_data(study_id).raw_records
                == read_checkpoint(jsonl).raw_records)
        resumed = resume_service_study(store, study_id)
        assert resumed.resumed
        _assert_history_identical(resumed, reference_result)


# ---------------------------------------------------------------------- #
# work queue                                                              #
# ---------------------------------------------------------------------- #
class TestWorkQueue:
    def test_claim_complete_lifecycle(self, store):
        queue = WorkQueue(store)
        job_id = queue.enqueue("s", 0, 0, {"kind": "evaluate", "x": [[0.5]]})
        assert queue.counts("s")["queued"] == 1
        job = queue.claim("w1", lease_seconds=30.0)
        assert job.job_id == job_id and job.attempts == 1
        assert queue.claim("w2", lease_seconds=30.0) is None  # held by w1
        assert queue.complete(job.job_id, "w1", [{"ok": True}])
        assert queue.counts("s") == {"queued": 0, "leased": 0, "done": 1,
                                     "failed": 0}

    def test_expired_lease_is_reclaimed(self, store):
        queue = WorkQueue(store)
        job_id = queue.enqueue("s", 0, 0, {"kind": "evaluate"})
        first = queue.claim("w1", lease_seconds=0.05)
        time.sleep(0.1)
        second = queue.claim("w2", lease_seconds=30.0)
        assert second is not None and second.job_id == job_id
        assert second.attempts == 2
        # The stale worker's completion is rejected; the new one's lands.
        assert not queue.complete(first.job_id, "w1", [{"ok": True}])
        assert queue.complete(second.job_id, "w2", [{"ok": True}])

    def test_exhausted_attempts_fail_permanently(self, store):
        queue = WorkQueue(store)
        queue.enqueue("s", 0, 0, {"kind": "evaluate"}, max_attempts=1)
        assert queue.claim("w1", lease_seconds=0.01) is not None
        time.sleep(0.05)
        assert queue.claim("w2") is None
        counts = queue.counts("s")
        assert counts["failed"] == 1 and counts["queued"] == 0
        assert "lease expired" in queue.job_rows("s")[0]["error"]

    def test_worker_failure_requeues_until_exhausted(self, store):
        queue = WorkQueue(store)
        queue.enqueue("s", 0, 0, {"kind": "evaluate"}, max_attempts=2)
        job = queue.claim("w1")
        queue.fail(job.job_id, "w1", "boom")
        assert queue.counts("s")["queued"] == 1
        job = queue.claim("w1")
        queue.fail(job.job_id, "w1", "boom again")
        assert queue.counts("s")["failed"] == 1

    def test_enqueue_is_idempotent_and_keeps_done_results(self, store):
        queue = WorkQueue(store)
        payload = {"kind": "evaluate", "x": [[0.5]]}
        job_id = queue.enqueue("s", 0, 0, payload)
        job = queue.claim("w1")
        queue.complete(job.job_id, "w1", [{"ok": True}])
        # Same payload: the done job (and its result) survives re-enqueue.
        assert queue.enqueue("s", 0, 0, payload) == job_id
        assert queue.counts("s")["done"] == 1
        # Different payload: the slot resets to queued.
        assert queue.enqueue("s", 0, 0, {"kind": "evaluate",
                                         "x": [[0.7]]}) == job_id
        counts = queue.counts("s")
        assert counts["done"] == 0 and counts["queued"] == 1


# ---------------------------------------------------------------------- #
# distributed execution                                                   #
# ---------------------------------------------------------------------- #
def _worker_threads(store_path, count, **worker_kwargs):
    workers = [Worker(store_path, worker_id=f"t{index}", **worker_kwargs)
               for index in range(count)]
    threads = [threading.Thread(target=worker.run, daemon=True)
               for worker in workers]
    for thread in threads:
        thread.start()
    return workers, threads


class TestWorkerEvaluation:
    def test_batched_worker_stacks_a_jobs_rows(self, store, monkeypatch):
        from repro.bench import BatchSimulator, Simulator
        from repro.circuits import make_problem
        calls = {"run": 0, "batch": 0}
        run, batch_run = Simulator.run, BatchSimulator.run

        def counting_run(self, *args, **kwargs):
            calls["run"] += 1
            return run(self, *args, **kwargs)

        def counting_batch(self, *args, **kwargs):
            calls["batch"] += 1
            return batch_run(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", counting_run)
        monkeypatch.setattr(BatchSimulator, "run", counting_batch)
        space = make_problem("two_stage_opamp").design_space
        rows = space.sample(3, rng=np.random.default_rng(8))
        # The fourth row repeats the first: simulated once per job.
        x = [[float(v) for v in row] for row in (*rows, rows[0])]
        spec = StudySpec(optimizer="rs", circuit="two_stage_opamp",
                         n_simulations=4, n_init=4).to_dict()
        payload = {"kind": "evaluate", "spec": spec, "x": x}

        serial = Worker(store, worker_id="serial")._evaluate_payload(payload)
        assert calls == {"run": 3, "batch": 0}
        batched = Worker(store, worker_id="batched",
                         backend="batched")._evaluate_payload(payload)
        assert calls == {"run": 3, "batch": 1}
        assert batched == serial
        assert len(batched) == 4 and all(row["ok"] for row in batched)
        assert batched[3]["evaluation"] == batched[0]["evaluation"]


class TestDistributed:
    def test_two_workers_match_serial_run(self, store, reference_result):
        workers, threads = _worker_threads(store.path, 2)
        try:
            outcome = run_service_study(_spec(), store, distributed=True,
                                        dispatch_timeout=120.0)
        finally:
            for worker in workers:
                worker.request_stop()
            for thread in threads:
                thread.join(timeout=30.0)
            for worker in workers:
                worker.store.close()
        _assert_history_identical(outcome["results"][0], reference_result)
        study_id = outcome["study_ids"][0]
        counts = WorkQueue(store).counts(study_id)
        assert counts["failed"] == 0 and counts["queued"] == 0
        assert counts["done"] > 0
        # Both workers did some of the jobs (two idle workers polling a
        # steadily fed queue cannot starve one side entirely).
        owners = {row["lease_owner"] for row in WorkQueue(store).job_rows()}
        assert owners == {"t0", "t1"}
        assert store.study_row(study_id)["status"] == "finished"

    def test_dispatch_timeout_without_workers(self, store):
        with pytest.raises(OptimizationError, match="worker"):
            run_service_study(_spec(), store, distributed=True,
                              dispatch_timeout=0.3)
        assert store.study_row(derive_study_id(_spec().to_dict(),
                                               5))["status"] == "failed"

    def test_failed_job_surfaces_in_driver(self, store):
        backend = QueueBackend(store, "s", _spec().to_dict(),
                               max_attempts=1, dispatch_timeout=30.0)
        queue = WorkQueue(store)

        def poison():
            for _ in range(200):
                job = queue.claim("saboteur", lease_seconds=5.0)
                if job is not None:
                    queue.fail(job.job_id, "saboteur", "injected failure")
                    return
                time.sleep(0.02)

        thread = threading.Thread(target=poison, daemon=True)
        thread.start()
        problem = service_plugin.ServiceQuadratic()
        try:
            with pytest.raises(OptimizationError, match="injected failure"):
                backend.map_jobs(problem, [np.array([0.5, 0.5, 0.5])])
        finally:
            thread.join(timeout=10.0)
            problem.close()

    def test_sigkilled_worker_batch_is_releaded(self, store, tmp_path,
                                                reference_result):
        """A SIGKILLed worker's job is re-leased; the study still matches."""
        spec = _spec()
        outcome_box: dict = {}

        def drive():
            try:
                outcome_box["outcome"] = run_service_study(
                    spec, ResultsStore(store.path), distributed=True,
                    lease_seconds=1.0, dispatch_timeout=180.0)
            except BaseException as exc:  # pragma: no cover - surfaced below
                outcome_box["error"] = exc

        driver = threading.Thread(target=drive, daemon=True)
        driver.start()

        # A deliberately slow subprocess worker claims the first job...
        slow = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--db",
             str(store.path), "--import", "service_plugin",
             "--worker-id", "doomed", "--lease", "1.0"],
            env=_subprocess_env(SVC_SIM_SLEEP="60"),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            queue = WorkQueue(store)
            deadline = time.time() + 120.0
            while time.time() < deadline:
                leased = [row for row in queue.job_rows()
                          if row["lease_owner"] == "doomed"
                          and row["status"] == "leased"]
                if leased:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("slow worker never claimed a job")
            # ... and is killed mid-simulation, stranding the lease.
            slow.kill()
            slow.wait(timeout=30)
        finally:
            if slow.poll() is None:  # pragma: no cover - cleanup path
                slow.kill()

        # A healthy worker picks up the expired lease and finishes the study.
        workers, threads = _worker_threads(store.path, 1, lease_seconds=5.0)
        try:
            driver.join(timeout=180.0)
            assert not driver.is_alive(), "driver did not finish"
        finally:
            for worker in workers:
                worker.request_stop()
            for thread in threads:
                thread.join(timeout=30.0)
            for worker in workers:
                worker.store.close()
        if "error" in outcome_box:
            raise outcome_box["error"]
        result = outcome_box["outcome"]["results"][0]
        _assert_history_identical(result, reference_result)
        rows = WorkQueue(store).job_rows()
        releaded = [row for row in rows if row["attempts"] > 1]
        assert releaded, "the stranded job was never re-leased"
        assert all(row["status"] == "done" for row in rows)
        # No duplicates or gaps: one result row per design the driver asked
        # for, and the history length matches the budget exactly.
        assert len(result.history) == spec.n_simulations


# ---------------------------------------------------------------------- #
# HTTP API                                                                #
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def api_server(tmp_path_factory):
    store = ResultsStore(tmp_path_factory.mktemp("api") / "api.db")
    outcome = run_service_study(_spec(), store)
    store.ingest_bench_record("BENCH_DEMO", {"runtime": 1.25})
    store.register_worker("w1", hostname="h", pid=1)
    server = create_server(store, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield store, outcome["study_ids"][0], server.server_address[1]
    server.shutdown()
    server.server_close()
    store.close()


def _get(port: int, path: str):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
        return json.loads(response.read())


class TestApi:
    def test_health_studies_and_detail(self, api_server):
        store, study_id, port = api_server
        assert _get(port, "/healthz")["status"] == "ok"
        studies = _get(port, "/api/studies")
        assert [s["study_id"] for s in studies] == [study_id]
        assert studies[0]["n_evaluations"] == _spec().n_simulations
        detail = _get(port, f"/api/studies/{study_id}")
        assert detail["status"] == "finished"
        assert detail["spec"]["optimizer"] == "mace"
        assert detail["best"]["objective"] <= studies[0]["best"]["objective"]

    def test_batches_history_and_curve(self, api_server):
        store, study_id, port = api_server
        batches = _get(port, f"/api/studies/{study_id}/batches")
        assert batches[0]["phase"] == "init"
        assert sum(b["n_evaluations"] for b in batches) == 14
        assert _get(port, f"/api/studies/{study_id}/batches?since=1") \
            == batches[2:]
        history = _get(port, f"/api/studies/{study_id}/history")
        assert len(history) == 14 and len(history[0]["x"]) == 3
        assert _get(port, f"/api/studies/{study_id}/history?limit=3") \
            == history[-3:]
        curve = _get(port, f"/api/studies/{study_id}/curve")["curve"]
        finite = [value for value in curve if value is not None]
        assert finite == sorted(finite, reverse=True)  # monotone best-so-far

    def test_pareto_front_is_nondominated(self, api_server):
        store, study_id, port = api_server
        front = _get(port, f"/api/studies/{study_id}/pareto"
                           "?metrics=objective,violation")["front"]
        assert front
        points = [(p["values"]["objective"], p["values"]["violation"])
                  for p in front]
        for a in points:
            assert not any(b[0] <= a[0] and b[1] <= a[1] and b != a
                           for b in points)

    def test_workers_jobs_and_bench(self, api_server):
        store, study_id, port = api_server
        workers = _get(port, "/api/workers")
        assert workers[0]["worker_id"] == "w1"
        assert "alive" in workers[0]
        assert _get(port, "/api/jobs")["counts"]["failed"] == 0
        bench = _get(port, "/api/bench?name=BENCH_DEMO")
        assert bench[0]["record"] == {"runtime": 1.25}
        assert any(entry["name"] == "mace"
                   for entry in _get(port, "/api/optimizers"))
        assert any(entry["name"] == "service_quadratic"
                   for entry in _get(port, "/api/problems"))

    def test_error_statuses(self, api_server):
        store, study_id, port = api_server
        for path, status in [("/api/studies/nope", 404),
                             ("/api/unknown", 404),
                             (f"/api/studies/{study_id}/pareto"
                              "?metrics=a,b&senses=min", 400)]:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(port, path)
            assert excinfo.value.code == status
            assert "error" in json.loads(excinfo.value.read())

    def test_dashboard_html(self, api_server):
        store, study_id, port = api_server
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/") as response:
            body = response.read().decode()
            assert response.headers["Content-Type"].startswith("text/html")
        assert "repro study service" in body

    def test_query_helpers_validate(self, store):
        outcome = run_service_study(_spec(n_simulations=8), store)
        study_id = outcome["study_ids"][0]
        from repro.service.api import ApiError
        with pytest.raises(ApiError) as excinfo:
            study_pareto(store, study_id, metrics=["no_such_metric"])
        assert excinfo.value.status == 400
        with pytest.raises(ApiError):
            study_curve(store, "missing-study")
        maximised = study_curve(store, study_id, sense="max")["curve"]
        finite = [value for value in maximised if value is not None]
        assert finite == sorted(finite)


# ---------------------------------------------------------------------- #
# CLI                                                                     #
# ---------------------------------------------------------------------- #
class TestCliService:
    def test_list_json_outputs(self, capsys):
        assert cli_main(["list-optimizers", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {"name", "aliases", "constrained"} <= set(entries[0])
        assert cli_main(["list-problems", "service_quadratic", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 1
        assert entries[0]["name"] == "service_quadratic"
        assert entries[0]["n_design_variables"] == 3

    def test_unknown_names_exit_3(self, capsys):
        assert cli_main(["list-optimizers", "definitely-not-real"]) == 3
        assert "unknown optimizer" in capsys.readouterr().err
        assert cli_main(["list-problems", "definitely-not-real"]) == 3
        assert "unknown problem" in capsys.readouterr().err
        assert cli_main(["list-optimizers", "rs"]) == 0  # aliases resolve
        assert "random_search" in capsys.readouterr().out

    def test_run_with_db_and_spawned_workers(self, tmp_path, capsys,
                                             reference_result):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_spec().to_dict()))
        db = tmp_path / "cli.db"
        code = cli_main(["run", str(spec_path), "--db", str(db),
                         "--spawn-workers", "2", "--quiet",
                         "-o", str(tmp_path / "out.jsonl")])
        assert code == 0
        record = json.loads((tmp_path / "out.jsonl").read_text())
        assert record["n_simulations"] == 14
        with ResultsStore(db) as store:
            study_id = store.list_studies()[0]["study_id"]
            data = store.read_checkpoint_data(study_id)
            assert data.finished
            np.testing.assert_array_equal(
                np.array([e.x for e in data.evaluations]),
                reference_result.history.x)

    def test_db_import_and_ingest_bench(self, tmp_path, capsys):
        jsonl = tmp_path / "study.jsonl"
        Study(_spec(n_simulations=8), checkpoint=str(jsonl)).run()
        db = tmp_path / "tools.db"
        assert cli_main(["db", "import", str(jsonl), "--db", str(db),
                         "--study-id", "imported"]) == 0
        assert "imported" in capsys.readouterr().out
        bench = tmp_path / "BENCH_SMOKE.json"
        bench.write_text(json.dumps(
            {"name": "BENCH_SMOKE", "records": [{"runtime": 0.5},
                                                {"runtime": 0.7}]}))
        assert cli_main(["db", "ingest-bench", str(bench),
                         "--db", str(db)]) == 0
        assert "2 new of 2" in capsys.readouterr().out
        # Re-ingestion is a no-op (records dedupe on content).
        assert cli_main(["db", "ingest-bench", str(bench),
                         "--db", str(db)]) == 0
        assert "0 new of 2" in capsys.readouterr().out
        with ResultsStore(db) as store:
            assert store.study_exists("imported")
            assert len(store.bench_rows("BENCH_SMOKE")) == 2

    def test_service_flags_require_db(self, capsys):
        assert cli_main(["run", "nonexistent.json", "--distributed"]) == 2
        assert "--db" in capsys.readouterr().err

    def test_worker_idle_timeout_exits_cleanly(self, tmp_path, capsys):
        db = tmp_path / "idle.db"
        ResultsStore(db).close()
        assert cli_main(["worker", "--db", str(db),
                         "--idle-timeout", "0.2"]) == 0
        assert "0 jobs" in capsys.readouterr().err
