"""End-to-end sizing-study benchmark with a separate per-layer traced run.

    python3 perfbench/run.py --workload kato_tl|mc_batched|mace_replay \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository (the program is imported
from ``src/``).  Every measured interpreter is a fresh child process with
BLAS/OpenMP pools pinned to one thread and the ``REPRO_TELEMETRY`` /
``REPRO_ENGINE_BACKEND`` knobs cleared, started the same way for every
workload after the bytecode is compiled and the page cache warmed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (``study_s``, ``setup_s``, ``cpu_s``,
``peak_rss_mb``, ``run_success_pct``); with ``--trace 1`` it carries the
per-layer metrics of :mod:`layers` instead.  The lines before it give the
metrics as a table, the output digests and the provenance of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Thread pools pinned for every child: with one BLAS thread the program's
#: pools never compete for the cores, and every run computes the same floats.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
#: Program knobs that would change what runs; never inherited.
CLEARED = ("REPRO_TELEMETRY", "REPRO_ENGINE_BACKEND")
#: Set-up samples from set-up-only interpreters (the measuring interpreter
#: adds one more); setup_s is their median.
SETUP_SAMPLES = 4
#: Every child is killed and the run fails after this many seconds.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"study_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "run_success_pct": "%"}
PER_LAYER_UNITS = {
    "startup.import_s": "s", "startup.build_problem_s": "s",
    "study.transfer_source_s": "s", "study.prime_cache_s": "s",
    "study.best_objective": "1", "study.n_feasible": "count",
    "engine.evaluate_batch_self_s": "s", "engine.designs": "count",
    "engine.cache_hit_pct": "%", "engine.eval_failure_pct": "%",
    "bench.run_self_s": "s", "bench.batch_run_self_s": "s",
    "spice.dc_s": "s", "spice.dc_solves": "count",
    "spice.newton_iters_mean": "count", "spice.newton_iters_p90": "count",
    "spice.dc_fail_pct": "%", "spice.ac_s": "s",
    "spice.dc_batch_s": "s", "spice.ac_batch_s": "s",
    "spice.tran_batch_s": "s", "spice.tran_steps": "count",
    "spice.newton_iters_batch_mean": "count",
    "mc.run_s": "s", "mc.samples_per_s": "1/s", "mc.yield": "1",
    "gp.fit_s": "s", "gp.fits": "count", "core.kat_fit_s": "s",
    "core.source_fit_s": "s", "moo.nsga2_s": "s", "moo.nsga2_calls": "count",
    "service.store_read_s": "s", "service.store_write_s": "s",
    "trace.study_s": "s", "trace.overhead_pct": "%",
    "trace.unattributed_s": "s",
}


class BenchError(RuntimeError):
    """A child failed, timed out or broke the event protocol."""


class Children:
    """Starts the benchmark's child interpreters and stops them all.

    A watchdog kills every live child at the deadline, so a hung child
    surfaces as an end of its event stream instead of a hung benchmark.
    """

    def __init__(self, env: dict, workdir: Path, deadline: float):
        self.env = env
        self.workdir = workdir
        self.live: list[subprocess.Popen] = []
        self.lock = threading.Lock()
        self.timed_out = False
        self.watchdog = threading.Timer(deadline, self._kill_all)
        self.watchdog.daemon = True
        self.watchdog.start()
        self.count = 0

    def _kill_all(self) -> None:
        with self.lock:
            self.timed_out = True
            for child in self.live:
                child.kill()

    def start(self, *args: str) -> subprocess.Popen:
        self.count += 1
        log_path = self.workdir / f"child{self.count}.log"
        with self.lock:
            if self.timed_out:
                raise BenchError(f"deadline of {DEADLINE_S:.0f} s passed")
            with open(log_path, "wb") as log:
                child = subprocess.Popen(args, cwd=ROOT, env=self.env,
                                         stdin=subprocess.DEVNULL,
                                         stdout=subprocess.PIPE, stderr=log,
                                         text=True)
            child.log_path = log_path
            self.live.append(child)
        return child

    def events(self, child: subprocess.Popen):
        """The child's events, then a check that it exited cleanly."""
        for line in child.stdout:
            yield json.loads(line)
        code = child.wait()
        child.stdout.close()
        with self.lock:
            self.live.remove(child)
        if code != 0 or self.timed_out:
            with open(child.log_path, encoding="utf-8", errors="replace") as log:
                tail = log.read()[-3000:]
            reason = "deadline passed" if self.timed_out else f"exit code {code}"
            raise BenchError(f"{' '.join(child.args[1:3])}: {reason}\n{tail}")

    def close(self) -> None:
        self.watchdog.cancel()
        with self.lock:
            for child in self.live:
                child.kill()
        for child in list(self.live):
            child.wait()
            child.stdout.close()


def child_env(workdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED}
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(workdir)
    return env


def git_sha() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Hash of every Python file under ``src/``: the program's identity
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_benchmark(args, children: Children, workdir: Path) -> dict:
    python = sys.executable
    worker = str(HERE / "worker.py")
    common = ("--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(workdir))

    # Compile the bytecode and warm the page cache, so every measured
    # interpreter starts from the same state.
    subprocess.run([python, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=ROOT, env=children.env, check=True,
                   stdout=subprocess.DEVNULL, timeout=DEADLINE_S)
    for _ in children.events(children.start(python, worker, "setup", *common)):
        pass
    if WORKLOADS[args.workload].populated:
        for _ in children.events(children.start(python, worker, "populate",
                                                *common)):
            pass

    setups: list[dict] = []

    def timed_start(*extra: str):
        started = time.perf_counter()
        child = children.start(python, worker, *extra, *common)
        events = children.events(child)
        ready = next(events)
        ready["setup_s"] = time.perf_counter() - started
        setups.append(ready)
        return events

    for _ in range(SETUP_SAMPLES):
        for _ in timed_start("setup"):
            pass
    measure = ["measure", "--seconds", str(args.seconds)]
    if args.trace:
        measure.append("--trace")
    reps, done = [], {}
    for event in timed_start(*measure):
        if event["event"] == "rep":
            reps.append(event)
        elif event["event"] == "done":
            done = event
    return {"setups": setups, "reps": reps, "done": done}


def summarize(args, raw: dict) -> dict:
    """The result object: metrics, correctness and the attempt counts."""
    reps, setups = raw["reps"], raw["setups"]
    untraced = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    failures = [f"rep {i}: {msg}" for i, rep in enumerate(reps)
                for msg in rep["failures"]]
    digests: dict[int, set] = {}
    for rep in reps:
        digests.setdefault(rep["rep"], set()).add(rep["digest"])
    for index, seen in digests.items():
        if len(seen) != 1:
            # Traced and untraced runs of one input: tracing changes no result.
            failures.append(f"rep {index} runs disagree on the output: {seen}")
    failed = sum(bool(rep["failures"]) for rep in reps)
    median = statistics.median

    if not args.trace:
        metrics = {
            "study_s": median(rep["wall_s"] for rep in untraced),
            "setup_s": median(s["setup_s"] for s in setups),
            "cpu_s": median(rep["cpu_s"] for rep in untraced),
            "peak_rss_mb": raw["done"]["peak_rss_mb"],
            "run_success_pct": 100.0 * (len(reps) - failed) / len(reps),
        }
        units = END_TO_END_UNITS
    else:
        from layers import SELF_TIMES, coverage_failures
        metrics = {name: statistics.fmean(rep["layers"][name] for rep in traced)
                   for name in traced[0]["layers"]}
        study_s = median(rep["wall_s"] for rep in traced)
        metrics.update({
            "startup.import_s": median(s["import_s"] for s in setups),
            "startup.build_problem_s": median(s["build_problem_s"] for s in setups),
            "study.best_objective": traced[0]["best_objective"] or 0.0,
            "study.n_feasible": traced[0]["n_feasible"] or 0,
            "trace.study_s": statistics.fmean(rep["wall_s"] for rep in traced),
            "trace.overhead_pct": 100.0 * (
                study_s / median(rep["wall_s"] for rep in untraced) - 1.0),
        })
        units = PER_LAYER_UNITS
        # Self times partition the traced time: every span's time is in
        # exactly one layer, the rest is unattributed.
        accounted = (sum(metrics[name] for name in SELF_TIMES)
                     + metrics["trace.unattributed_s"])
        if abs(accounted - metrics["trace.study_s"]) > 1e-6 * accounted:
            failures.append(f"layers account for {accounted:.6f} s of "
                            f"{metrics['trace.study_s']:.6f} s")
        for i, rep in enumerate(traced):
            failures += [f"traced rep {i}: {msg}" for msg in coverage_failures(
                args.workload, rep["self_s"], rep["calls"])]
    missing = [name for name in units if name not in metrics]
    if missing:
        failures.append(f"metrics not measured: {missing}")
    return {
        "result": {
            "correct": not failures,
            "attempted": len(reps),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items() if name in metrics},
        },
        "failures": failures,
        "digests": [sorted(seen) for _, seen in sorted(digests.items())],
        "missing_targets": traced[0]["missing"] if traced else [],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing (run from a checkout of the repository)",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env(workdir)
    children = Children(env, workdir, DEADLINE_S)
    try:
        raw = run_benchmark(args, children, workdir)
        report = summarize(args, raw)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        children.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    result = report["result"]
    for name, metric in result["metrics"].items():
        print(f"{args.workload:12s} {name:32s} {metric['value']:14.6g} "
              f"{metric['unit']}")
    for failure in report["failures"]:
        print(f"CHECK FAILED: {failure}")
    done = raw["done"]
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "source_digest": source_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": done.get("python"), "numpy": done.get("numpy"),
        "scipy": done.get("scipy"),
        "env": {**PINNED, **{name: None for name in CLEARED}},
        "output_digests": report["digests"],
        "missing_trace_targets": report["missing_targets"],
        "setup_samples_s": [s["setup_s"] for s in raw["setups"]],
        "reps": [{k: rep[k] for k in ("rep", "traced", "wall_s", "cpu_s")}
                 for rep in raw["reps"]],
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
