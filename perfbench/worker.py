"""One fresh interpreter of the benchmark: a set-up sample, a measurement or
the untimed populating run.

    python perfbench/worker.py setup|measure|populate --workload NAME \\
        --seed N --workdir DIR [--seconds S] [--trace]

``setup`` imports the workload's modules, builds its problem, reports
``ready`` and exits.  ``measure`` does the same set-up, then repeats the
timed part while the next repetition fits in ``--seconds``; with
``--trace`` each repetition runs untraced, then traced.  ``populate`` runs
the workload's untimed preparation.  Events are JSON lines on the original standard output; the
program's own output is sent to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from workloads import WORKLOADS


def _measure(workload, args, emit) -> None:
    if args.trace:
        from layers import Tracer
    start = time.perf_counter()
    rep = 0
    while True:
        # A traced run repeats each repetition's inputs traced, so the two
        # outputs can be compared.
        pair_wall = 0.0
        for traced in (False, True) if args.trace else (False,):
            tracer = Tracer() if traced else None
            wall0, cpu0 = time.perf_counter(), time.process_time()
            if tracer is not None:
                with tracer:
                    summary = workload.run(rep)
            else:
                summary = workload.run(rep)
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            pair_wall += wall
            event = {"event": "rep", "rep": rep, "traced": traced,
                     "wall_s": wall, "cpu_s": cpu, "digest": summary["digest"],
                     "failures": workload.check(summary)}
            if tracer is not None:
                self_s, _, calls, _ = tracer.self_times()
                event.update(layers=tracer.layer_metrics(wall), self_s=self_s,
                             calls=calls, missing=tracer.missing,
                             best_objective=summary.get("best_objective"),
                             n_feasible=summary.get("n_feasible"))
            emit(event)
        rep += 1
        # Stop before a repetition that would end past the budget.
        if time.perf_counter() - start + pair_wall > args.seconds:
            break


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "populate"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    events = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())

    def emit(event: dict) -> None:
        events.write(json.dumps(event) + "\n")

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    if args.mode == "populate":
        workload.populate()
        emit({"event": "populated"})
        return 0

    t0 = time.perf_counter()
    workload.import_modules()
    t1 = time.perf_counter()
    workload.prepare()
    t2 = time.perf_counter()
    emit({"event": "ready", "import_s": t1 - t0, "build_problem_s": t2 - t1})
    if args.mode == "setup":
        return 0

    _measure(workload, args, emit)
    import numpy
    import scipy
    emit({"event": "done",
          "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
          "python": sys.version.split()[0], "numpy": numpy.__version__,
          "scipy": scipy.__version__})
    return 0


if __name__ == "__main__":
    sys.exit(main())
