"""Time-domain sizing example: minimise settling time under a slew constraint.

Run with::

    python examples/settling_time_sizing.py

Sizes the two-stage op-amp in a unity-gain follower testbench for the
fastest 1% settling of a 200 mV step, subject to slew-rate and overshoot
constraints, using constrained MACE -- expressed through the Study API:

* the run is a declarative :class:`repro.study.StudySpec` (the same dict
  saved as JSON works with ``python -m repro run``);
* a :class:`LoggingCallback` streams per-batch progress and an
  :class:`EarlyStopping` callback ends the run once the settling time
  stalls, so no budget is wasted after convergence;
* a checkpoint file makes the run resumable: kill the script and re-run
  ``python -m repro resume settling_study.ckpt.jsonl`` to continue it.

Every evaluation is a full transient simulation (adaptive-timestep
trapezoidal integration) routed through the batched evaluation engine, so
repeated designs are served from the design cache instead of being
re-integrated.
"""

from __future__ import annotations

from repro.study import EarlyStopping, LoggingCallback, Study, StudySpec

CHECKPOINT = "settling_study.ckpt.jsonl"

SPEC = {
    "optimizer": "mace",          # constrained problem -> six-objective MACE
    "circuit": "two_stage_opamp_settling",
    "technology": "180nm",
    "n_simulations": 40,
    "n_init": 20,
    "batch_size": 4,
    "seed": 0,
    "optimizer_options": {"surrogate_train_iters": 25,
                          "pop_size": 40, "n_generations": 12},
}


def main() -> None:
    spec = StudySpec.from_dict(SPEC)
    study = Study(spec,
                  callbacks=(LoggingCallback(),
                             EarlyStopping(patience=4, min_delta=1e-3)),
                  checkpoint=CHECKPOINT)
    problem = spec.build_problem()
    print(f"Problem: {problem.name}")
    print(f"  objective : minimise {problem.objective} (us)")
    for constraint in problem.constraints:
        sense = ">=" if constraint.sense == "ge" else "<="
        print(f"  constraint: {constraint.name} {sense} {constraint.threshold}")

    result = study.run()
    best = result.history.best(constrained=True)
    if best is None:
        print("no feasible design found at this budget")
        return
    print()
    print("Best feasible design:")
    for name, value in best.metrics.items():
        print(f"  {name:<10} {value:10.4f}")
    print()
    print("Engine statistics (cache serves repeated designs):")
    print(f"  {result.engine_stats}")
    print(f"\nCheckpoint written to {CHECKPOINT} "
          f"(resume with: python -m repro resume {CHECKPOINT})")


if __name__ == "__main__":
    main()
