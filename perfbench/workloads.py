"""The benchmark's three sizing-study workloads.

Each workload turns the benchmark seed into the program's inputs (a study
spec, or a design plus a Monte Carlo sample stream), does the set-up a user
pays before any work starts, runs the timed part, and checks its outputs.
The workloads load different layers on purpose, so that a change to one
layer shows where it should and reads "no change" where it should not:

* ``kato_tl`` -- the paper's algorithm: builds a transfer source and runs
  KATO-TL studies on the serial B=1 solver path, with cache misses and
  surrogate/KAT-GP fits;
* ``mc_batched`` -- pure simulation through the B=64 stacked DC, AC and
  transient solvers, with no surrogate at all;
* ``mace_replay`` -- a checkpointed MACE study resumed from a SQLite results
  store: store reads, cache hits and every surrogate fit, zero simulations.

Only the standard library is imported at module level; the program's
modules are imported by :meth:`Workload.import_modules`, which set-up times.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os

#: The known-good two-stage op-amp sizing the Monte Carlo workload runs.
GOOD_DESIGN = dict(w_diff=20e-6, l_diff=0.5e-6, w_load=10e-6, l_load=0.5e-6,
                   w_out=60e-6, l_out=0.3e-6, c_comp=2e-12, r_zero=2e3,
                   i_bias1=20e-6, i_bias2=100e-6)


def rep_seed(seed: int, rep: int) -> int:
    """Seed of repetition ``rep`` of a run with benchmark seed ``seed``."""
    import numpy as np
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def history_digest(history) -> str:
    """Hash of a study's final history: every design x and objective."""
    import numpy as np
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(history.x, dtype=float).tobytes())
    digest.update(np.ascontiguousarray(history.objectives, dtype=float).tobytes())
    return digest.hexdigest()[:16]


def study_summary(result) -> dict:
    """What the checks and the trace need from a :class:`StudyResult`."""
    record = result.to_record()
    return {"digest": history_digest(result.history),
            "n_simulations": record["n_simulations"],
            "n_replayed": record["n_replayed"],
            "n_evaluated": record["engine"].get("n_evaluated"),
            "curve": record["curve"],
            "best_objective": record["best_objective"],
            "n_feasible": record["n_feasible"]}


class Workload:
    """One workload: seeded inputs, set-up, timed part and output checks."""

    name = ""
    #: Modules a fresh interpreter imports before the workload can run.
    modules: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir

    def import_modules(self) -> None:
        for module in self.modules:
            importlib.import_module(module)

    def prepare(self) -> None:
        """Set-up after the imports: registries and the problem build."""
        raise NotImplementedError

    def run(self, rep: int) -> dict:
        """The timed part of repetition ``rep``; returns a summary with at
        least a ``digest``.  Repetitions draw their inputs from
        :func:`rep_seed` unless the input is prepared once per run."""
        raise NotImplementedError

    def check(self, summary: dict) -> list[str]:
        """Output checks of one run; returns the failed ones."""
        raise NotImplementedError

    #: Whether :meth:`populate` must run (untimed, in its own process)
    #: before the timed repetitions.
    populated = False

    def populate(self) -> None:
        """Untimed preparation the repetitions share."""


class _StudyWorkload(Workload):
    modules = ("repro.study", "repro.study.spec", "repro.study.study")

    def spec_dict(self, seed: int) -> dict:
        raise NotImplementedError

    def spec(self, seed: int | None = None):
        from repro.study import StudySpec
        return StudySpec.from_dict(
            self.spec_dict(self.seed if seed is None else seed))

    def prepare(self) -> None:
        spec = self.spec().validate()
        problem = spec.build_problem()
        problem.engine.close()

    def _budget_failures(self, summary: dict) -> list[str]:
        budget = self.spec_dict(self.seed)["n_simulations"]
        if summary["n_simulations"] < budget:
            return [f"budget not reached: {summary['n_simulations']} < {budget}"]
        return []


class KatoTL(_StudyWorkload):
    """KATO-TL on the 40nm two-stage op-amp with a 180nm transfer source.

    One study's cost varies by about 10% from seed to seed (how many random
    designs fail their DC solve, how long the GP fits take), so every
    repetition is a fresh study, transfer source included, on its own
    seed; the run reports the median over them.  The study is kept small
    (a 30-design source, 20 simulations in three optimised batches) so a
    run holds a dozen or more of them even on a slow host.
    """

    name = "kato_tl"
    modules = _StudyWorkload.modules + ("repro.study.sources",)

    def spec_dict(self, seed: int) -> dict:
        return {
            "optimizer": "kato_tl", "circuit": "two_stage_opamp",
            "technology": "40nm", "n_simulations": 20, "n_init": 8,
            "batch_size": 4, "seed": seed, "backend": "serial",
            "optimizer_options": {"surrogate_train_iters": 30,
                                  "kat_train_iters": 40, "pop_size": 32,
                                  "n_generations": 10},
            "transfer": {"circuit": "two_stage_opamp", "technology": "180nm",
                         "n_samples": 30, "seed": seed, "train_iters": 40},
        }

    def run(self, rep: int) -> dict:
        from repro.study import Study
        return study_summary(Study(self.spec(rep_seed(self.seed, rep))).run())

    def check(self, summary: dict) -> list[str]:
        return self._budget_failures(summary)


class MaceReplay(_StudyWorkload):
    """Resume of a finished MACE study from a SQLite results store."""

    name = "mace_replay"
    modules = _StudyWorkload.modules + ("repro.service.store",)
    study_id = "perfbench-mace"
    populated = True

    def spec_dict(self, seed: int) -> dict:
        return {
            "optimizer": "mace", "circuit": "two_stage_opamp",
            "technology": "180nm", "n_simulations": 120, "n_init": 12,
            "batch_size": 4, "seed": seed, "backend": "serial",
            "optimizer_options": {"surrogate_train_iters": 30,
                                  "pop_size": 32, "n_generations": 10},
        }

    @property
    def db_path(self) -> str:
        return os.path.join(self.workdir, "mace.db")

    @property
    def populated_path(self) -> str:
        return os.path.join(self.workdir, "populated.json")

    def populate(self) -> None:
        from repro.service.store import ResultsStore, StoreCheckpoint
        from repro.study import Study
        store = ResultsStore(self.db_path)
        try:
            result = Study(self.spec(), checkpoint=StoreCheckpoint(
                store, self.study_id)).run()
        finally:
            store.close()
        with open(self.populated_path, "w", encoding="utf-8") as handle:
            json.dump(study_summary(result), handle)

    def run(self, rep: int) -> dict:
        # Every repetition replays the one store populated for this seed.
        from repro.service.store import ResultsStore, StoreCheckpoint
        from repro.study import Study
        store = ResultsStore(self.db_path)
        try:
            return study_summary(
                Study.resume(StoreCheckpoint(store, self.study_id)).run())
        finally:
            store.close()

    def check(self, summary: dict) -> list[str]:
        failures = self._budget_failures(summary)
        with open(self.populated_path, encoding="utf-8") as handle:
            populated = json.load(handle)
        if summary["n_replayed"] != populated["n_simulations"]:
            failures.append(f"replayed {summary['n_replayed']} of "
                            f"{populated['n_simulations']} evaluations")
        if summary["n_evaluated"] != 0:
            failures.append(f"resume simulated {summary['n_evaluated']} designs")
        if summary["curve"] != populated["curve"]:
            failures.append("resumed curve differs from the populating run's")
        if summary["digest"] != populated["digest"]:
            failures.append("resumed history differs from the populating run's")
        return failures


class MCBatched(Workload):
    """Two mismatch Monte Carlo runs of a good design on the batched backend."""

    name = "mc_batched"
    modules = ("repro.circuits", "repro.mc")
    #: (problem, samples): DC+AC samples, then transient settling samples.
    #: Sized so a run holds several repetitions: host noise comes in bursts
    #: of seconds, which a median over short repetitions filters out.
    runs = (("two_stage_opamp", 1024), ("two_stage_opamp_settling", 128))

    def prepare(self) -> None:
        from repro.circuits import make_problem
        self.problems = [(make_problem(name), count) for name, count in self.runs]

    def run(self, rep: int) -> dict:
        from repro.mc import MonteCarloConfig, MonteCarloRunner
        import numpy as np
        digest = hashlib.sha256()
        summary = {"n_samples": [], "n_failures": [], "n_nonfinite": [],
                   "yield": []}
        for problem, count in self.problems:
            # n_min == n_max: adaptive stopping never shortens the run.
            config = MonteCarloConfig(n_min=count, n_max=count, batch_size=64,
                                      sampler="normal",
                                      seed=rep_seed(self.seed, rep),
                                      ci_half_width=None)
            with MonteCarloRunner(config, backend="batched") as runner:
                result = runner.run(problem, GOOD_DESIGN)
            values = np.array([[sample[name] for name in sorted(sample)]
                               for sample in result.per_sample], dtype=float)
            digest.update(values.tobytes())
            summary["n_samples"].append(result.n_samples)
            summary["n_failures"].append(result.n_failures)
            summary["n_nonfinite"].append(
                int((~np.isfinite(values)).any(axis=1).sum()))
            summary["yield"].append(result.yield_value)
        summary["digest"] = digest.hexdigest()[:16]
        return summary

    def check(self, summary: dict) -> list[str]:
        failures = []
        for (name, count), n_samples, n_failures, n_nonfinite in zip(
                self.runs, summary["n_samples"], summary["n_failures"],
                summary["n_nonfinite"]):
            if n_samples != count:
                failures.append(f"{name}: {n_samples} of {count} samples")
            # A sample whose simulation raised is a typed SampleFailure
            # (counted in n_failures); every other sample must be finite.
            if n_nonfinite > n_failures:
                failures.append(f"{name}: {n_nonfinite - n_failures} samples "
                                "with non-finite metrics")
        if not all(math.isfinite(v) for v in summary["yield"]):
            failures.append("non-finite yield")
        return failures


WORKLOADS = {cls.name: cls for cls in (KatoTL, MCBatched, MaceReplay)}
