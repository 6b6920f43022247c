"""Tests for the unified Study API: registry, specs, driver, checkpoint, CLI.

The optimization-loop tests run against a cheap quadratic problem registered
into the circuits registry (so declarative specs resolve it), keeping the
suite fast while exercising the same code paths as the real testbenches.
"""

from __future__ import annotations

import inspect
import json
import pickle

import numpy as np
import pytest

from repro.baselines.usemoc import USeMOC
from repro.bo.design_space import DesignSpace, DesignVariable
from repro.bo.mace import MACE, search_budget
from repro.bo.problem import Constraint, OptimizationProblem
from repro.circuits.registry import register_problem
from repro.errors import OptimizationError
from repro.study import (
    BuildContext,
    EarlyStopping,
    LoggingCallback,
    Study,
    StudyCallback,
    StudySpec,
    TransferSpec,
    UnknownOptimizerError,
    available_optimizers,
    build_optimizer,
    optimizer_aliases,
    read_checkpoint,
    resolve_optimizer,
    run_study,
)
from repro.study.cli import main as cli_main
from repro.study.spec import SpecError


class _StudyQuadratic(OptimizationProblem):
    """Cheap deterministic minimisation problem with one constraint."""

    def __init__(self, technology: str = "180nm", dim: int = 3):
        space = DesignSpace([DesignVariable(f"x{i}", 0.0, 1.0) for i in range(dim)])
        super().__init__(name=f"study_quadratic_{technology}", design_space=space,
                         objective="f", minimize=True,
                         constraints=[Constraint("g", 0.1, sense="ge")])

    def simulate(self, design):
        x = np.array([design[f"x{i}"] for i in range(self.design_space.dim)])
        return {"f": float(np.sum((x - 0.4) ** 2)), "g": float(x[0])}


class _StudyQuadraticFree(OptimizationProblem):
    """Unconstrained variant (exercises the FOM-style optimizer paths)."""

    def __init__(self, technology: str = "180nm", dim: int = 3):
        space = DesignSpace([DesignVariable(f"x{i}", 0.0, 1.0) for i in range(dim)])
        super().__init__(name=f"study_quadratic_free_{technology}",
                         design_space=space, objective="f", minimize=False,
                         constraints=[])

    def simulate(self, design):
        x = np.array([design[f"x{i}"] for i in range(self.design_space.dim)])
        return {"f": float(-np.sum((x - 0.6) ** 2))}


register_problem("study_quadratic", overwrite=True)(_StudyQuadratic)
register_problem("study_quadratic_free", overwrite=True)(_StudyQuadraticFree)

#: Tiny-but-real optimizer settings reused across the loop tests.
_MACE_OPTIONS = {"surrogate_train_iters": 8, "pop_size": 12, "n_generations": 4}
_KATO_OPTIONS = {"surrogate_train_iters": 8, "kat_train_iters": 12,
                 "pop_size": 12, "n_generations": 4}


def _spec(**overrides) -> StudySpec:
    base = dict(optimizer="rs", circuit="study_quadratic", n_simulations=12,
                n_init=6, batch_size=3, seed=7)
    base.update(overrides)
    return StudySpec(**base)


# ---------------------------------------------------------------------- #
# registry                                                                #
# ---------------------------------------------------------------------- #
class TestRegistry:
    def test_all_paper_optimizers_registered(self):
        names = available_optimizers()
        for expected in ("random_search", "smac_rf", "mace", "mace_modified",
                         "mesmoc", "usemoc", "tlmbo", "kato", "kato_tl"):
            assert expected in names

    def test_aliases_resolve_from_one_table(self):
        aliases = optimizer_aliases()
        assert aliases["rs"] == "random_search"
        assert aliases["random"] == "random_search"
        assert aliases["smac"] == "smac_rf"
        for alias, canonical in aliases.items():
            assert resolve_optimizer(alias).name == canonical

    def test_hyphen_and_case_insensitive(self):
        assert resolve_optimizer("KATO-TL").name == "kato_tl"
        assert resolve_optimizer("Smac-RF").name == "smac_rf"
        assert resolve_optimizer("RS").name == "random_search"

    def test_did_you_mean_hint(self):
        with pytest.raises(UnknownOptimizerError, match="did you mean"):
            resolve_optimizer("kato_t1")

    def test_unknown_is_value_error(self):
        # Callers catch unknown optimizer names as ValueError.
        with pytest.raises(ValueError):
            resolve_optimizer("definitely_not_registered")

    def test_mace_dispatches_on_constraints(self):
        # One class serves both names; the constrained ensemble is the
        # variant, and "mace" keeps the original six-objective one.
        rng = np.random.default_rng(0)
        constrained = build_optimizer("mace", _StudyQuadratic(), rng)
        assert type(constrained) is MACE
        assert constrained.variant == "full"
        unconstrained = build_optimizer("mace", _StudyQuadraticFree(), rng)
        assert type(unconstrained) is MACE
        modified = build_optimizer("modified_mace", _StudyQuadratic(), rng)
        assert type(modified) is MACE
        assert modified.variant == "modified"

    @pytest.mark.parametrize("cls", [MACE, USeMOC])
    def test_constructor_defaults_are_paper_search_budget(self, cls):
        paper = search_budget(BuildContext(quick=False))
        signature = inspect.signature(cls)
        for key in ("surrogate_train_iters", "pop_size", "n_generations"):
            assert signature.parameters[key].default == paper[key], key

    @pytest.mark.parametrize("name,options,match", [
        pytest.param(name, {"not_an_option": 1}, "not_an_option", id=name)
        for name in ("mace", "mace_modified", "kato")] + [
        pytest.param("kato", {"use_neural_kernel": False, "kernel_kwargs": {"n_mix": 2}},
                     "kernel_kwargs", id="kato-ignored_kernel_kwargs")])
    def test_unknown_optimizer_option_is_rejected(self, name, options, match):
        spec = _spec(optimizer=name, optimizer_options=options)
        with pytest.raises(OptimizationError, match=match):
            spec.build_optimizer(_StudyQuadratic(), np.random.default_rng(0))

    def test_capability_checks(self):
        rng = np.random.default_rng(0)
        with pytest.raises(UnknownOptimizerError, match="constrained"):
            build_optimizer("mesmoc", _StudyQuadraticFree(), rng)
        with pytest.raises(UnknownOptimizerError, match="source model"):
            build_optimizer("kato_tl", _StudyQuadratic(), rng)
        with pytest.raises(UnknownOptimizerError, match="source data"):
            build_optimizer("tlmbo", _StudyQuadraticFree(), rng)
        # TLMBO is constraint-blind: constrained problems must be rejected
        # rather than silently ignoring the constraints.
        with pytest.raises(UnknownOptimizerError, match="constrained"):
            build_optimizer("tlmbo", _StudyQuadratic(), rng)

    def test_options_reach_constructor(self):
        optimizer = build_optimizer("rs", _StudyQuadratic(),
                                    np.random.default_rng(0), batch_size=7)
        assert optimizer.batch_size == 7

    def test_build_context_merges_overrides(self):
        context = BuildContext(batch_size=2, options={"pop_size": 9})
        kwargs = context.constructor_kwargs(batch_size=4, pop_size=64, beta=2.0)
        assert kwargs == {"batch_size": 2, "pop_size": 9, "beta": 2.0}


# ---------------------------------------------------------------------- #
# specs                                                                   #
# ---------------------------------------------------------------------- #
class TestStudySpec:
    def test_round_trip_through_json(self):
        spec = _spec(transfer=TransferSpec(circuit="study_quadratic",
                                           n_samples=5, seed=3),
                     optimizer_options={"alpha": 1.5})
        clone = StudySpec.from_json(spec.to_json())
        assert clone == spec

    def test_unknown_key_has_hint(self):
        with pytest.raises(SpecError, match="did you mean 'n_simulations'"):
            StudySpec.from_dict({"optimizer": "rs", "circuit": "study_quadratic",
                                 "n_simulation": 5})

    def test_unknown_transfer_key(self):
        with pytest.raises(SpecError, match="transfer"):
            StudySpec.from_dict({"optimizer": "rs", "circuit": "study_quadratic",
                                 "transfer": {"circuit": "x", "nsamples": 3}})

    @pytest.mark.parametrize("bad", [
        {"n_simulations": 0}, {"n_init": -1}, {"batch_size": 0},
        {"n_seeds": 0}, {"backend": "gpu"},
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(SpecError):
            _spec(**bad)

    def test_validate_resolves_names(self):
        with pytest.raises(UnknownOptimizerError):
            _spec(optimizer="no_such_method").validate()
        with pytest.raises(SpecError, match="circuit"):
            _spec(circuit="no_such_circuit").validate()

    def test_spawn_seeds_deterministic_and_distinct(self):
        spec = _spec(n_seeds=4, seed=11)
        first, second = spec.spawn_seeds(), spec.spawn_seeds()
        assert first == second
        assert len(set(first)) == 4
        assert _spec(n_seeds=1, seed=11).spawn_seeds() == [11]

    def test_for_seed_pins_single_repetition(self):
        child = _spec(n_seeds=3).for_seed(99)
        assert child.seed == 99 and child.n_seeds == 1

    def test_from_file_rejects_non_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("not json")
        with pytest.raises(SpecError, match="not valid JSON"):
            StudySpec.from_file(path)

    def test_build_problem_attaches_backend(self):
        problem = _spec(backend="process").build_problem()
        try:
            assert problem.engine.backend.name == "process"
        finally:
            problem.engine.close()

    def test_unset_backend_is_serial(self):
        assert _spec().resolved_backend() == "serial"
        assert _spec(backend="batched").resolved_backend() == "batched"


# ---------------------------------------------------------------------- #
# the driver                                                              #
# ---------------------------------------------------------------------- #
class _Recorder(StudyCallback):
    def __init__(self):
        self.events = []

    def on_init(self, study, evaluations):
        self.events.append(("init", len(evaluations)))

    def on_batch(self, study, iteration, evaluations):
        self.events.append(("batch", iteration, len(evaluations)))

    def on_finish(self, study, result):
        self.events.append(("finish", result.n_simulations))


class TestStudy:
    def test_run_produces_result_record(self):
        result = Study(_spec()).run()
        assert result.n_simulations == 12
        record = result.to_record()
        assert record["kind"] == "study_result"
        assert record["problem"] == "study_quadratic_180nm"
        assert len(record["curve"]) == 12
        assert record["best_objective"] is not None
        assert StudySpec.from_dict(record["spec"]) == _spec()

    def test_callback_order_and_counts(self):
        recorder = _Recorder()
        Study(_spec(), callbacks=(recorder,)).run()
        assert recorder.events[0] == ("init", 6)
        assert recorder.events[-1] == ("finish", 12)
        batches = [e for e in recorder.events if e[0] == "batch"]
        assert [e[1] for e in batches] == [1, 2]

    def test_early_stopping_resets_between_runs(self):
        # run_study shares one callback instance across seeds; on_init must
        # wipe the previous run's incumbent and stall counter.
        stopper = EarlyStopping(patience=2, min_delta=10.0)
        outcome = run_study(_spec(n_simulations=60, n_seeds=2),
                            callbacks=(stopper,))
        for result in outcome["results"]:
            # Each seed stalls on its own evidence: patience batches after
            # its own init, never instantly off the previous seed's best.
            assert result.n_iterations >= 2

    def test_early_stopping_by_patience(self):
        result = Study(_spec(n_simulations=60),
                       callbacks=(EarlyStopping(patience=2, min_delta=10.0),)
                       ).run()
        assert result.stop_reason is not None
        assert result.n_simulations < 60

    def test_early_stopping_by_target(self):
        # Minimisation problem: any objective beats a huge target immediately.
        result = Study(_spec(n_simulations=60),
                       callbacks=(EarlyStopping(target=1e9),)).run()
        assert "target" in result.stop_reason
        assert result.n_iterations == 1

    def test_logging_callback_writes(self, capsys):
        import io
        stream = io.StringIO()
        Study(_spec(), callbacks=(LoggingCallback(stream=stream),)).run()
        text = stream.getvalue()
        assert "initialized with 6 designs" in text
        assert "finished after 12 simulations" in text

    def test_zero_init_without_data_is_explicit_error(self):
        with pytest.raises(OptimizationError, match="n_init"):
            Study(_spec(n_init=0)).run()

    def test_multi_seed_spec_requires_run_study(self):
        with pytest.raises(OptimizationError, match="run_study"):
            Study(_spec(n_seeds=2))

    def test_run_study_aggregates(self):
        outcome = run_study(_spec(n_seeds=3))
        assert outcome["curves"].shape == (3, 12)
        assert len(outcome["histories"]) == 3
        assert len(set(outcome["seeds"])) == 3
        assert outcome["summary"]["mean"].shape == (12,)
        # Different seeds must explore differently.
        assert not np.array_equal(outcome["curves"][0], outcome["curves"][1])

    def test_run_study_rejects_callbacks_with_parallel_runner(self):
        with pytest.raises(OptimizationError, match="callbacks"):
            run_study(_spec(n_seeds=2), callbacks=(_Recorder(),),
                      runner_backend="process")

    def test_run_study_process_runner_matches_serial(self):
        spec = _spec(n_seeds=2)
        serial = run_study(spec)
        serial_again = run_study(spec)
        pooled = run_study(spec, runner_backend="process")
        np.testing.assert_array_equal(serial["curves"], serial_again["curves"])
        np.testing.assert_array_equal(serial["curves"], pooled["curves"])
        assert len(serial["histories"]) == len(pooled["histories"]) == 2
        for a, b in zip(serial["histories"], pooled["histories"]):
            assert pickle.dumps(a.evaluations) == pickle.dumps(b.evaluations)

    def test_optimizer_factory_escape_hatch(self):
        def factory(problem, rng):
            from repro.bo import RandomSearch
            return RandomSearch(problem, batch_size=3, rng=rng)

        result = Study(_spec(optimizer="ignored_by_factory"),
                       optimizer_factory=factory).run()
        assert result.n_simulations == 12


# ---------------------------------------------------------------------- #
# checkpoint / resume                                                     #
# ---------------------------------------------------------------------- #
class _KillAfter(StudyCallback):
    """Simulates a mid-run kill by raising after N batches."""

    def __init__(self, batches: int):
        self.batches = batches

    def on_batch(self, study, iteration, evaluations):
        if iteration >= self.batches:
            raise KeyboardInterrupt


def _mace_spec(backend: str) -> StudySpec:
    return StudySpec(optimizer="mace", circuit="study_quadratic",
                     n_simulations=14, n_init=6, batch_size=2, seed=5,
                     backend=backend, optimizer_options=_MACE_OPTIONS)


def _kato_spec(backend: str) -> StudySpec:
    return StudySpec(optimizer="kato_tl", circuit="study_quadratic",
                     n_simulations=12, n_init=6, batch_size=2, seed=9,
                     backend=backend, optimizer_options=_KATO_OPTIONS,
                     transfer=TransferSpec(circuit="study_quadratic",
                                           n_samples=6, seed=1, train_iters=5))


class TestCheckpointResume:
    def _kill_and_resume(self, spec: StudySpec, tmp_path):
        """Reference run, killed run, resumed run; returns (ref, resumed)."""
        reference = Study(spec).run()
        checkpoint = tmp_path / "study.ckpt.jsonl"
        with pytest.raises(KeyboardInterrupt):
            Study(spec, callbacks=(_KillAfter(2),),
                  checkpoint=str(checkpoint)).run()
        data = read_checkpoint(checkpoint)
        assert not data.finished
        assert 0 < len(data.evaluations) < spec.n_simulations
        resumed = Study.resume(str(checkpoint)).run()
        assert resumed.resumed and resumed.n_replayed == len(data.evaluations)
        return reference, resumed

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_mace_resume_bit_identical(self, backend, tmp_path):
        reference, resumed = self._kill_and_resume(_mace_spec(backend), tmp_path)
        np.testing.assert_array_equal(reference.history.x, resumed.history.x)
        np.testing.assert_array_equal(reference.history.objectives,
                                      resumed.history.objectives)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_kato_resume_bit_identical(self, backend, tmp_path):
        reference, resumed = self._kill_and_resume(_kato_spec(backend), tmp_path)
        np.testing.assert_array_equal(reference.history.x, resumed.history.x)
        np.testing.assert_array_equal(reference.history.objectives,
                                      resumed.history.objectives)

    def test_replayed_prefix_consumes_no_simulations(self, tmp_path):
        spec = _mace_spec("serial")
        checkpoint = tmp_path / "study.ckpt.jsonl"
        with pytest.raises(KeyboardInterrupt):
            Study(spec, callbacks=(_KillAfter(2),),
                  checkpoint=str(checkpoint)).run()
        replayed = read_checkpoint(checkpoint).evaluations
        resumed = Study.resume(str(checkpoint)).run()
        # The replayed prefix is free (served from the primed cache): at most
        # the post-checkpoint tail is simulated -- possibly less, since the
        # cache also serves any re-proposed duplicates (the paper's cost
        # unit is expensive simulations).
        assert resumed.engine_stats["n_evaluated"] <= (
            resumed.n_simulations - len(replayed))
        assert resumed.engine_stats["cache"]["hits"] >= len(replayed)

    def test_resume_tolerates_truncated_final_line(self, tmp_path):
        spec = _mace_spec("serial")
        checkpoint = tmp_path / "study.ckpt.jsonl"
        reference = Study(spec, checkpoint=str(checkpoint)).run()
        lines = checkpoint.read_text().splitlines()
        # Keep header + init + one step, then a torn half-written record.
        checkpoint.write_text("\n".join(lines[:3]) + "\n" + lines[3][:40])
        resumed = Study.resume(str(checkpoint)).run()
        np.testing.assert_array_equal(reference.history.x, resumed.history.x)

    def test_checkpoint_of_completed_run_resumes_to_same_result(self, tmp_path):
        spec = _mace_spec("serial")
        checkpoint = tmp_path / "study.ckpt.jsonl"
        reference = Study(spec, checkpoint=str(checkpoint)).run()
        data = read_checkpoint(checkpoint)
        assert data.finished
        resumed = Study.resume(str(checkpoint)).run()
        np.testing.assert_array_equal(reference.history.x, resumed.history.x)
        assert resumed.engine_stats["n_evaluated"] == 0

    def test_multi_seed_transfer_resume_with_unset_source_seed(self, tmp_path):
        # transfer.seed is unset: for_seed must pin it to the parent seed,
        # so a resumed child checkpoint rebuilds the identical source
        # instead of deriving one from the child seed.
        spec = StudySpec(optimizer="kato_tl", circuit="study_quadratic",
                         n_simulations=10, n_init=6, batch_size=2, seed=3,
                         n_seeds=2, optimizer_options=_KATO_OPTIONS,
                         transfer=TransferSpec(circuit="study_quadratic",
                                               n_samples=6, train_iters=5))
        checkpoint = str(tmp_path / "tl.ckpt.jsonl")
        outcome = run_study(spec, checkpoint_path=checkpoint)
        reference = outcome["results"][0]
        assert StudySpec.from_dict(
            read_checkpoint(checkpoint + ".seed0").spec_dict).transfer.seed == 3
        resumed = Study.resume(checkpoint + ".seed0").run()
        np.testing.assert_array_equal(reference.history.x, resumed.history.x)
        assert resumed.engine_stats["n_evaluated"] == 0

    def test_killed_resume_never_loses_checkpointed_progress(self, tmp_path):
        spec = _mace_spec("serial")
        checkpoint = tmp_path / "study.ckpt.jsonl"
        with pytest.raises(KeyboardInterrupt):
            Study(spec, callbacks=(_KillAfter(3),),
                  checkpoint=str(checkpoint)).run()
        before = read_checkpoint(checkpoint)
        # Kill the *resume* during its replay (callbacks fire for replayed
        # batches too): the checkpoint must still hold everything it had.
        with pytest.raises(KeyboardInterrupt):
            Study.resume(str(checkpoint), callbacks=(_KillAfter(1),)).run()
        after = read_checkpoint(checkpoint)
        assert len(after.evaluations) >= len(before.evaluations)
        # And a clean resume from the surviving file still completes.
        resumed = Study.resume(str(checkpoint)).run()
        reference = Study(spec).run()
        np.testing.assert_array_equal(reference.history.x, resumed.history.x)

    def test_resume_of_cache_disabled_spec_is_rejected(self, tmp_path):
        spec = _mace_spec("serial")
        checkpoint = tmp_path / "study.ckpt.jsonl"
        Study(spec, checkpoint=str(checkpoint)).run()
        # Forge the recorded spec to cache=False, as a stochastic-simulator
        # study would have written it.
        lines = checkpoint.read_text().splitlines()
        header = json.loads(lines[0])
        header["spec"]["cache"] = False
        checkpoint.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(OptimizationError, match="cache=False"):
            Study.resume(str(checkpoint)).run()

    def test_read_checkpoint_rejects_garbage(self, tmp_path):
        from repro.study import CheckpointError
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "batch"}\n')
        with pytest.raises(CheckpointError, match="header"):
            read_checkpoint(path)

    def test_yield_study_resume_bit_identical(self, tmp_path):
        # Kill-and-resume of a Monte Carlo *yield* study: the resumed run
        # must rebuild the identical problem (MC config via problem_options)
        # and the replayed prefix plus the freshly simulated tail must match
        # an uninterrupted run bit for bit -- which also proves the sampler
        # streams are stable across checkpoint/resume.
        spec = StudySpec(
            optimizer="rs", circuit="two_stage_opamp_yield",
            n_simulations=12, n_init=4, batch_size=2, seed=3,
            problem_options={"yield_target": 0.5,
                             "mc": {"n_max": 12, "n_min": 6,
                                    "batch_size": 6, "seed": 5}})
        reference, resumed = self._kill_and_resume(spec, tmp_path)
        np.testing.assert_array_equal(reference.history.x, resumed.history.x)
        np.testing.assert_array_equal(reference.history.objectives,
                                      resumed.history.objectives)
        for ref, res in zip(reference.history.evaluations,
                            resumed.history.evaluations):
            assert ref.metrics == res.metrics
        assert "yield" in reference.history.evaluations[0].metrics


# ---------------------------------------------------------------------- #
# initialize() contract (BaseOptimizer satellite fix)                     #
# ---------------------------------------------------------------------- #
class TestInitializeContract:
    def test_empty_evaluations_with_zero_init_is_noop(self):
        from repro.bo import RandomSearch
        optimizer = RandomSearch(_StudyQuadratic(), rng=0)
        optimizer.initialize(n_init=0, initial_evaluations=[])
        assert len(optimizer.history) == 0

    def test_negative_n_init_raises(self):
        from repro.bo import RandomSearch
        optimizer = RandomSearch(_StudyQuadratic(), rng=0)
        with pytest.raises(OptimizationError, match="non-negative"):
            optimizer.initialize(n_init=-1)

    def test_optimize_with_no_start_data_is_clear_error(self):
        from repro.bo import RandomSearch
        optimizer = RandomSearch(_StudyQuadratic(), rng=0)
        with pytest.raises(OptimizationError, match="initial"):
            optimizer.optimize(n_simulations=4, n_init=0,
                               initial_evaluations=[])

    def test_provided_evaluations_count_toward_n_init(self):
        from repro.bo import RandomSearch
        problem = _StudyQuadratic()
        optimizer = RandomSearch(problem, rng=0)
        seeds = problem.evaluate_batch(problem.design_space.sample(4, rng=np.random.default_rng(0)))
        optimizer.initialize(n_init=4, initial_evaluations=seeds)
        assert len(optimizer.history) == 4  # nothing extra sampled


# ---------------------------------------------------------------------- #
# the CLI                                                                 #
# ---------------------------------------------------------------------- #
class TestCLI:
    def test_list_optimizers_json(self, capsys):
        assert cli_main(["list-optimizers", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        names = {entry["name"] for entry in listing}
        assert {"kato", "kato_tl", "mace"} <= names

    def test_list_circuits_json_keeps_legacy_name_list(self, capsys):
        assert cli_main(["list-circuits", "--json"]) == 0
        names = json.loads(capsys.readouterr().out)
        assert "two_stage_opamp" in names and "study_quadratic" in names

    def test_list_problems_shows_problem_options(self, capsys):
        assert cli_main(["list-problems", "--json"]) == 0
        listing = {entry["name"]: entry
                   for entry in json.loads(capsys.readouterr().out)}
        assert "two_stage_opamp_yield" in listing
        yield_entry = listing["two_stage_opamp_yield"]
        assert "yield >= 0.9" in yield_entry["constraints"]
        assert {"yield_target", "mc", "backend"} <= set(
            yield_entry["problem_options"])
        corners_entry = listing["two_stage_opamp_corners"]
        assert "corners" in corners_entry["problem_options"]
        # The human-readable listing carries the same discovery info.
        assert cli_main(["list-problems"]) == 0
        text = capsys.readouterr().out
        assert "problem_options:" in text and "yield_target=0.9" in text

    def test_run_emits_valid_result_jsonl(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        _spec().save(spec_path)
        out_path = tmp_path / "results.jsonl"
        code = cli_main(["run", str(spec_path), "-o", str(out_path), "--quiet"])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        for key in ("kind", "spec", "seed", "n_simulations", "best_objective",
                    "curve", "engine"):
            assert key in record
        assert record["kind"] == "study_result"
        assert record["n_simulations"] >= 12

    def test_run_overrides(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        _spec().save(spec_path)
        out_path = tmp_path / "results.jsonl"
        assert cli_main(["run", str(spec_path), "-o", str(out_path),
                         "--quiet", "--seed", "42", "--n-seeds", "2"]) == 0
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(records) == 2
        assert records[0]["spec"]["seed"] != records[1]["spec"]["seed"]

    def test_run_checkpoint_and_resume(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        _mace_spec("serial").save(spec_path)
        out_path = tmp_path / "results.jsonl"
        checkpoint = tmp_path / "study.ckpt.jsonl"
        assert cli_main(["run", str(spec_path), "-o", str(out_path),
                         "--checkpoint", str(checkpoint), "--quiet"]) == 0
        reference = json.loads(out_path.read_text())
        # Truncate to a mid-run prefix, then resume through the CLI.
        lines = checkpoint.read_text().splitlines()
        checkpoint.write_text("\n".join(lines[:3]) + "\n")
        resumed_path = tmp_path / "resumed.jsonl"
        assert cli_main(["resume", str(checkpoint), "-o", str(resumed_path),
                         "--quiet"]) == 0
        resumed = json.loads(resumed_path.read_text())
        assert resumed["curve"] == reference["curve"]
        assert resumed["best_x"] == reference["best_x"]
        assert resumed["resumed"] is True

    def test_bad_spec_is_clean_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"optimizer": "rs",
                                         "circuit": "study_quadratic",
                                         "n_simulation": 3}))
        assert cli_main(["run", str(spec_path)]) == 2
        assert "did you mean" in capsys.readouterr().err

    def test_missing_file_is_clean_error(self, capsys):
        assert cli_main(["run", "/no/such/spec.json"]) == 2
        assert "error:" in capsys.readouterr().err
