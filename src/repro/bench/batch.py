"""Batched testbench execution: one simulator session over many designs.

:class:`BatchSimulator` runs *structurally identical* testbench jobs --
same analysis specs, typically the same :class:`~repro.bench.Testbench`
applied to many design points or technology variants -- by grouping the
expensive solves across jobs:

* every operating-point solve of a given analysis position becomes one
  :func:`repro.spice.dc.dc_operating_point_batch` call over the jobs that
  still need it (per-job corner temperatures ride along as the batch's
  ``(B,)`` temperature vector);
* AC analyses go through :func:`repro.spice.ac.ac_analysis_batch`, a
  per-job loop of the serial sweep (whose stacked solve already covers the
  frequency axis);
* transient analyses become one
  :func:`repro.spice.transient.transient_analysis_batch` run -- every job
  keeps its own adaptive-timestep controller state while the per-step
  Newton solves batch across all in-flight jobs;
* sweeps (data-dependent stepping over scalar parameters) run per job with
  the exact serial code.

Everything else -- operating-point memoisation keys, failure messages,
check/measure evaluation, stats counters -- mirrors
:class:`repro.bench.simulator.Simulator` per job, and the DC and transient
solvers run the same controller at any batch size, so each job's
:class:`~repro.bench.testbench.SimResult` matches a serial
``Simulator().run(bench, design)`` exactly.

A job whose execution raises outside the simulator's modelled failure modes
(builder bugs, bad measure code, ...) yields a :class:`BatchJobError`
carrying the exception's type name and message instead of poisoning the
rest of the batch; callers translate it back into their serial error
handling (see :func:`repro.circuits.base.simulate_checked_batch`).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.bench.analyses import (
    ACSpec,
    DCSweepSpec,
    NoiseSpec,
    OPSpec,
    SweepResult,
    TempSweepSpec,
    TranSpec,
)
from repro.bench.measures import MeasureContext, MeasurementError
from repro.bench.testbench import SimResult, Testbench
from repro.errors import ConvergenceError, NetlistError
from repro.spice.ac import ac_analysis, ac_analysis_batch
from repro.spice.dc import dc_operating_point, dc_operating_point_batch
from repro.spice.noise import noise_analysis
from repro.spice.sweep import dc_sweep, temperature_sweep
from repro.spice.transient import (
    _sources_at_t0,
    transient_analysis,
    transient_analysis_batch,
)

__test__ = False


@dataclass
class BatchJobError:
    """An unmodelled exception that killed one job of a batch.

    ``kind`` is the exception's type name and ``message`` the full
    ``"TypeName: text"`` string -- the same shape the engine's task-failure
    bookkeeping uses, so batched and pooled execution classify identically.
    """

    kind: str
    message: str


def _job_error(exc: Exception) -> BatchJobError:
    return BatchJobError(type(exc).__name__, f"{type(exc).__name__}: {exc}")


class _Job:
    """Per-job session state (the batch analogue of one Simulator run)."""

    __slots__ = ("bench", "design", "circuits", "ops", "results", "metrics",
                 "failure", "error", "n_op_solves", "n_op_reused",
                 "n_circuits_built")

    def __init__(self, bench: Testbench, design: dict[str, float]):
        self.bench = bench
        self.design = design
        self.circuits: dict[str, object] = {}
        self.ops: dict[tuple, object] = {}
        self.results: dict[str, object] = {}
        self.metrics: dict[str, float] = {}
        self.failure: str | None = None
        self.error: BatchJobError | None = None
        self.n_op_solves = 0
        self.n_op_reused = 0
        self.n_circuits_built = 0

    @property
    def alive(self) -> bool:
        return self.failure is None and self.error is None

    def stats(self) -> dict[str, int]:
        return {"n_op_solves": self.n_op_solves,
                "n_op_reused": self.n_op_reused,
                "n_circuits_built": self.n_circuits_built}


class BatchSimulator:
    """Execute many structurally identical testbench jobs as one batch."""

    def run(self, jobs) -> list[SimResult | BatchJobError]:
        """Run ``jobs`` -- an iterable of ``(bench, design)`` pairs.

        Returns one entry per job, in order: the job's :class:`SimResult`
        (bit-identical to a serial ``Simulator().run``) or a
        :class:`BatchJobError` when the job raised outside the simulator's
        modelled failure modes.
        """
        states = [_Job(bench, dict(design)) for bench, design in jobs]
        if not states:
            return []
        self._validate(states)
        reference = states[0].bench
        with telemetry.span("bench.run_batch", bench=reference.name,
                            batch=len(states)):
            for position, spec in enumerate(reference.analyses):
                if isinstance(spec, OPSpec):
                    self._run_op(states, position, spec.transient)
                elif isinstance(spec, ACSpec):
                    self._run_ac(states, position)
                elif isinstance(spec, NoiseSpec):
                    self._run_noise(states, position)
                elif isinstance(spec, TranSpec):
                    self._run_tran(states, position)
                else:
                    self._run_serial(states, position)
            self._run_measures(states)
        if telemetry.enabled():
            telemetry.inc("repro_bench_runs_total", len(states))
            failed = sum(1 for job in states if not job.alive)
            if failed:
                telemetry.inc("repro_bench_failures_total", failed)
            telemetry.inc("repro_op_solves_total",
                          sum(job.n_op_solves for job in states))
            telemetry.inc("repro_op_reused_total",
                          sum(job.n_op_reused for job in states))
        output: list[SimResult | BatchJobError] = []
        for job in states:
            if job.error is not None:
                output.append(job.error)
            elif job.failure is not None:
                output.append(SimResult(ok=False, failure=job.failure,
                                        analyses=job.results,
                                        stats=job.stats()))
            else:
                output.append(SimResult(ok=True, metrics=job.metrics,
                                        analyses=job.results,
                                        stats=job.stats()))
        return output

    # ------------------------------------------------------------------ #
    # structure validation                                                 #
    # ------------------------------------------------------------------ #
    def _validate(self, states: list[_Job]) -> None:
        reference = states[0].bench
        for job in states[1:]:
            bench = job.bench
            if len(bench.analyses) != len(reference.analyses):
                raise ValueError("batched jobs need structurally identical "
                                 "testbenches (analysis counts differ)")
            for spec, ref in zip(bench.analyses, reference.analyses):
                if (type(spec) is not type(ref) or spec.name != ref.name
                        or spec.circuit != ref.circuit
                        or getattr(spec, "op", None) != getattr(ref, "op", None)
                        or getattr(spec, "transient", None) != getattr(ref, "transient", None)):
                    raise ValueError(
                        f"batched jobs need structurally identical "
                        f"testbenches (analysis {ref.name!r} differs)")
                if isinstance(ref, ACSpec) and (
                        not np.array_equal(spec.frequencies, ref.frequencies)
                        or tuple(spec.observe) != tuple(ref.observe)):
                    raise ValueError(
                        f"batched jobs need identical AC frequency grids "
                        f"and observed nodes (analysis {ref.name!r})")
                if isinstance(ref, NoiseSpec) and (
                        not np.array_equal(spec.frequencies, ref.frequencies)
                        or spec.output != ref.output):
                    raise ValueError(
                        f"batched jobs need identical noise frequency grids "
                        f"and output nodes (analysis {ref.name!r})")
                if isinstance(ref, TranSpec) and (
                        spec.t_stop != ref.t_stop
                        or spec.reltol != ref.reltol
                        or spec.abstol != ref.abstol
                        or tuple(spec.observe) != tuple(ref.observe)):
                    raise ValueError(
                        f"batched jobs need identical transient windows, "
                        f"tolerances and observed nodes "
                        f"(analysis {ref.name!r})")
            if ([m.name for m in bench.measures]
                    != [m.name for m in reference.measures]):
                raise ValueError("batched jobs need identical measure sets")

    # ------------------------------------------------------------------ #
    # per-job state helpers                                               #
    # ------------------------------------------------------------------ #
    def _circuit(self, job: _Job, key: str):
        if key not in job.circuits:
            job.circuits[key] = job.bench.builders[key](job.design)
            job.n_circuits_built += 1
        return job.circuits[key]

    def _group_operating_points(self, pairs, transient: bool) -> list:
        """Memoised operating points for ``pairs`` of ``(job, spec)``.

        Missing biases are solved as *one* batched Newton run (per-job
        temperatures become the batch temperature vector); memo hits mirror
        the serial session counters.  Returns one op (or ``None`` on error)
        per pair.
        """
        resolved = [None] * len(pairs)
        to_solve = []
        for slot, (job, spec) in enumerate(pairs):
            temperature = spec.resolved_temperature(job.bench.temperature)
            key = (spec.circuit, float(temperature), bool(transient))
            if key in job.ops:
                job.n_op_reused += 1
                resolved[slot] = job.ops[key]
                continue
            try:
                circuit = self._circuit(job, spec.circuit)
            except Exception as exc:
                job.error = _job_error(exc)
                continue
            to_solve.append((slot, job, key, circuit, temperature))
        if not to_solve:
            return resolved

        circuits = [entry[3] for entry in to_solve]
        temperatures = np.array([entry[4] for entry in to_solve], dtype=float)
        # Mirror transient_operating_point: hold every waveform source at
        # its t = 0 value for the initial-condition solve.
        with _sources_at_t0(circuits) if transient else nullcontext():
            try:
                ops = dc_operating_point_batch(circuits,
                                               temperature=temperatures)
            except (NetlistError, ValueError):
                # Design-dependent topologies cannot share a batch; solve
                # them serially (identical results, just without stacking).
                ops = []
                for (_, job, _, circuit, temperature) in to_solve:
                    try:
                        ops.append(dc_operating_point(
                            circuit, temperature=temperature))
                    except Exception as exc:
                        job.error = _job_error(exc)
                        ops.append(None)
            except Exception as exc:
                error = _job_error(exc)
                for (_, job, *_rest) in to_solve:
                    if job.error is None:
                        job.error = error
                ops = [None] * len(to_solve)
        for (slot, job, key, _, _), op in zip(to_solve, ops):
            if op is None:
                continue
            job.ops[key] = op
            job.n_op_solves += 1
            resolved[slot] = op
        return resolved

    def _resolve_ops(self, pairs, transient: bool) -> list:
        """The bias each AC/transient analysis linearises around."""
        resolved = [None] * len(pairs)
        implicit = []
        for slot, (job, spec) in enumerate(pairs):
            if spec.op is not None:
                job.n_op_reused += 1
                resolved[slot] = job.results[spec.op]
            else:
                implicit.append((slot, job, spec))
        if implicit:
            solved = self._group_operating_points(
                [(job, spec) for _, job, spec in implicit], transient)
            for (slot, *_rest), op in zip(implicit, solved):
                resolved[slot] = op
        return resolved

    # ------------------------------------------------------------------ #
    # analysis execution                                                   #
    # ------------------------------------------------------------------ #
    def _alive_pairs(self, states: list[_Job], position: int):
        return [(job, job.bench.analyses[position]) for job in states
                if job.alive]

    def _run_op(self, states: list[_Job], position: int,
                transient: bool) -> None:
        pairs = self._alive_pairs(states, position)
        ops = self._group_operating_points(pairs, transient)
        for (job, spec), op in zip(pairs, ops):
            if op is None:
                continue
            if not op.converged:
                job.failure = (f"{spec.name}: operating point of "
                               f"{job.bench.name!r} did not converge")
                continue
            job.results[spec.name] = op

    def _run_ac(self, states: list[_Job], position: int) -> None:
        pairs = self._alive_pairs(states, position)
        ops = self._resolve_ops(pairs, transient=False)
        ready = []
        for (job, spec), op in zip(pairs, ops):
            if op is None:
                continue
            if not op.converged:
                job.failure = (f"{spec.name}: bias for AC analysis "
                               "did not converge")
                continue
            try:
                circuit = self._circuit(job, spec.circuit)
            except Exception as exc:
                job.error = _job_error(exc)
                continue
            ready.append((job, spec, circuit, op))
        if not ready:
            return
        reference_spec = ready[0][1]
        try:
            analyses = ac_analysis_batch(
                [entry[2] for entry in ready], [entry[3] for entry in ready],
                reference_spec.frequencies,
                observe=list(reference_spec.observe))
        except Exception:
            # One job's sweep raised: rerun per job, capturing failures
            # individually.
            analyses = []
            for job, spec, circuit, op in ready:
                try:
                    analyses.append(ac_analysis(circuit, op, spec.frequencies,
                                                observe=list(spec.observe)))
                except Exception as exc:
                    job.error = _job_error(exc)
                    analyses.append(None)
        for (job, spec, _, _), analysis in zip(ready, analyses):
            if analysis is not None:
                job.results[spec.name] = analysis

    def _run_noise(self, states: list[_Job], position: int) -> None:
        """Noise analyses: batched bias resolution, serial adjoint sweeps.

        The bias solves still group into one batched Newton run; the adjoint
        sweep itself runs the exact serial :func:`noise_analysis` per job
        (its stacked solve already vectorizes over the frequency axis), so
        batched results are trivially bit-identical to serial sessions.
        """
        pairs = self._alive_pairs(states, position)
        ops = self._resolve_ops(pairs, transient=False)
        for (job, spec), op in zip(pairs, ops):
            if op is None:
                continue
            if not op.converged:
                job.failure = (f"{spec.name}: bias for noise analysis "
                               "did not converge")
                continue
            try:
                circuit = self._circuit(job, spec.circuit)
            except Exception as exc:
                job.error = _job_error(exc)
                continue
            try:
                job.results[spec.name] = noise_analysis(
                    circuit, op, spec.frequencies, output=spec.output)
            except (np.linalg.LinAlgError, KeyError, ValueError) as exc:
                job.failure = f"{spec.name}: {exc}"
            except Exception as exc:
                job.error = _job_error(exc)

    def _run_tran(self, states: list[_Job], position: int) -> None:
        pairs = self._alive_pairs(states, position)
        ops = self._resolve_ops(pairs, transient=True)
        ready = []
        for (job, spec), op in zip(pairs, ops):
            if op is None:
                continue  # error already recorded during the bias solve
            if not op.converged:
                job.failure = (f"{spec.name}: transient initial "
                               "condition did not converge")
                continue
            try:
                circuit = self._circuit(job, spec.circuit)
            except Exception as exc:
                job.error = _job_error(exc)
                continue
            ready.append((job, spec, circuit, op))
        if not ready:
            return
        reference_spec = ready[0][1]
        try:
            outcomes = transient_analysis_batch(
                [entry[2] for entry in ready], reference_spec.t_stop,
                observe=list(reference_spec.observe),
                operating_points=[entry[3] for entry in ready],
                reltol=reference_spec.reltol, abstol=reference_spec.abstol,
                return_errors=True)
        except (NetlistError, ValueError):
            # Heterogeneous topologies cannot share a batch: run the serial
            # analysis per job, capturing failures individually.
            for job, spec, circuit, op in ready:
                try:
                    job.results[spec.name] = transient_analysis(
                        circuit, spec.t_stop, observe=list(spec.observe),
                        operating_point=op, reltol=spec.reltol,
                        abstol=spec.abstol)
                except ConvergenceError as exc:
                    job.failure = f"{spec.name}: {exc}"
                except Exception as exc:
                    job.error = _job_error(exc)
            return
        for (job, spec, _, _), outcome in zip(ready, outcomes):
            if isinstance(outcome, ConvergenceError):
                # Controller give-ups are job failures, as in the serial
                # Simulator; other exceptions are unmodelled errors.
                job.failure = f"{spec.name}: {outcome}"
            elif isinstance(outcome, Exception):
                job.error = _job_error(outcome)
            else:
                job.results[spec.name] = outcome

    def _run_serial(self, states: list[_Job], position: int) -> None:
        """Sweep analyses: the exact serial path, per job."""
        pairs = self._alive_pairs(states, position)
        for job, spec in pairs:
            if not job.alive:
                continue
            try:
                self._run_one_serial(job, spec)
            except Exception as exc:
                job.error = _job_error(exc)

    def _run_one_serial(self, job: _Job, spec) -> None:
        temperature = spec.resolved_temperature(job.bench.temperature)
        if isinstance(spec, DCSweepSpec):
            circuit = self._circuit(job, spec.circuit)
            try:
                values, observed = dc_sweep(
                    circuit, spec.device, spec.attribute, spec.values,
                    observe=spec.observe, temperature=temperature)
            except (np.linalg.LinAlgError, KeyError, ValueError) as exc:
                job.failure = f"{spec.name}: {exc}"
                return
            job.n_op_solves += len(values)
            job.results[spec.name] = SweepResult(values=values,
                                                 observed=observed)
        elif isinstance(spec, TempSweepSpec):
            circuit = self._circuit(job, spec.circuit)
            try:
                temps, observed, points = temperature_sweep(
                    circuit, spec.temperatures, spec.observe)
            except (np.linalg.LinAlgError, KeyError, ValueError) as exc:
                job.failure = f"{spec.name}: {exc}"
                return
            job.n_op_solves += len(points)
            if not all(p.converged for p in points):
                job.failure = f"{spec.name}: a sweep point did not converge"
                return
            if not np.all(np.isfinite(observed)):
                job.failure = f"{spec.name}: non-finite sweep observation"
                return
            job.results[spec.name] = SweepResult(values=temps,
                                                 observed=observed,
                                                 points=points)
        else:  # pragma: no cover - guarded by Testbench validation
            raise TypeError(f"unknown analysis spec {type(spec).__name__}")

    # ------------------------------------------------------------------ #
    # checks and measures                                                  #
    # ------------------------------------------------------------------ #
    def _run_measures(self, states: list[_Job]) -> None:
        for job in states:
            if not job.alive:
                continue
            try:
                self._run_job_measures(job)
            except Exception as exc:
                job.error = _job_error(exc)

    def _run_job_measures(self, job: _Job) -> None:
        context = MeasureContext(design=dict(job.design),
                                 circuits=job.circuits, results=job.results)
        for check in job.bench.checks:
            try:
                alive = check.fn(context)
            except MeasurementError as exc:
                job.failure = f"check {check.description!r}: {exc}"
                return
            if not alive:
                job.failure = f"check failed: {check.description}"
                return
        for measure in job.bench.measures:
            try:
                value = float(measure.fn(context))
            except MeasurementError as exc:
                job.failure = f"measure {measure.name!r}: {exc}"
                return
            if measure.require_finite and not np.isfinite(value):
                job.failure = f"measure {measure.name!r} is not finite"
                return
            job.metrics[measure.name] = value
