"""The testbench session: runs testbench jobs analysis by analysis.

A job is one :class:`~repro.bench.Testbench` applied to one design point.
The session builds each referenced circuit once, executes the analyses in
order and extracts the measures into one metric dictionary.  Operating
points are memoised per job by ``(circuit, temperature, transient)`` (and
shared outright through an analysis' ``op=`` reference), so a bench with
several analyses around the same bias pays for exactly one Newton solve.

The executor runs a *list* of jobs position by position -- every job's
first analysis, then every job's second, ... -- and reaches the solvers
through exactly three methods, each returning one result or one exception
per entry:

* :meth:`Simulator._solve_ops` -- the missing operating points;
* :meth:`Simulator._ac_sweeps` -- the AC analyses;
* :meth:`Simulator._transients` -- the transient analyses.

:class:`Simulator` implements them with the serial entry points and runs a
list of one job; :class:`repro.bench.batch.BatchSimulator` overrides them
with the stacked solvers and runs many.  Noise analyses, sweeps, checks and
measures are per-job code shared by both.

Modelled failures -- a non-converged bias, a diverging transient, a singular
sweep, a failed check or a non-finite gated measure -- yield
``SimResult(ok=False, failure=...)``; the caller (usually
:meth:`repro.circuits.base.CircuitSizingProblem.simulate`) maps that to the
problem's pessimised metrics so optimizers still learn from dead designs.
Any other exception ends its job and is re-raised by :meth:`Simulator.run`.
"""

from __future__ import annotations

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
from repro.errors import ConvergenceError
from repro.spice.ac import ac_analysis
from repro.spice.noise import noise_analysis
from repro.spice.dc import dc_operating_point
from repro.spice.sweep import dc_sweep, temperature_sweep
from repro.spice.transient import transient_analysis, transient_operating_point

#: Exceptions a sweep or noise analysis raises for a dead design.
_ANALYSIS_FAILURES = (np.linalg.LinAlgError, KeyError, ValueError)

#: The failure reason of an analysis whose bias did not converge.
_BIAS_FAILURES = {
    ACSpec: "bias for AC analysis did not converge",
    NoiseSpec: "bias for noise analysis did not converge",
    TranSpec: "transient initial condition did not converge",
}


def _attempt(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - classified by the executor
        return exc


def _guarded(job, fn, *args) -> None:
    """``fn(*args)``; an exception it raises ends ``job``."""
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - ends this job only
        job.error = exc


class _Job:
    """Per-job session state: circuits, memoised biases, results, counters.

    ``failure`` is the reason of a modelled failure; ``error`` the
    unmodelled exception that ended the job.
    """

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
        self.error: Exception | None = None
        self.n_op_solves = 0
        self.n_op_reused = 0
        self.n_circuits_built = 0

    @property
    def alive(self) -> bool:
        return self.failure is None and self.error is None

    def circuit(self, key: str):
        if key not in self.circuits:
            self.circuits[key] = self.bench.builders[key](self.design)
            self.n_circuits_built += 1
        return self.circuits[key]

    def result(self) -> SimResult:
        stats = {"n_op_solves": self.n_op_solves,
                 "n_op_reused": self.n_op_reused,
                 "n_circuits_built": self.n_circuits_built}
        if self.failure is not None:
            return SimResult(ok=False, failure=self.failure,
                             analyses=self.results, stats=stats)
        return SimResult(ok=True, metrics=self.metrics, analyses=self.results,
                         stats=stats)


class Simulator:
    """The testbench session, one design at a time on the serial solvers."""

    def run(self, bench: Testbench, design: dict[str, float]) -> SimResult:
        """Execute ``bench`` for one named design point.

        An exception outside the modelled failure modes (a builder or
        measure bug, ...) is re-raised after the run is counted.
        """
        job = _Job(bench, dict(design))
        with telemetry.span("bench.run", bench=bench.name):
            self._execute([job])
        if job.error is not None:
            raise job.error
        return job.result()

    # ------------------------------------------------------------------ #
    # solver entry points (overridden by BatchSimulator)                  #
    # ------------------------------------------------------------------ #
    def _solve_ops(self, circuits, temperatures, transient: bool) -> list:
        solve = transient_operating_point if transient else dc_operating_point
        return [_attempt(solve, circuit, temperature=temperature)
                for circuit, temperature in zip(circuits, temperatures)]

    def _ac_sweeps(self, circuits, ops, spec: ACSpec) -> list:
        return [_attempt(ac_analysis, circuit, op, spec.frequencies,
                         observe=list(spec.observe))
                for circuit, op in zip(circuits, ops)]

    def _transients(self, circuits, ops, spec: TranSpec) -> list:
        return [_attempt(transient_analysis, circuit, spec.t_stop,
                         observe=list(spec.observe), operating_point=op,
                         reltol=spec.reltol, abstol=spec.abstol)
                for circuit, op in zip(circuits, ops)]

    # ------------------------------------------------------------------ #
    # execution                                                           #
    # ------------------------------------------------------------------ #
    def _execute(self, jobs: list[_Job]) -> None:
        """Run every job's analyses position by position, then measure."""
        for position, reference in enumerate(jobs[0].bench.analyses):
            pairs = [(job, job.bench.analyses[position]) for job in jobs
                     if job.alive]
            if isinstance(reference, OPSpec):
                self._run_ops(pairs, reference.transient)
            elif isinstance(reference, (ACSpec, NoiseSpec, TranSpec)):
                self._run_linearised(pairs, reference)
            else:
                for job, spec in pairs:
                    _guarded(job, self._run_sweep, job, spec)
        for job in jobs:
            if job.alive:
                _guarded(job, self._measure, job)
        if telemetry.enabled():
            telemetry.inc("repro_bench_runs_total", len(jobs))
            failed = sum(1 for job in jobs if not job.alive)
            if failed:
                telemetry.inc("repro_bench_failures_total", failed)
            telemetry.inc("repro_op_solves_total",
                          sum(job.n_op_solves for job in jobs))
            telemetry.inc("repro_op_reused_total",
                          sum(job.n_op_reused for job in jobs))

    def _biases(self, pairs, transient: bool) -> list:
        """The bias each ``(job, spec)`` pair analyses around.

        An ``op=`` reference or a memo hit is reused; the rest are solved
        in one :meth:`_solve_ops` call.  ``None`` marks a job that raised.
        """
        resolved = [None] * len(pairs)
        missing = []
        for slot, (job, spec) in enumerate(pairs):
            referenced = getattr(spec, "op", None)
            if referenced is not None:
                job.n_op_reused += 1
                resolved[slot] = job.results[referenced]
                continue
            temperature = spec.resolved_temperature(job.bench.temperature)
            key = (spec.circuit, float(temperature), bool(transient))
            if key in job.ops:
                job.n_op_reused += 1
                resolved[slot] = job.ops[key]
                continue
            try:
                circuit = job.circuit(spec.circuit)
            except Exception as exc:  # noqa: BLE001 - ends this job only
                job.error = exc
                continue
            missing.append((slot, job, key, circuit, temperature))
        if missing:
            ops = self._solve_ops([entry[3] for entry in missing],
                                  [entry[4] for entry in missing], transient)
            for (slot, job, key, _, _), op in zip(missing, ops):
                if isinstance(op, Exception):
                    job.error = op
                    continue
                job.ops[key] = op
                job.n_op_solves += 1
                resolved[slot] = op
        return resolved

    def _run_ops(self, pairs, transient: bool) -> None:
        for (job, spec), op in zip(pairs, self._biases(pairs, transient)):
            if op is None:
                continue
            if not op.converged:
                job.failure = (f"{spec.name}: operating point of "
                               f"{job.bench.name!r} did not converge")
            else:
                job.results[spec.name] = op

    def _run_linearised(self, pairs, reference) -> None:
        """AC, noise and transient analyses around each job's bias."""
        transient = isinstance(reference, TranSpec)
        ready = []
        for (job, spec), op in zip(pairs, self._biases(pairs, transient)):
            if op is None:
                continue
            if not op.converged:
                job.failure = f"{spec.name}: {_BIAS_FAILURES[type(spec)]}"
                continue
            try:
                ready.append((job, spec, job.circuit(spec.circuit), op))
            except Exception as exc:  # noqa: BLE001 - ends this job only
                job.error = exc
        if not ready:
            return
        if isinstance(reference, NoiseSpec):
            for job, spec, circuit, op in ready:
                _guarded(job, self._run_noise, job, spec, circuit, op)
            return
        solve = self._transients if transient else self._ac_sweeps
        outcomes = solve([entry[2] for entry in ready],
                         [entry[3] for entry in ready], ready[0][1])
        for (job, spec, _, _), outcome in zip(ready, outcomes):
            if transient and isinstance(outcome, ConvergenceError):
                # A controller give-up is a modelled failure.
                job.failure = f"{spec.name}: {outcome}"
            elif isinstance(outcome, Exception):
                job.error = outcome
            else:
                job.results[spec.name] = outcome

    @staticmethod
    def _run_noise(job: _Job, spec: NoiseSpec, circuit, op) -> None:
        try:
            job.results[spec.name] = noise_analysis(
                circuit, op, spec.frequencies, output=spec.output)
        except _ANALYSIS_FAILURES as exc:
            job.failure = f"{spec.name}: {exc}"

    @staticmethod
    def _run_sweep(job: _Job, spec) -> None:
        circuit = job.circuit(spec.circuit)
        if isinstance(spec, DCSweepSpec):
            try:
                values, observed = dc_sweep(
                    circuit, spec.device, spec.attribute, spec.values,
                    observe=spec.observe,
                    temperature=spec.resolved_temperature(job.bench.temperature))
            except _ANALYSIS_FAILURES as exc:
                job.failure = f"{spec.name}: {exc}"
                return
            job.n_op_solves += len(values)
            job.results[spec.name] = SweepResult(values=values, observed=observed)
        elif isinstance(spec, TempSweepSpec):
            try:
                temps, observed, points = temperature_sweep(
                    circuit, spec.temperatures, spec.observe)
            except _ANALYSIS_FAILURES as exc:
                job.failure = f"{spec.name}: {exc}"
                return
            job.n_op_solves += len(points)
            if not all(p.converged for p in points):
                job.failure = f"{spec.name}: a sweep point did not converge"
            elif not np.all(np.isfinite(observed)):
                job.failure = f"{spec.name}: non-finite sweep observation"
            else:
                job.results[spec.name] = SweepResult(
                    values=temps, observed=observed, points=points)
        else:  # pragma: no cover - guarded by Testbench validation
            raise TypeError(f"unknown analysis spec {type(spec).__name__}")

    @staticmethod
    def _measure(job: _Job) -> None:
        """Checks, then measures; the first failure ends the job."""
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
