"""The simulator session: executes a testbench with operating-point reuse.

One :class:`Simulator` run takes a :class:`~repro.bench.Testbench` and a
design point, builds each referenced circuit once, executes the analyses in
order and extracts the measures into one metric dictionary.  The session
memoises operating points by ``(circuit, temperature, transient)``, so a
bench with several analyses around the same bias pays for exactly one Newton
solve -- the hot-path win over the legacy imperative testbenches, which
re-solved the bias per analysis (and per rebuilt circuit).

Failure semantics mirror the legacy testbenches: a non-converged bias, a
diverging transient, a singular sweep, a failed check or a non-finite gated
measure all yield ``SimResult(ok=False, failure=...)`` -- the caller (usually
:meth:`repro.circuits.base.CircuitSizingProblem.simulate`) maps that to the
problem's pessimised metrics so optimizers still learn from dead designs.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.bench.analyses import (
    ACSpec,
    AnalysisSpec,
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
from repro.spice.dc import OperatingPoint, dc_operating_point
from repro.spice.sweep import dc_sweep, temperature_sweep
from repro.spice.transient import transient_analysis, transient_operating_point


class Simulator:
    """One testbench-execution session.

    Operating points are memoised per ``(circuit, temperature, transient)``
    and shared across analyses.  Counters (reset per :meth:`run`) are
    reported in ``SimResult.stats``.
    """

    def __init__(self):
        self.n_op_solves = 0
        self.n_op_reused = 0
        self.n_circuits_built = 0

    # ------------------------------------------------------------------ #
    # session state helpers                                               #
    # ------------------------------------------------------------------ #
    def _circuit(self, bench: Testbench, design: dict[str, float],
                 circuits: dict, key: str):
        if key not in circuits:
            circuits[key] = bench.builders[key](design)
            self.n_circuits_built += 1
        return circuits[key]

    def _operating_point(self, bench: Testbench, design: dict[str, float],
                         circuits: dict, ops: dict, spec: AnalysisSpec,
                         transient: bool) -> OperatingPoint:
        """Solve or fetch the bias for one analysis' circuit and temperature."""
        temperature = spec.resolved_temperature(bench.temperature)
        key = (spec.circuit, float(temperature), bool(transient))
        if key in ops:
            self.n_op_reused += 1
            return ops[key]
        circuit = self._circuit(bench, design, circuits, spec.circuit)
        solve = transient_operating_point if transient else dc_operating_point
        op = solve(circuit, temperature=temperature)
        self.n_op_solves += 1
        ops[key] = op
        return op

    def _resolve_op(self, bench: Testbench, design: dict[str, float],
                    circuits: dict, ops: dict, results: dict,
                    spec: AnalysisSpec, transient: bool) -> OperatingPoint:
        """The bias an AC/transient analysis linearises around."""
        referenced = getattr(spec, "op", None)
        if referenced is not None:
            self.n_op_reused += 1
            return results[referenced]
        return self._operating_point(bench, design, circuits, ops, spec, transient)

    # ------------------------------------------------------------------ #
    # execution                                                           #
    # ------------------------------------------------------------------ #
    def run(self, bench: Testbench, design: dict[str, float]) -> SimResult:
        """Execute ``bench`` for one named design point."""
        with telemetry.span("bench.run", bench=bench.name):
            result = self._run(bench, design)
        if telemetry.enabled():
            telemetry.inc("repro_bench_runs_total")
            if not result.ok:
                telemetry.inc("repro_bench_failures_total")
            telemetry.inc("repro_op_solves_total", self.n_op_solves)
            telemetry.inc("repro_op_reused_total", self.n_op_reused)
        return result

    def _run(self, bench: Testbench, design: dict[str, float]) -> SimResult:
        self.n_op_solves = self.n_op_reused = self.n_circuits_built = 0
        circuits: dict[str, object] = {}
        ops: dict[tuple, OperatingPoint] = {}
        results: dict[str, object] = {}

        for spec in bench.analyses:
            temperature = spec.resolved_temperature(bench.temperature)
            if isinstance(spec, OPSpec):
                op = self._operating_point(bench, design, circuits, ops, spec,
                                           transient=spec.transient)
                if not op.converged:
                    return self._failed(f"{spec.name}: operating point of "
                                        f"{bench.name!r} did not converge", results)
                results[spec.name] = op
            elif isinstance(spec, ACSpec):
                op = self._resolve_op(bench, design, circuits, ops, results,
                                      spec, transient=False)
                if not op.converged:
                    return self._failed(f"{spec.name}: bias for AC analysis "
                                        "did not converge", results)
                circuit = self._circuit(bench, design, circuits, spec.circuit)
                results[spec.name] = ac_analysis(circuit, op, spec.frequencies,
                                                 observe=list(spec.observe))
            elif isinstance(spec, NoiseSpec):
                op = self._resolve_op(bench, design, circuits, ops, results,
                                      spec, transient=False)
                if not op.converged:
                    return self._failed(f"{spec.name}: bias for noise analysis "
                                        "did not converge", results)
                circuit = self._circuit(bench, design, circuits, spec.circuit)
                try:
                    results[spec.name] = noise_analysis(
                        circuit, op, spec.frequencies, output=spec.output)
                except (np.linalg.LinAlgError, KeyError, ValueError) as exc:
                    return self._failed(f"{spec.name}: {exc}", results)
            elif isinstance(spec, TranSpec):
                op = self._resolve_op(bench, design, circuits, ops, results,
                                      spec, transient=True)
                if not op.converged:
                    return self._failed(f"{spec.name}: transient initial "
                                        "condition did not converge", results)
                circuit = self._circuit(bench, design, circuits, spec.circuit)
                try:
                    results[spec.name] = transient_analysis(
                        circuit, spec.t_stop, observe=list(spec.observe),
                        operating_point=op, reltol=spec.reltol,
                        abstol=spec.abstol)
                except ConvergenceError as exc:
                    return self._failed(f"{spec.name}: {exc}", results)
            elif isinstance(spec, DCSweepSpec):
                circuit = self._circuit(bench, design, circuits, spec.circuit)
                try:
                    values, observed = dc_sweep(
                        circuit, spec.device, spec.attribute, spec.values,
                        observe=spec.observe, temperature=temperature)
                except (np.linalg.LinAlgError, KeyError, ValueError) as exc:
                    return self._failed(f"{spec.name}: {exc}", results)
                self.n_op_solves += len(values)
                results[spec.name] = SweepResult(values=values, observed=observed)
            elif isinstance(spec, TempSweepSpec):
                circuit = self._circuit(bench, design, circuits, spec.circuit)
                try:
                    temps, observed, points = temperature_sweep(
                        circuit, spec.temperatures, spec.observe)
                except (np.linalg.LinAlgError, KeyError, ValueError) as exc:
                    return self._failed(f"{spec.name}: {exc}", results)
                self.n_op_solves += len(points)
                if not all(p.converged for p in points):
                    return self._failed(f"{spec.name}: a sweep point did not "
                                        "converge", results)
                if not np.all(np.isfinite(observed)):
                    return self._failed(f"{spec.name}: non-finite sweep "
                                        "observation", results)
                results[spec.name] = SweepResult(values=temps, observed=observed,
                                                 points=points)
            else:  # pragma: no cover - guarded by Testbench validation
                raise TypeError(f"unknown analysis spec {type(spec).__name__}")

        context = MeasureContext(design=dict(design), circuits=circuits,
                                 results=results)
        for check in bench.checks:
            try:
                alive = check.fn(context)
            except MeasurementError as exc:
                return self._failed(f"check {check.description!r}: {exc}", results)
            if not alive:
                return self._failed(f"check failed: {check.description}", results)

        metrics: dict[str, float] = {}
        for measure in bench.measures:
            try:
                value = float(measure.fn(context))
            except MeasurementError as exc:
                return self._failed(f"measure {measure.name!r}: {exc}", results)
            if measure.require_finite and not np.isfinite(value):
                return self._failed(f"measure {measure.name!r} is not finite",
                                    results)
            metrics[measure.name] = value
        return SimResult(ok=True, metrics=metrics, analyses=results,
                         stats=self._stats())

    # ------------------------------------------------------------------ #
    # bookkeeping                                                         #
    # ------------------------------------------------------------------ #
    def _stats(self) -> dict[str, int]:
        return {"n_op_solves": self.n_op_solves,
                "n_op_reused": self.n_op_reused,
                "n_circuits_built": self.n_circuits_built}

    def _failed(self, reason: str, results: dict) -> SimResult:
        return SimResult(ok=False, failure=reason, analyses=results,
                         stats=self._stats())
