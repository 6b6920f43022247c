"""Batched testbench execution: the session with the stacked solvers.

:class:`BatchSimulator` is :class:`repro.bench.simulator.Simulator` running
many *structurally identical* jobs -- the same analysis specs, typically one
:class:`~repro.bench.Testbench` applied to many design points or technology
variants -- through the same executor.  It overrides only the three solver
methods:

* missing operating points of one analysis position become one
  :func:`repro.spice.dc.dc_operating_point_batch` call (per-job corner
  temperatures ride along as the batch's ``(B,)`` temperature vector);
* AC analyses go through :func:`repro.spice.ac.ac_analysis_batch`;
* transient analyses become one
  :func:`repro.spice.transient.transient_analysis_batch` run.

A design-dependent topology cannot share a stacked solve; those calls fall
back to the serial methods.  The DC and transient solvers run the same
controller at any batch size, so each job's
:class:`~repro.bench.testbench.SimResult` matches a serial
``Simulator().run(bench, design)`` exactly.

A job whose execution raises outside the modelled failure modes (builder
bugs, bad measure code, ...) yields a
:class:`~repro.engine.backends.SimulationFailure` carrying the exception's
type name and message instead of poisoning the rest of the batch -- the
record every backend's ``simulate`` returns for a raising job (see
:meth:`repro.engine.backends.BatchedBackend.simulate`).
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro import telemetry
from repro.bench.analyses import ACSpec, NoiseSpec, TranSpec
from repro.bench.simulator import Simulator, _Job
from repro.bench.testbench import SimResult
from repro.engine.backends import SimulationFailure
from repro.errors import NetlistError
from repro.spice.ac import ac_analysis_batch
from repro.spice.dc import dc_operating_point_batch
from repro.spice.transient import _sources_at_t0, transient_analysis_batch

__test__ = False


class BatchSimulator(Simulator):
    """Execute many structurally identical testbench jobs as one batch."""

    def run(self, jobs) -> list[SimResult | SimulationFailure]:
        """Run ``jobs`` -- an iterable of ``(bench, design)`` pairs.

        Returns one entry per job, in order: the job's :class:`SimResult`
        (bit-identical to a serial ``Simulator().run``) or a
        :class:`~repro.engine.backends.SimulationFailure` when the job
        raised outside the simulator's modelled failure modes.
        """
        states = [_Job(bench, dict(design)) for bench, design in jobs]
        if not states:
            return []
        self._validate(states)
        with telemetry.span("bench.run_batch", bench=states[0].bench.name,
                            batch=len(states)):
            self._execute(states)
        return [job.result() if job.error is None
                else SimulationFailure.from_exception(job.error)
                for job in states]

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
    # stacked solver entry points                                         #
    # ------------------------------------------------------------------ #
    def _solve_ops(self, circuits, temperatures, transient: bool) -> list:
        try:
            # A transient initial condition holds every waveform source at
            # its t = 0 value, as transient_operating_point does.
            with _sources_at_t0(circuits) if transient else nullcontext():
                return dc_operating_point_batch(
                    circuits, temperature=np.array(temperatures, dtype=float))
        except (NetlistError, ValueError):
            # Design-dependent topologies cannot share a batch.
            return super()._solve_ops(circuits, temperatures, transient)
        except Exception as exc:  # noqa: BLE001 - one error per job
            return [exc] * len(circuits)

    def _ac_sweeps(self, circuits, ops, spec: ACSpec) -> list:
        try:
            return ac_analysis_batch(circuits, ops, spec.frequencies,
                                     observe=list(spec.observe))
        except Exception:  # noqa: BLE001 - rerun per job to isolate it
            return super()._ac_sweeps(circuits, ops, spec)

    def _transients(self, circuits, ops, spec: TranSpec) -> list:
        try:
            return transient_analysis_batch(
                circuits, spec.t_stop, observe=list(spec.observe),
                operating_points=ops, reltol=spec.reltol, abstol=spec.abstol,
                return_errors=True)
        except (NetlistError, ValueError):
            # Design-dependent topologies cannot share a batch.
            return super()._transients(circuits, ops, spec)
