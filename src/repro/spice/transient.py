"""Adaptive-timestep transient analysis with companion models.

The solver integrates the circuit's differential-algebraic system with the
classic SPICE recipe:

* every reactive device is discretised into a *companion model* (conductance
  plus history current source) via the ``stamp_transient`` contract in
  :mod:`repro.spice.devices.base`;
* each timestep is solved with damped Newton iteration, reusing the MNA
  stamper and warm-starting from the previous solution;
* the first steps after t = 0 and after every waveform breakpoint use
  backward Euler (L-stable, safe across discontinuities), then integration
  switches to the trapezoidal rule (second order, A-stable);
* the timestep adapts to a local-truncation-error estimate built from
  divided differences of the accepted solution history, and steps are forced
  to land exactly on source-waveform breakpoints.

:class:`TransientResult` carries the accepted waveforms and implements the
time-domain measurements the sizing problems use as figures of merit: slew
rate, settling time and overshoot of a step response.

:func:`transient_analysis` and :func:`transient_analysis_batch` run one
controller (:class:`_TranController`).  Every design keeps its *own*
adaptive controller state (time, timestep, integration method, LTE history,
breakpoint cursor), while the per-step Newton solves of all in-flight
designs are batched into one ``(B, size, size)`` assembly and one stacked
solve.  Because each design's decisions depend only on its own iterate
sequence, a design's result is bit-identical at any batch size.  As in
:mod:`repro.spice.dc`, only the assembly depends on the input: one circuit
stamps through the scalar ``stamp_transient`` device contract, two or more
through the vectorised ``stamp_transient_batch`` contract (see
:mod:`repro.spice.devices.base`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.errors import ConvergenceError
from repro.spice.dc import (
    OperatingPoint,
    _batch_temperatures,
    _ColumnAssembler,
    _check_batch_topology,
    _ScalarAssembler,
    _solve_rows_individually,
    dc_operating_point,
    dc_operating_point_batch,
)
from repro.spice.netlist import Circuit
from repro.telemetry import SolveStats

#: Tiny conductance to ground keeping otherwise-floating nodes solvable.
_TRANSIENT_GMIN = 1e-12


@dataclass
class TransientResult:
    """Time-domain waveforms of the observed nodes.

    Attributes
    ----------
    times:
        Accepted timepoints in seconds (first entry is 0 -- the DC initial
        condition -- and the last entry is exactly ``t_stop``).
    node_voltages:
        Mapping node name -> voltage array (same length as ``times``).
    n_accepted / n_rejected:
        Timestep-controller statistics (rejections count both LTE failures
        and Newton failures).
    n_newton_iterations:
        Total Newton iterations across all attempted steps.
    stats:
        Optional :class:`~repro.telemetry.SolveStats` telemetry metadata;
        excluded from equality and from every bit-identity comparison.
    """

    times: np.ndarray
    node_voltages: dict[str, np.ndarray]
    n_accepted: int = 0
    n_rejected: int = 0
    n_newton_iterations: int = 0
    stats: SolveStats | None = field(default=None, compare=False, repr=False)

    # ------------------------------------------------------------------ #
    # accessors                                                           #
    # ------------------------------------------------------------------ #
    def voltage(self, node: str) -> np.ndarray:
        return self.node_voltages[node]

    def value_at(self, node: str, t: float) -> float:
        """Linearly interpolated voltage at an arbitrary time."""
        return float(np.interp(t, self.times, self.voltage(node)))

    def final_value(self, node: str) -> float:
        """Voltage at the last accepted timepoint."""
        return float(self.voltage(node)[-1])

    # ------------------------------------------------------------------ #
    # step-response measurements                                          #
    # ------------------------------------------------------------------ #
    def _step_window(self, node: str, t_start: float,
                     final: float | None) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Times/voltages from ``t_start`` on, plus (initial, final) levels."""
        times, values = self.times, self.voltage(node)
        mask = times >= t_start
        v0 = self.value_at(node, t_start)
        vf = self.final_value(node) if final is None else float(final)
        return times[mask], values[mask], v0, vf

    @staticmethod
    def _first_crossing(times: np.ndarray, values: np.ndarray,
                        threshold: float, rising: bool) -> float | None:
        """Interpolated time of the first crossing of ``threshold``."""
        beyond = values >= threshold if rising else values <= threshold
        indices = np.nonzero(beyond)[0]
        if indices.size == 0:
            return None
        index = int(indices[0])
        if index == 0:
            return float(times[0])
        t0, t1 = times[index - 1], times[index]
        v0, v1 = values[index - 1], values[index]
        if v1 == v0:
            return float(t1)
        return float(t0 + (threshold - v0) / (v1 - v0) * (t1 - t0))

    def slew_rate(self, node: str, t_start: float = 0.0,
                  low_fraction: float = 0.1, high_fraction: float = 0.9,
                  final: float | None = None) -> float:
        """10%-90% (by default) slew rate of a step transition, in V/s.

        Measured between the first crossings of the ``low_fraction`` and
        ``high_fraction`` levels of the transition from the value at
        ``t_start`` to the final value.  Returns 0 for a dead output (no
        swing or thresholds never crossed).
        """
        times, values, v0, vf = self._step_window(node, t_start, final)
        swing = vf - v0
        if times.size < 2 or abs(swing) < 1e-15:
            return 0.0
        rising = swing > 0
        t_low = self._first_crossing(times, values, v0 + low_fraction * swing, rising)
        t_high = self._first_crossing(times, values, v0 + high_fraction * swing, rising)
        if t_low is None or t_high is None or t_high <= t_low:
            return 0.0
        return (high_fraction - low_fraction) * abs(swing) / (t_high - t_low)

    def settling_time(self, node: str, tolerance: float = 0.01,
                      t_start: float = 0.0, final: float | None = None) -> float:
        """Time from ``t_start`` until the node stays within ``tolerance``.

        The band is ``tolerance * |swing|`` around the final value.  Returns
        ``inf`` when the node is still outside the band at the end of the
        analysis window, and 0 when it never leaves the band.
        """
        times, values, v0, vf = self._step_window(node, t_start, final)
        swing = vf - v0
        band = tolerance * abs(swing)
        if times.size < 2 or band <= 0.0:
            return 0.0
        outside = np.abs(values - vf) > band
        if not outside.any():
            return 0.0
        last_outside = int(np.nonzero(outside)[0][-1])
        if last_outside == times.size - 1:
            return float("inf")
        # Interpolate the band entry between the last outside sample and the
        # first inside one.
        t0, t1 = times[last_outside], times[last_outside + 1]
        d0 = abs(values[last_outside] - vf)
        d1 = abs(values[last_outside + 1] - vf)
        if d0 == d1:
            return float(t1 - t_start)
        fraction = (d0 - band) / (d0 - d1)
        return float(t0 + fraction * (t1 - t0) - t_start)

    def overshoot_percent(self, node: str, t_start: float = 0.0,
                          final: float | None = None) -> float:
        """Peak excursion beyond the final value, as a percentage of the swing."""
        times, values, v0, vf = self._step_window(node, t_start, final)
        swing = vf - v0
        if times.size < 2 or abs(swing) < 1e-15:
            return 0.0
        if swing > 0:
            excursion = float(values.max()) - vf
        else:
            excursion = vf - float(values.min())
        return max(excursion, 0.0) / abs(swing) * 100.0


def _divided_difference(times: list[float], values: list[np.ndarray]) -> np.ndarray:
    """Highest-order Newton divided difference of the given samples."""
    table = list(values)
    for order in range(1, len(times)):
        table = [(table[i + 1] - table[i]) / (times[i + order] - times[i])
                 for i in range(len(table) - 1)]
    return table[0]


def _collect_breakpoints(circuit: Circuit, t_stop: float) -> list[float]:
    """Sorted unique waveform breakpoints in ``(0, t_stop)``, plus ``t_stop``."""
    points: set[float] = set()
    for device in circuit.devices:
        waveform = getattr(device, "waveform", None)
        if waveform is not None:
            points.update(waveform.breakpoints(t_stop))
    merged: list[float] = []
    for point in sorted(points):
        if 0.0 < point < t_stop and (not merged or point - merged[-1] > 1e-15 * t_stop):
            merged.append(point)
    # The last entry is always exactly t_stop.  A kept waveform breakpoint
    # within the controller's time tolerance (eps = 1e-12 * t_stop) of
    # t_stop merges into it: landing on such a breakpoint would otherwise
    # leave a final sliver step that either ends the sweep short of t_stop
    # or underflows dt_min after a single rejection.
    if merged and t_stop - merged[-1] <= 1e-12 * t_stop:
        merged[-1] = t_stop
    else:
        merged.append(t_stop)
    return merged


@contextmanager
def _sources_at_t0(circuits):
    """Hold every waveform source of ``circuits`` at its t = 0 value.

    This is the transient initial condition: a source whose waveform starts
    away from its ``dc`` attribute (e.g. a step from a low level) must be
    biased at the waveform's starting value, not at the AC-testbench bias.
    The ``dc`` attributes are restored on exit.
    """
    overridden = []
    try:
        for circuit in circuits:
            for device in circuit.devices:
                waveform = getattr(device, "waveform", None)
                if waveform is not None:
                    overridden.append((device, device.dc))
                    device.dc = waveform.value_at(0.0)
        yield
    finally:
        for device, dc in overridden:
            device.dc = dc


def transient_operating_point(circuit: Circuit, temperature: float = 27.0,
                              ) -> OperatingPoint:
    """DC solution with every waveform source held at its t = 0 value."""
    with _sources_at_t0([circuit]):
        return dc_operating_point(circuit, temperature=temperature)


def _initial_condition_message(title: str, operating_point: OperatingPoint,
                               ) -> str:
    """The failed-initial-condition message, enriched with the DC stats.

    An externally built operating point without stats keeps the bare
    message.
    """
    message = f"transient initial condition of {title!r} did not converge"
    stats = getattr(operating_point, "stats", None)
    if stats is not None:
        message = f"{message} {stats.failure_detail()}"
    return message


def _check_op_temperature(temperature: float,
                          operating_point: OperatingPoint) -> None:
    """Reject a ``temperature=`` that disagrees with the supplied bias."""
    if float(temperature) != float(operating_point.temperature):
        raise ValueError(
            f"temperature={float(temperature):g}C disagrees with the "
            f"operating point's {float(operating_point.temperature):g}C; "
            "omit temperature= or pass the operating point's value")


def transient_analysis(circuit: Circuit, t_stop: float,
                       observe: list[str] | None = None,
                       temperature: float | None = None,
                       dt_initial: float | None = None,
                       dt_min: float | None = None,
                       dt_max: float | None = None,
                       reltol: float = 1e-4, abstol: float = 1e-6,
                       newton_tolerance: float = 1e-9,
                       max_newton_iterations: int = 50,
                       damping: float = 0.5,
                       max_steps: int = 200_000,
                       operating_point: OperatingPoint | None = None,
                       ) -> TransientResult:
    """Integrate ``circuit`` from its DC initial condition to ``t_stop``.

    Parameters
    ----------
    t_stop:
        Analysis window in seconds.
    observe:
        Node names to record; defaults to every non-ground node.
    temperature:
        Analysis temperature in Celsius.  Defaults to the supplied
        ``operating_point``'s temperature (27 when solving the initial
        condition here).  A value that *disagrees* with a supplied
        operating point raises :class:`ValueError`: the companion models
        would be evaluated at a different temperature from the bias they
        linearise around.
    dt_initial / dt_min / dt_max:
        Startup, floor and ceiling timesteps; default to ``1e-4``, ``1e-12``
        and ``1/50`` of ``t_stop``.
    reltol / abstol:
        Per-step local-truncation-error tolerance: a step is accepted when
        the estimated LTE of every node voltage is below
        ``reltol * |v| + abstol``.
    operating_point:
        Pre-computed initial condition; by default
        :func:`transient_operating_point` is solved (waveform sources held at
        their t = 0 values).

    Raises
    ------
    ConvergenceError:
        When the controller underflows ``dt_min`` (Newton repeatedly failing
        or the error estimate never satisfied) or exceeds ``max_steps``.
    """
    if t_stop <= 0.0:
        raise ValueError(f"t_stop must be positive, got {t_stop}")
    if temperature is None:
        temperature = (operating_point.temperature
                       if operating_point is not None else 27.0)
    elif operating_point is not None:
        _check_op_temperature(temperature, operating_point)
    circuit.ensure_indices()
    observed = list(observe) if observe is not None else circuit.nodes
    controller = _TranController(t_stop, dt_initial, dt_min, dt_max, reltol,
                                 abstol, newton_tolerance,
                                 max_newton_iterations, damping, max_steps)

    if operating_point is None:
        operating_point = transient_operating_point(circuit, temperature)
    if not operating_point.converged:
        raise ConvergenceError(_initial_condition_message(circuit.title,
                                                          operating_point))

    design = _TranDesign(0, circuit, temperature)
    controller.start(design, operating_point)
    with telemetry.span("spice.transient", circuit=circuit.title):
        controller.run([design], _TranScalarAssembler(design))
    stats = _tran_stats(design)
    telemetry.record_solve(stats)
    if design.error is not None:
        raise design.error
    return _tran_result(design, observed, stats)


# --------------------------------------------------------------------- #
# batched transient                                                      #
# --------------------------------------------------------------------- #
def transient_operating_point_batch(circuits, temperature=27.0,
                                    ) -> list[OperatingPoint]:
    """Batched :func:`transient_operating_point`.

    ``temperature`` may be a scalar or a length-``B`` array.
    """
    circuits = list(circuits)
    with _sources_at_t0(circuits):
        return dc_operating_point_batch(circuits, temperature=temperature)


class _TranBatchAssembler(_ColumnAssembler):
    """Assembles the batched companion-model system for active designs.

    Transient analogue of :class:`repro.spice.dc._BatchAssembler`, with
    each design's device states sliced alongside the contexts.
    """

    def __init__(self, circuits: list[Circuit], temperatures: np.ndarray,
                 states_by_design: list):
        super().__init__(circuits, temperatures)
        # Per-column list of per-design state dicts (references -- commits
        # mutate them in place).  Designs whose initial condition failed
        # carry None; they never enter the active set, so the placeholder is
        # never dereferenced.
        self.column_states = [
            [None if states_by_design[b] is None
             else states_by_design[b][column[0].name]
             for b in range(len(circuits))]
            for column in self.columns]
        self._indices = self._times = self._dts = self._trap = None

    def _gather_extra(self, index_list: list) -> list:
        return [[column[i] for i in index_list]
                for column in self.column_states]

    def assemble(self, active: list, voltages: np.ndarray, changed: bool):
        """Stamp the in-flight designs ``active`` at their Newton iterates.

        The per-design index, time, timestep and integration-method arrays
        are rebuilt only when ``changed`` says a design began a new step
        attempt or left the batch since the last call.
        """
        if changed:
            self._indices = np.array([d.index for d in active])
            self._times = np.array([d.t_new for d in active])
            self._dts = np.array([d.dt for d in active])
            self._trap = np.array([d.method == "trap" for d in active])
        indices = self._indices
        stamper = self._reset_stamper(len(indices))
        siblings, contexts, temperatures, mosfet_params, states = self._gather(
            indices)
        # One errstate frame for the whole stamp loop, like the DC assembler.
        with np.errstate(over="ignore", invalid="ignore"):
            self._evaluate_mosfets(contexts, mosfet_params, voltages)
            for position, column in enumerate(self.columns):
                column[0].stamp_transient_batch(
                    stamper, siblings[position], voltages, states[position],
                    self._times, self._dts, self._trap, temperatures,
                    contexts[position])
        # The scalar contract always applies _TRANSIENT_GMIN, so this stamp
        # is unconditional.
        stamper.add_gmin(_TRANSIENT_GMIN)
        return stamper


class _TranScalarAssembler(_ScalarAssembler):
    """Assembles a batch of one through the scalar ``stamp_transient`` contract.

    The transient analogue of :class:`repro.spice.dc._ScalarAssembler`.
    """

    def __init__(self, design: "_TranDesign"):
        super().__init__(design.circuit, design.temperature)
        self.design = design

    def assemble(self, active: list, voltages: np.ndarray, changed: bool):
        self.assemblies += 1
        d = self.design
        d.circuit.stamp_transient(voltages[0], d.states, d.t_new, d.dt,
                                  d.method, d.temperature,
                                  gmin=_TRANSIENT_GMIN, stamper=self.view)
        return self.stamper


class _TranDesign:
    """Controller state of one design inside a transient sweep."""

    __slots__ = ("index", "circuit", "temperature", "states", "t", "dt",
                 "solution", "times", "solutions", "history", "breakpoints",
                 "next_break", "n_accepted", "n_rejected", "n_newton",
                 "t_new", "method", "hit_break", "iterate",
                 "attempt_iterations", "attempt_residual", "dt_smallest",
                 "dt_largest", "finished", "error")

    def __init__(self, index: int, circuit: Circuit, temperature: float):
        self.index = index
        self.circuit = circuit
        self.temperature = temperature
        self.states: dict[str, dict] | None = None
        self.t = 0.0
        self.dt = 0.0
        self.solution: np.ndarray | None = None
        self.times: list[float] = [0.0]
        self.solutions: list[np.ndarray] = []
        self.history: list[tuple[float, np.ndarray]] = []
        self.breakpoints: list[float] = []
        self.next_break = 0
        self.n_accepted = 0
        self.n_rejected = 0
        self.n_newton = 0
        self.t_new = 0.0
        self.method = "be"
        self.hit_break = False
        self.iterate: np.ndarray | None = None
        self.attempt_iterations = 0
        self.attempt_residual = float("nan")
        self.dt_smallest = float("inf")
        self.dt_largest = 0.0
        self.finished = False
        self.error: Exception | None = None


class _TranController:
    """The adaptive timestep controller, run over any number of designs.

    Every design keeps its own time, timestep, BE/trap switching, LTE
    accept/reject decisions and breakpoint schedule; :meth:`run` batches the
    Newton iterations of all in-flight designs into one assembly and one
    stacked solve.  A design's decisions depend only on its own iterates,
    so its result does not depend on the batch it runs in.
    """

    def __init__(self, t_stop: float, dt_initial, dt_min, dt_max,
                 reltol: float, abstol: float, newton_tolerance: float,
                 max_newton_iterations: int, damping: float, max_steps: int):
        self.t_stop = t_stop
        self.dt_initial = (t_stop * 1e-4 if dt_initial is None
                           else float(dt_initial))
        self.dt_min = t_stop * 1e-12 if dt_min is None else float(dt_min)
        self.dt_max = t_stop / 50.0 if dt_max is None else float(dt_max)
        self.reltol = reltol
        self.abstol = abstol
        self.newton_tolerance = newton_tolerance
        self.max_newton_iterations = max_newton_iterations
        self.damping = damping
        self.max_steps = max_steps
        self.eps = t_stop * 1e-12

    def start(self, d: _TranDesign, operating_point: OperatingPoint) -> None:
        """Initialise design ``d`` from its DC initial condition."""
        d.states = d.circuit.init_transient_states(operating_point,
                                                   d.temperature)
        d.solution = operating_point.voltages.copy()
        d.solutions = [d.solution.copy()]
        # Accepted (t, solution) history for the divided-difference LTE
        # estimate; reset at every breakpoint so the estimate never spans a
        # discontinuity.
        d.history = [(0.0, d.solution.copy())]
        d.breakpoints = _collect_breakpoints(d.circuit, self.t_stop)
        d.dt = min(self.dt_initial, self.dt_max, d.breakpoints[0])

    def begin_attempt(self, d: _TranDesign) -> None:
        """Set up design ``d``'s next step attempt (or fail on max_steps)."""
        if d.n_accepted + d.n_rejected >= self.max_steps:
            d.error = ConvergenceError(
                f"transient analysis of {d.circuit.title!r} exceeded "
                f"{self.max_steps} steps at t={d.t:.3e}s "
                f"({d.n_accepted} accepted, {d.n_rejected} rejected)")
            return
        eps = self.eps
        while d.breakpoints[d.next_break] <= d.t + eps:
            d.next_break += 1
        d.dt = min(d.dt, self.dt_max, self.t_stop - d.t)
        d.hit_break = d.t + d.dt >= d.breakpoints[d.next_break] - eps
        if d.hit_break:
            d.dt = d.breakpoints[d.next_break] - d.t
        # Backward Euler until three accepted points exist past the last
        # breakpoint, trapezoidal afterwards.
        d.method = "be" if len(d.history) < 3 else "trap"
        d.t_new = d.t + d.dt
        # The solver owns the reserved "time"/"method" state keys; they are
        # fixed for the whole attempt.
        for state in d.states.values():
            state["time"] = d.t_new
            state["method"] = d.method
        d.iterate = d.solution.copy()
        d.attempt_iterations = 0
        d.attempt_residual = float("nan")

    def finish_attempt(self, d: _TranDesign, converged: bool) -> None:
        """Accept or reject design ``d``'s attempt and pick the next step."""
        new_solution = d.iterate
        if not converged:
            d.n_rejected += 1
            d.dt *= 0.25
            if d.dt < self.dt_min:
                d.error = ConvergenceError(
                    f"transient Newton iteration of {d.circuit.title!r} "
                    f"failed at t={d.t_new:.3e}s with dt={d.dt:.3e}s after "
                    f"{d.attempt_iterations} iterations "
                    f"(residual={d.attempt_residual:.3e})")
                return
            self.begin_attempt(d)
            return
        # Local-truncation-error estimate from divided differences of the
        # accepted history plus the candidate point.  BE error ~
        # (dt^2/2) v'' with v'' ~ 2*DD2; trapezoidal error ~ (dt^3/12)
        # v''' with v''' ~ 6*DD3.
        n_nodes = d.circuit.n_nodes
        error_ratio = None
        if len(d.history) >= 2:
            order = 3 if d.method == "trap" else 2
            sample = d.history[-order:] + [(d.t_new, new_solution)]
            dd = _divided_difference([s[0] for s in sample],
                                     [s[1][:n_nodes] for s in sample])
            lte = (0.5 * d.dt**3 * np.abs(dd) if d.method == "trap"
                   else d.dt**2 * np.abs(dd))
            tolerance = (self.reltol * np.maximum(
                np.abs(new_solution[:n_nodes]), np.abs(d.solution[:n_nodes]))
                + self.abstol)
            error_ratio = float(np.max(lte / tolerance))
            if error_ratio > 1.0:
                d.n_rejected += 1
                d.dt *= max(0.1, 0.9 * error_ratio ** (-1.0 / order))
                if d.dt < self.dt_min:
                    d.error = ConvergenceError(
                        f"transient timestep of {d.circuit.title!r} "
                        f"underflowed at t={d.t_new:.3e}s (LTE never "
                        f"satisfied) ({d.n_accepted} accepted, "
                        f"{d.n_rejected} rejected)")
                    return
                self.begin_attempt(d)
                return

        d.circuit.commit_transient(new_solution, d.states, d.dt,
                                   d.temperature)
        if d.dt < d.dt_smallest:
            d.dt_smallest = d.dt
        if d.dt > d.dt_largest:
            d.dt_largest = d.dt
        d.t = d.t_new
        d.solution = new_solution
        d.n_accepted += 1
        d.times.append(d.t)
        d.solutions.append(d.solution.copy())
        d.history.append((d.t, d.solution.copy()))
        if len(d.history) > 3:
            d.history.pop(0)

        if d.hit_break:
            # Restart integration behind the corner: BE, small steps, and
            # an LTE history that does not bridge the discontinuity.
            d.history = [(d.t, d.solution.copy())]
            d.dt = min(self.dt_initial, self.dt_max)
        elif error_ratio is None:
            d.dt = min(d.dt * 2.0, self.dt_max)
        else:
            order = 3 if d.method == "trap" else 2
            factor = 0.9 * max(error_ratio, 1e-10) ** (-1.0 / order)
            d.dt = min(d.dt * min(2.0, max(0.3, factor)), self.dt_max)

        if d.t < self.t_stop - self.eps:
            self.begin_attempt(d)
        else:
            d.finished = True

    def run(self, designs: list, assembler) -> None:
        """Step every started design to ``t_stop`` or to its error."""
        for d in designs:
            if d.error is None:
                self.begin_attempt(d)
        active = [d for d in designs if d.error is None and not d.finished]
        damping = self.damping
        changed = True
        while active:
            # Unless a design began a new attempt or left, every iterate is
            # the previous pass's damped step: reuse that array as it is.
            if changed:
                voltages = np.stack([d.iterate for d in active])
            stamper = assembler.assemble(active, voltages, changed)
            solve_errors = None
            try:
                new_voltages = stamper.solve()
            except np.linalg.LinAlgError:
                solve_errors = [None] * len(active)
                new_voltages = _solve_rows_individually(
                    stamper, assembler.size, solve_errors)
            finite = np.isfinite(new_voltages).all(axis=1)
            delta = new_voltages - voltages
            residuals = np.abs(delta).max(axis=1)
            # np.clip's semantics in two bare ufunc calls (NaN propagates).
            voltages = voltages + np.minimum(np.maximum(delta, -damping),
                                             damping)
            changed = False
            still_active = []
            for i, d in enumerate(active):
                d.attempt_iterations += 1
                d.n_newton += 1
                if solve_errors is not None and solve_errors[i] is not None:
                    d.error = solve_errors[i]
                elif not finite[i]:
                    # Bail without applying the update (and without
                    # refreshing the attempt residual).
                    self.finish_attempt(d, False)
                else:
                    d.iterate = voltages[i]
                    d.attempt_residual = float(residuals[i])
                    if d.attempt_residual < self.newton_tolerance:
                        self.finish_attempt(d, True)
                    elif d.attempt_iterations >= self.max_newton_iterations:
                        self.finish_attempt(d, False)
                    else:
                        still_active.append(d)
                        continue
                changed = True
                if d.error is None and not d.finished:
                    still_active.append(d)
            active = still_active


def _tran_stats(d: _TranDesign, **batch) -> SolveStats:
    """Design ``d``'s :class:`SolveStats`; ``batch`` adds the batch-only fields."""
    accepted = d.error is None and d.n_accepted > 0
    return SolveStats(
        analysis="transient", converged=d.error is None, iterations=d.n_newton,
        n_accepted=d.n_accepted, n_rejected=d.n_rejected,
        final_residual=d.attempt_residual, final_gmin=_TRANSIENT_GMIN,
        dt_min=d.dt_smallest if accepted else float("nan"),
        dt_max=d.dt_largest if accepted else float("nan"), **batch)


def _tran_result(d: _TranDesign, observed: list[str],
                 stats: SolveStats) -> TransientResult:
    """Design ``d``'s accepted waveforms at the ``observed`` nodes."""
    times = np.array(d.times)
    stacked = np.stack(d.solutions, axis=0)
    responses: dict[str, np.ndarray] = {}
    for node in observed:
        index = d.circuit.node_index(node)
        responses[node] = (np.zeros(times.shape[0]) if index < 0
                           else stacked[:, index].copy())
    return TransientResult(times=times, node_voltages=responses,
                           n_accepted=d.n_accepted, n_rejected=d.n_rejected,
                           n_newton_iterations=d.n_newton, stats=stats)


def transient_analysis_batch(circuits, t_stop: float,
                             observe: list[str] | None = None,
                             temperature=None,
                             dt_initial: float | None = None,
                             dt_min: float | None = None,
                             dt_max: float | None = None,
                             reltol: float = 1e-4, abstol: float = 1e-6,
                             newton_tolerance: float = 1e-9,
                             max_newton_iterations: int = 50,
                             damping: float = 0.5,
                             max_steps: int = 200_000,
                             operating_points: list[OperatingPoint] | None = None,
                             return_errors: bool = False) -> list:
    """Transient analysis of ``B`` topology-identical circuits at once.

    Each design runs its own timestep controller -- its own time,
    timestep, BE/trap switching, LTE accept/reject decisions and breakpoint
    schedule -- but the Newton solves of all in-flight designs are batched:
    one stacked assembly and solve per iteration.  Designs step
    *asynchronously* (one may be on its 40th accepted step while another is
    still rejecting its 2nd); a design leaves the batch only when it reaches
    ``t_stop`` or fails.  Results are bit-identical to
    :func:`transient_analysis` per circuit:
    identical accepted times, waveforms and accept/reject/Newton counters.

    Parameters mirror :func:`transient_analysis`, plus:

    temperature:
        Scalar or length-``B`` array of per-design temperatures.  Defaults
        to each supplied operating point's temperature (27 when the initial
        conditions are solved here).  Per design, a value disagreeing with a
        supplied operating point raises :class:`ValueError`, exactly like
        :func:`transient_analysis`.
    operating_points:
        Pre-computed initial conditions, one per circuit; by default
        :func:`transient_operating_point_batch` solves them.
    return_errors:
        When set, per-design failures (:class:`ConvergenceError`, singular
        systems) are returned as exception objects in the result list
        instead of raising; the default raises the first failure.

    Returns
    -------
    list
        One entry per circuit: a :class:`TransientResult`, or (with
        ``return_errors``) the exception that design raised.
    """
    circuits = list(circuits)
    if not circuits:
        return []
    if t_stop <= 0.0:
        raise ValueError(f"t_stop must be positive, got {t_stop}")
    _check_batch_topology(circuits)
    first = circuits[0]
    batch_size = len(circuits)

    if operating_points is not None:
        operating_points = list(operating_points)
        if len(operating_points) != batch_size:
            raise ValueError(
                f"operating_points must have one entry per circuit "
                f"({batch_size}), got {len(operating_points)}")
    if temperature is None:
        if operating_points is not None:
            temperatures = np.array([float(op.temperature)
                                     for op in operating_points])
        else:
            temperatures = np.full(batch_size, 27.0)
    else:
        temperatures = _batch_temperatures(temperature, batch_size)
        if operating_points is not None:
            for celsius, op in zip(temperatures, operating_points):
                _check_op_temperature(celsius, op)
    if operating_points is None:
        operating_points = transient_operating_point_batch(circuits,
                                                           temperatures)

    observed = list(observe) if observe is not None else first.nodes
    controller = _TranController(t_stop, dt_initial, dt_min, dt_max, reltol,
                                 abstol, newton_tolerance,
                                 max_newton_iterations, damping, max_steps)
    designs = [_TranDesign(b, circuit, float(temperatures[b]))
               for b, circuit in enumerate(circuits)]
    for d, op in zip(designs, operating_points):
        if op.converged:
            controller.start(d, op)
        else:
            d.error = ConvergenceError(
                _initial_condition_message(d.circuit.title, op))
    assembler = (_TranScalarAssembler(designs[0]) if batch_size == 1
                 else _TranBatchAssembler(circuits, temperatures,
                                          [d.states for d in designs]))

    with telemetry.span("spice.transient_batch", batch=batch_size,
                        circuit=first.title):
        controller.run(designs, assembler)

    occupancy = assembler.occupancy
    if occupancy == occupancy:  # skip the no-assembly NaN
        telemetry.observe("repro_batch_occupancy", occupancy,
                          telemetry.FRACTION_BUCKETS)
    outcomes: list = []
    for d in designs:
        stats = _tran_stats(d, batch_size=batch_size,
                            batch_occupancy=occupancy)
        telemetry.record_solve(stats)
        if d.error is not None:
            if not return_errors:
                raise d.error
            outcomes.append(d.error)
            continue
        outcomes.append(_tran_result(d, observed, stats))
    return outcomes
