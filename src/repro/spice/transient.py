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
adaptive controller state (time, timestep, integration method, LTE
history, breakpoint cursor) as one row of the controller's arrays.  Each
Newton pass batches the solves of all in-flight designs into one
``(B, size, size)`` assembly and one stacked solve, then settles every
design that finished a step attempt in that pass with masked array
operations (LTE estimate, accept/reject, commit, next timestep).  Because
each row's decisions depend only on its own iterate sequence, a design's
result is bit-identical at any batch size.  As in :mod:`repro.spice.dc`,
only the assembly depends on the input: one circuit stamps through the
scalar ``stamp_transient`` device contract, two or more through the
vectorised ``stamp_transient_batch`` / ``commit_transient_batch`` contract
(see :mod:`repro.spice.devices.base`).
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
    controller = _TranController([circuit], t_stop, dt_initial, dt_min,
                                 dt_max, reltol, abstol, newton_tolerance,
                                 max_newton_iterations, damping, max_steps)

    if operating_point is None:
        operating_point = transient_operating_point(circuit, temperature)
    if not operating_point.converged:
        raise ConvergenceError(_initial_condition_message(circuit.title,
                                                          operating_point))

    rows = np.zeros(1, dtype=int)
    controller.start(rows, [operating_point.voltages])
    assembler = _TranScalarAssembler(
        circuit, temperature,
        circuit.init_transient_states(operating_point, temperature))
    with telemetry.span("spice.transient", circuit=circuit.title):
        controller.run(rows, assembler)
    [(times, solutions, dts)] = _split_log(controller)
    stats = _tran_stats(controller, 0, dts)
    telemetry.record_solve(stats)
    if controller.errors[0] is not None:
        raise controller.errors[0]
    return _tran_result(controller, 0, times, solutions, observed, stats)


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

    Transient analogue of :class:`repro.spice.dc._BatchAssembler`.  Each
    device column's transient state is one dict of ``(B,)`` arrays, stacked
    once from the designs' scalar ``init_transient`` dicts (designs whose
    initial condition failed get zeros; they never enter the active set).
    The stamps receive it row-sliced, like the contexts; the commits update
    it in place, so the slices are refreshed whenever a design begins a new
    step attempt or leaves.  Waveform source values are computed once per
    design and step attempt (:meth:`begin_attempts`), not once per Newton
    pass.
    """

    def __init__(self, circuits: list[Circuit], temperatures: np.ndarray,
                 states_by_design: list):
        super().__init__(circuits, temperatures)
        started = [states for states in states_by_design if states is not None]
        self.states = []
        self.waveform_positions = []
        for position, column in enumerate(self.columns):
            name = column[0].name
            keys = started[0][name] if started else ()
            state = {key: np.array([0.0 if states is None else states[name][key]
                                    for states in states_by_design])
                     for key in keys}
            # An independent source's value array: a source without a
            # waveform holds its dc value, so only waveform columns are
            # re-evaluated as attempts begin.
            if hasattr(column[0], "value_at"):
                state["value"] = np.array([device.value_at(0.0)
                                           for device in column])
                if any(device.waveform is not None for device in column):
                    self.waveform_positions.append(position)
            self.states.append(state)
        self._step = None

    def begin_attempts(self, rows: np.ndarray, times: np.ndarray) -> None:
        """Evaluate the waveform sources of designs ``rows`` at ``times``."""
        row_list = rows.tolist()
        time_list = times.tolist()
        for position in self.waveform_positions:
            column = self.columns[position]
            self.states[position]["value"][rows] = [
                column[b].value_at(t) for b, t in zip(row_list, time_list)]

    def assemble(self, active: np.ndarray, voltages: np.ndarray,
                 changed: bool, times: np.ndarray, dts: np.ndarray,
                 trap: np.ndarray):
        """Stamp the in-flight designs ``active`` at their Newton iterates.

        ``times``/``dts``/``trap`` are the controller's full-batch attempt
        arrays.  They and the states are sliced to ``active`` only when
        ``changed`` says a design began a new step attempt or left the
        batch since the last call.
        """
        if changed:
            self._step = (times[active], dts[active], trap[active],
                          [{key: values[active]
                            for key, values in state.items()}
                           for state in self.states])
        step_times, step_dts, step_trap, states = self._step
        stamper = self._reset_stamper(len(active))
        siblings, contexts, temperatures, mosfet_params = self._gather(active)
        # One errstate frame for the whole stamp loop, like the DC assembler.
        with np.errstate(over="ignore", invalid="ignore"):
            self._evaluate_mosfets(contexts, mosfet_params, voltages)
            for position, column in enumerate(self.columns):
                column[0].stamp_transient_batch(
                    stamper, siblings[position], voltages, states[position],
                    step_times, step_dts, step_trap, temperatures,
                    contexts[position])
        # The scalar contract always applies _TRANSIENT_GMIN, so this stamp
        # is unconditional.
        stamper.add_gmin(_TRANSIENT_GMIN)
        return stamper

    def commit(self, rows: np.ndarray, solutions: np.ndarray,
               dts: np.ndarray, trap: np.ndarray) -> None:
        """Roll the states of the accepted designs ``rows`` forward."""
        for position, column in enumerate(self.columns):
            column[0].commit_transient_batch(solutions, self.states[position],
                                             rows, dts, trap,
                                             self.contexts[position])


class _TranScalarAssembler(_ScalarAssembler):
    """Assembles a batch of one through the scalar ``stamp_transient`` contract.

    The transient analogue of :class:`repro.spice.dc._ScalarAssembler`.  The
    design's state is the dict of per-device dicts from
    :meth:`repro.spice.netlist.Circuit.init_transient_states`, which
    :meth:`~repro.spice.netlist.Circuit.stamp_transient` stamps and
    :meth:`~repro.spice.netlist.Circuit.commit_transient` rolls forward.
    """

    def __init__(self, circuit: Circuit, temperature: float, states: dict):
        super().__init__(circuit, temperature)
        self.states = states
        self._step = None

    def begin_attempts(self, rows: np.ndarray, times: np.ndarray) -> None:
        """Nothing to prepare: scalar stamps read ``state["time"]``."""
        return

    def assemble(self, active: np.ndarray, voltages: np.ndarray,
                 changed: bool, times: np.ndarray, dts: np.ndarray,
                 trap: np.ndarray):
        self.assemblies += 1
        if changed:
            self._step = (float(times[0]), float(dts[0]),
                          "trap" if trap[0] else "be")
        time, dt, method = self._step
        self.circuit.stamp_transient(voltages[0], self.states, time, dt,
                                     method, self.temperature,
                                     gmin=_TRANSIENT_GMIN, stamper=self.view)
        return self.stamper

    def commit(self, rows: np.ndarray, solutions: np.ndarray,
               dts: np.ndarray, trap: np.ndarray) -> None:
        self.circuit.commit_transient(solutions[0], self.states,
                                      float(dts[0]), self.temperature)


def _divided_difference(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Highest-order Newton divided differences, one per row.

    ``times`` is ``(R, n)`` and ``values`` is ``(R, n, nodes)``; the result
    is each row's ``(nodes,)`` divided difference of order ``n - 1``.
    """
    table = values
    for order in range(1, times.shape[1]):
        table = ((table[:, 1:] - table[:, :-1])
                 / (times[:, order:] - times[:, :-order])[:, :, None])
    return table[:, 0]


class _TranController:
    """The adaptive timestep controller, run over any number of designs.

    Every design keeps its own time, timestep, BE/trap switching, LTE
    accept/reject decisions and breakpoint schedule, held as rows of
    ``(B,)`` arrays; the LTE history is ``(B, 4)`` times and
    ``(B, 4, n_nodes)`` node voltages (up to three accepted points plus the
    candidate).  :meth:`run` batches the Newton iterations of all in-flight
    designs into one assembly and one stacked solve per pass, then settles
    every design that finished an attempt in that pass at once: divided
    differences, LTE, accept/reject, the commit and the next timestep are
    masked array operations over the finishing rows.  Each row sees the
    same elementwise operations in the same order as a design run alone,
    so its result does not depend on the batch it runs in.
    """

    def __init__(self, circuits: list[Circuit], t_stop: float, dt_initial,
                 dt_min, dt_max, reltol: float, abstol: float,
                 newton_tolerance: float, max_newton_iterations: int,
                 damping: float, max_steps: int):
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

        self.circuits = circuits
        count = len(circuits)
        self.n_nodes = circuits[0].n_nodes
        size = self.n_nodes + circuits[0].n_branches
        self.errors: list[Exception | None] = [None] * count
        #: Designs that reached t_stop or failed.
        self.done = np.zeros(count, dtype=bool)
        self.t = np.zeros(count)
        self.dt = np.zeros(count)
        self.t_new = np.zeros(count)
        self.trap = np.zeros(count, dtype=bool)
        self.hit_break = np.zeros(count, dtype=bool)
        self.n_accepted = np.zeros(count, dtype=int)
        self.n_rejected = np.zeros(count, dtype=int)
        #: Newton passes run so far.  Every design iterates in every pass
        #: from the first until it leaves, so its Newton total is the pass
        #: count when it leaves, and its current attempt has taken
        #: ``passes - attempt_start`` iterations.
        self.passes = 0
        self.n_newton = np.zeros(count, dtype=int)
        self.attempt_start = np.zeros(count, dtype=int)
        self.attempt_residual = np.full(count, np.nan)
        self.solution = np.zeros((count, size))
        self.iterate = np.zeros((count, size))
        # Accepted (t, node voltages) history for the divided-difference
        # LTE estimate; an attempt's candidate goes in slot history_len.
        # Reset at every breakpoint so the estimate never spans a
        # discontinuity.
        self.history_t = np.zeros((count, 4))
        self.history_v = np.zeros((count, 4, self.n_nodes))
        self.history_len = np.ones(count, dtype=int)
        schedules = [_collect_breakpoints(circuit, t_stop)
                     for circuit in circuits]
        self.breakpoints = np.full((count, max(map(len, schedules))), np.inf)
        for b, schedule in enumerate(schedules):
            self.breakpoints[b, :len(schedule)] = schedule
        self.next_break = np.zeros(count, dtype=int)
        self.break_time = self.breakpoints[:, 0].copy()
        #: Accepted points as ``(rows, times, solutions, timesteps)``, one
        #: entry per pass in order; the first entry holds the initial
        #: conditions (with NaN timesteps).
        self.log: list[tuple] = []

    def start(self, rows: np.ndarray, voltages: list) -> None:
        """Initialise designs ``rows`` from their DC solutions ``voltages``."""
        solutions = np.array(voltages, dtype=float).reshape(
            len(rows), self.solution.shape[1])
        self.solution[rows] = solutions
        self.history_v[rows, 0] = solutions[:, :self.n_nodes]
        self.dt[rows] = np.minimum(min(self.dt_initial, self.dt_max),
                                   self.break_time[rows])
        self.log.append((rows, self.t[rows], self.solution[rows],
                         np.full(len(rows), np.nan)))

    def leave(self, rows) -> None:
        """Designs ``rows`` reached t_stop or failed."""
        self.done[rows] = True
        self.n_newton[rows] = self.passes

    def fail(self, b: int, error: Exception) -> None:
        """Design ``b`` stops here with ``error``."""
        self.errors[b] = error
        self.leave(b)

    def begin_attempts(self, rows: np.ndarray, assembler) -> None:
        """Set up the next step attempt of designs ``rows`` (or fail on max_steps)."""
        over = self.n_accepted[rows] + self.n_rejected[rows] >= self.max_steps
        if np.count_nonzero(over):
            for b in rows[over].tolist():
                self.fail(b, ConvergenceError(
                    f"transient analysis of {self.circuits[b].title!r} "
                    f"exceeded {self.max_steps} steps at "
                    f"t={float(self.t[b]):.3e}s "
                    f"({int(self.n_accepted[b])} accepted, "
                    f"{int(self.n_rejected[b])} rejected)"))
            rows = rows[~over]
        eps = self.eps
        t = self.t[rows]
        passed = (self.break_time[rows] <= t + eps).nonzero()[0]
        while passed.size:
            ahead = rows[passed]
            self.next_break[ahead] += 1
            self.break_time[ahead] = self.breakpoints[ahead,
                                                      self.next_break[ahead]]
            passed = passed[self.break_time[ahead] <= t[passed] + eps]
        breakpoint = self.break_time[rows]
        dt = np.minimum(np.minimum(self.dt[rows], self.dt_max),
                        self.t_stop - t)
        hit_break = t + dt >= breakpoint - eps
        dt = np.where(hit_break, breakpoint - t, dt)
        t_new = t + dt
        self.dt[rows] = dt
        self.hit_break[rows] = hit_break
        self.t_new[rows] = t_new
        # Backward Euler until three accepted points exist past the last
        # breakpoint, trapezoidal afterwards.
        self.trap[rows] = self.history_len[rows] == 3
        self.iterate[rows] = self.solution[rows]
        self.attempt_start[rows] = self.passes
        self.attempt_residual[rows] = np.nan
        assembler.begin_attempts(rows, t_new)

    def reject_newton(self, rows: np.ndarray, assembler) -> None:
        """Designs ``rows`` failed Newton: quarter the step and retry."""
        self.n_rejected[rows] += 1
        dt = self.dt[rows] * 0.25
        self.dt[rows] = dt
        under = dt < self.dt_min
        if np.count_nonzero(under):
            for b in rows[under].tolist():
                self.fail(b, ConvergenceError(
                    f"transient Newton iteration of "
                    f"{self.circuits[b].title!r} failed at "
                    f"t={float(self.t_new[b]):.3e}s with "
                    f"dt={float(self.dt[b]):.3e}s after "
                    f"{int(self.passes - self.attempt_start[b])} iterations "
                    f"(residual={float(self.attempt_residual[b]):.3e})"))
            rows = rows[~under]
        self.begin_attempts(rows, assembler)

    def _error_ratio(self, rows: np.ndarray, solutions: np.ndarray,
                     dt: np.ndarray, trap: np.ndarray) -> np.ndarray:
        """Max LTE-to-tolerance ratio of each candidate of ``rows``.

        The estimate divides differences of the accepted history plus the
        candidate.  BE error ~ (dt^2/2) v'' with v'' ~ 2*DD2; trapezoidal
        error ~ (dt^3/12) v''' with v''' ~ 6*DD3.
        """
        n_nodes = self.n_nodes
        n_trap = np.count_nonzero(trap)
        if n_trap in (0, len(rows)):
            points = 4 if n_trap else 3
            dd = _divided_difference(self.history_t[rows, :points],
                                     self.history_v[rows, :points])
        else:
            dd = np.empty((len(rows), n_nodes))
            for points, group in ((3, ~trap), (4, trap)):
                group_rows = rows[group]
                dd[group] = _divided_difference(
                    self.history_t[group_rows, :points],
                    self.history_v[group_rows, :points])
        # The dt powers stay Python float math, as in a serial step.
        coefficient = np.array(
            [0.5 * step**3 if method_trap else step**2
             for step, method_trap in zip(dt.tolist(), trap.tolist())])
        lte = coefficient[:, None] * np.abs(dd)
        tolerance = (self.reltol * np.maximum(
            np.abs(solutions[:, :n_nodes]),
            np.abs(self.solution[rows, :n_nodes])) + self.abstol)
        return (lte / tolerance).max(axis=1)

    def finish_converged(self, rows: np.ndarray, solutions: np.ndarray,
                         assembler) -> None:
        """Accept or reject the converged attempts of ``rows``; step on."""
        n_nodes = self.n_nodes
        dt = self.dt[rows]
        trap = self.trap[rows]
        history_len = self.history_len[rows]
        self.history_t[rows, history_len] = self.t_new[rows]
        self.history_v[rows, history_len] = solutions[:, :n_nodes]
        # A one-point history gives no LTE estimate.
        estimated = history_len > 1
        n_estimated = np.count_nonzero(estimated)
        if n_estimated == len(rows):
            ratio = self._error_ratio(rows, solutions, dt, trap)
        else:
            ratio = np.zeros(len(rows))
            if n_estimated:
                ratio[estimated] = self._error_ratio(
                    rows[estimated], solutions[estimated], dt[estimated],
                    trap[estimated])
        reject = ratio > 1.0
        if np.count_nonzero(reject):
            rejected = rows[reject]
            self.n_rejected[rejected] += 1
            shrunk = np.array(
                [step * max(0.1, 0.9 * error_ratio
                            ** (-1.0 / (3 if method_trap else 2)))
                 for step, error_ratio, method_trap in zip(
                     dt[reject].tolist(), ratio[reject].tolist(),
                     trap[reject].tolist())])
            self.dt[rejected] = shrunk
            under = shrunk < self.dt_min
            for b in rejected[under].tolist():
                self.fail(b, ConvergenceError(
                    f"transient timestep of {self.circuits[b].title!r} "
                    f"underflowed at t={float(self.t_new[b]):.3e}s (LTE "
                    f"never satisfied) ({int(self.n_accepted[b])} "
                    f"accepted, {int(self.n_rejected[b])} rejected)"))
            self.begin_attempts(rejected[~under], assembler)
            accept = ~reject
            rows, solutions, dt, trap, history_len, estimated, ratio = (
                rows[accept], solutions[accept], dt[accept], trap[accept],
                history_len[accept], estimated[accept], ratio[accept])
            if not rows.size:
                return

        assembler.commit(rows, solutions, dt, trap)
        t = self.t_new[rows]
        self.t[rows] = t
        self.solution[rows] = solutions
        self.n_accepted[rows] += 1
        self.log.append((rows, t, solutions, dt))
        # The candidate joins the history; beyond three points the oldest
        # drops out.
        full = history_len == 3
        if np.count_nonzero(full):
            shifted = rows[full]
            self.history_t[shifted, :3] = self.history_t[shifted, 1:]
            self.history_v[shifted, :3] = self.history_v[shifted, 1:]
        self.history_len[rows] = np.minimum(history_len + 1, 3)
        hit_break = self.hit_break[rows]
        if np.count_nonzero(hit_break):
            # Restart integration behind the corner: BE, small steps, and
            # an LTE history that does not bridge the discontinuity.
            broken = rows[hit_break]
            self.history_t[broken, 0] = t[hit_break]
            self.history_v[broken, 0] = solutions[hit_break, :n_nodes]
            self.history_len[broken] = 1
        dt_max = self.dt_max
        self.dt[rows] = [
            min(self.dt_initial, dt_max) if corner
            else min(step * 2.0, dt_max) if not has_ratio
            else min(step * min(2.0, max(0.3, 0.9 * max(error_ratio, 1e-10)
                                         ** (-1.0 / (3 if method_trap else 2)))),
                     dt_max)
            for step, corner, has_ratio, error_ratio, method_trap in zip(
                dt.tolist(), hit_break.tolist(), estimated.tolist(),
                ratio.tolist(), trap.tolist())]
        going = t < self.t_stop - self.eps
        if np.count_nonzero(going) < len(rows):
            self.leave(rows[~going])
            rows = rows[going]
        self.begin_attempts(rows, assembler)

    def run(self, rows: np.ndarray, assembler) -> None:
        """Step the started designs ``rows`` to ``t_stop`` or to their error."""
        self.begin_attempts(rows, assembler)
        active = rows[~self.done[rows]]
        damping = self.damping
        changed = True
        while active.size:
            # Unless a design began a new attempt or left, every iterate is
            # the previous pass's damped step: reuse that array as it is.
            if changed:
                voltages = self.iterate[active]
                deadline = (self.attempt_start[active]
                            + self.max_newton_iterations)
            stamper = assembler.assemble(active, voltages, changed,
                                         self.t_new, self.dt, self.trap)
            solve_errors = None
            try:
                new_voltages = stamper.solve()
            except np.linalg.LinAlgError:
                solve_errors = [None] * len(active)
                new_voltages = _solve_rows_individually(
                    stamper, assembler.size, solve_errors)
            self.passes += 1
            finite = np.isfinite(new_voltages).all(axis=1)
            delta = new_voltages - voltages
            residuals = np.abs(delta).max(axis=1)
            # np.clip's semantics in two bare ufunc calls (NaN propagates).
            voltages = voltages + np.minimum(np.maximum(delta, -damping),
                                             damping)
            # NaN residuals compare False, so only finite rows converge.
            converged = residuals < self.newton_tolerance
            stop = converged | (self.passes >= deadline) | ~finite
            if not np.count_nonzero(stop):
                changed = False
                continue
            changed = True
            # A bail-out applies no update and keeps the attempt residual.
            self.attempt_residual[active[finite]] = residuals[finite]
            self.iterate[active] = voltages
            failed = stop & ~converged
            if solve_errors is not None:
                for b, error in zip(active.tolist(), solve_errors):
                    if error is not None:
                        self.fail(b, error)
                failed &= ~self.done[active]
            if np.count_nonzero(failed):
                self.reject_newton(active[failed], assembler)
            if np.count_nonzero(converged):
                self.finish_converged(active[converged], voltages[converged],
                                      assembler)
            active = active[~self.done[active]]


def _tran_stats(controller: _TranController, b: int, dts: np.ndarray,
                **batch) -> SolveStats:
    """Design ``b``'s :class:`SolveStats` given its logged timesteps ``dts``.

    ``batch`` adds the batch-only fields.
    """
    converged = controller.errors[b] is None
    n_accepted = int(controller.n_accepted[b])
    accepted = dts[1:] if converged and n_accepted > 0 else None
    return SolveStats(
        analysis="transient", converged=converged,
        iterations=int(controller.n_newton[b]), n_accepted=n_accepted,
        n_rejected=int(controller.n_rejected[b]),
        final_residual=float(controller.attempt_residual[b]),
        final_gmin=_TRANSIENT_GMIN,
        dt_min=float("nan") if accepted is None else float(accepted.min()),
        dt_max=float("nan") if accepted is None else float(accepted.max()),
        **batch)


def _split_log(controller: _TranController) -> list[tuple]:
    """Per design: its logged ``(times, solutions, timesteps)``, in step order."""
    rows, times, solutions, dts = (np.concatenate(column)
                                   for column in zip(*controller.log))
    order = np.argsort(rows, kind="stable")
    bounds = np.cumsum(np.bincount(
        rows, minlength=len(controller.circuits)))[:-1]
    return list(zip(np.split(times[order], bounds),
                    np.split(solutions[order], bounds),
                    np.split(dts[order], bounds)))


def _tran_result(controller: _TranController, b: int, times: np.ndarray,
                 solutions: np.ndarray, observed: list[str],
                 stats: SolveStats) -> TransientResult:
    """Design ``b``'s accepted waveforms at the ``observed`` nodes."""
    circuit = controller.circuits[b]
    responses: dict[str, np.ndarray] = {}
    for node in observed:
        index = circuit.node_index(node)
        responses[node] = (np.zeros(times.shape[0]) if index < 0
                           else solutions[:, index].copy())
    return TransientResult(times=times, node_voltages=responses,
                           n_accepted=int(controller.n_accepted[b]),
                           n_rejected=int(controller.n_rejected[b]),
                           n_newton_iterations=int(controller.n_newton[b]),
                           stats=stats)


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

    Each design has its own controller state -- its own time, timestep,
    BE/trap switching, LTE accept/reject decisions and breakpoint schedule
    -- held as one row of the controller's arrays, while the Newton solves
    of all in-flight designs are batched: one stacked assembly and solve
    per pass, after which every design that finished a step attempt in
    that pass is settled with array operations over those rows.  Designs
    step *asynchronously* (one may be on its 40th accepted step while
    another is still rejecting its 2nd); a design leaves the batch only
    when it reaches ``t_stop`` or fails.  Results are bit-identical to
    :func:`transient_analysis` per circuit: identical accepted times,
    waveforms, accept/reject/Newton counters, timestep statistics and
    failure messages, whatever else shares the batch.

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
    controller = _TranController(circuits, t_stop, dt_initial, dt_min,
                                 dt_max, reltol, abstol, newton_tolerance,
                                 max_newton_iterations, damping, max_steps)
    states = []
    for b, (circuit, op) in enumerate(zip(circuits, operating_points)):
        if op.converged:
            states.append(circuit.init_transient_states(
                op, float(temperatures[b])))
        else:
            states.append(None)
            controller.fail(b, ConvergenceError(
                _initial_condition_message(circuit.title, op)))
    rows = np.flatnonzero(~controller.done)
    controller.start(rows, [operating_points[b].voltages
                            for b in rows.tolist()])
    assembler = (_TranScalarAssembler(first, float(temperatures[0]), states[0])
                 if batch_size == 1
                 else _TranBatchAssembler(circuits, temperatures, states))

    with telemetry.span("spice.transient_batch", batch=batch_size,
                        circuit=first.title):
        controller.run(rows, assembler)

    occupancy = assembler.occupancy
    if occupancy == occupancy:  # skip the no-assembly NaN
        telemetry.observe("repro_batch_occupancy", occupancy,
                          telemetry.FRACTION_BUCKETS)
    outcomes: list = []
    for b, (times, solutions, dts) in enumerate(_split_log(controller)):
        stats = _tran_stats(controller, b, dts, batch_size=batch_size,
                            batch_occupancy=occupancy)
        telemetry.record_solve(stats)
        error = controller.errors[b]
        if error is not None:
            if not return_errors:
                raise error
            outcomes.append(error)
            continue
        outcomes.append(_tran_result(controller, b, times, solutions,
                                     observed, stats))
    return outcomes
