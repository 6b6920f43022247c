"""Newton-Raphson DC operating-point analysis with gmin stepping.

Two drivers share one model of the iteration:

* :func:`dc_operating_point` -- classic serial Newton on one circuit;
* :func:`dc_operating_point_batch` -- the same gmin ladder on ``B``
  topology-identical circuits at once, assembling one ``(B, size, size)``
  tensor per iteration and solving it with a single stacked LAPACK call.
  Per-design convergence masking freezes finished designs exactly where
  the serial iteration would stop them, so each design's iterate sequence
  -- and hence its final :class:`OperatingPoint` -- is bit-identical to a
  serial solve of that design alone.

Both drivers solve dense MNA systems: the circuits this package sizes have
at most a few dozen unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.errors import ConvergenceError, NetlistError
from repro.spice.mna import BatchStamper
from repro.spice.netlist import Circuit
from repro.telemetry import SolveStats


@dataclass
class OperatingPoint:
    """Solved DC operating point.

    Attributes
    ----------
    voltages:
        Raw solution vector (node voltages then branch currents).
    node_voltages:
        Mapping node name -> DC voltage.
    device_info:
        Mapping device name -> small-signal / bias dictionary (``gm``,
        ``gds``, ``ids``, ``region``, ...), consumed by AC analysis.
    converged:
        Whether Newton iteration met the tolerance.
    iterations:
        Newton iterations used (summed across gmin steps).
    temperature:
        Analysis temperature in Celsius.
    stats:
        Optional :class:`~repro.telemetry.SolveStats` telemetry metadata.
        Excluded from equality (``compare=False``) and from cache keys
        (those hash only design parameter bytes), so it never perturbs
        bit-identity contracts.
    """

    voltages: np.ndarray
    node_voltages: dict[str, float]
    device_info: dict[str, dict[str, float]] = field(default_factory=dict)
    converged: bool = True
    iterations: int = 0
    temperature: float = 27.0
    stats: SolveStats | None = field(default=None, compare=False, repr=False)

    def voltage(self, node: str) -> float:
        if node in ("0", "gnd", "vss"):
            return 0.0
        return self.node_voltages[node]


def _newton_solve(circuit: Circuit, start: np.ndarray, temperature: float,
                  gmin: float, max_iterations: int, tolerance: float,
                  damping: float, collect_residuals: bool = False,
                  ) -> tuple[np.ndarray, bool, int, float, int, list | None]:
    """Damped Newton iteration at a fixed gmin level.

    Returns ``(voltages, converged, iterations, residual, clamps,
    trajectory)``: ``residual`` is the last computed ``max|delta|`` (NaN if
    the solve bailed before any update), ``clamps`` counts voltage steps
    clipped by the damping limiter, and ``trajectory`` lists the
    per-iteration residuals when ``collect_residuals`` is set (telemetry
    only -- the extra list appends never run on a disabled hot path).
    """
    voltages = start.copy()
    stamper = circuit.make_stamper()
    residual = float("nan")
    clamps = 0
    trajectory: list | None = [] if collect_residuals else None
    for iteration in range(1, max_iterations + 1):
        circuit.stamp_dc(voltages, temperature, gmin=gmin, stamper=stamper)
        try:
            new_voltages = stamper.solve()
        except np.linalg.LinAlgError:
            try:
                new_voltages = stamper.solve_lstsq()
            except np.linalg.LinAlgError:
                # lstsq's SVD can itself diverge on a non-finite system;
                # bail out rather than poison the next gmin step's warm start.
                return voltages, False, iteration, residual, clamps, trajectory
        if not np.all(np.isfinite(new_voltages)):
            return voltages, False, iteration, residual, clamps, trajectory
        delta = new_voltages - voltages
        abs_delta = np.abs(delta)
        # Limit the per-iteration voltage step (classic SPICE damping).
        step = np.clip(delta, -damping, damping)
        voltages = voltages + step
        residual = float(np.max(abs_delta))
        clamps += int(np.count_nonzero(abs_delta > damping))
        if trajectory is not None:
            trajectory.append(residual)
        if residual < tolerance:
            return voltages, True, iteration, residual, clamps, trajectory
    return voltages, False, max_iterations, residual, clamps, trajectory


#: Fallback schedule for solves the standard settings cannot crack: a much
#: denser gmin ladder with gentle damping.  Slower per attempt, so it only
#: runs after the standard ladder has already failed.
_RESCUE_GMIN_STEPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9,
                      1e-10, 1e-11, 1e-12)
_RESCUE_MAX_ITERATIONS = 200
_RESCUE_DAMPING = 0.1
#: The rescue ladder aborts once more than this many of its steps have
#: failed: rescuable chains recover within a step or two, while a
#: genuinely dead circuit fails every remaining level -- bailing out keeps
#: the cost of hopeless designs (common in random optimizer batches) to a
#: fraction of the full ladder.
_RESCUE_MAX_FAILED_STEPS = 2


def _gmin_ladder(circuit: Circuit, start: np.ndarray, temperature: float,
                 gmin_steps: tuple[float, ...], max_iterations: int,
                 tolerance: float, damping: float,
                 max_failed_steps: int | None = None,
                 collect_residuals: bool = False,
                 ) -> tuple[np.ndarray, bool, int, dict]:
    """Run Newton down a gmin ladder, warm-starting each step.

    ``max_failed_steps`` aborts the ladder early once more than that many
    steps have failed to converge (``None`` never aborts -- the standard
    path's exact legacy semantics).

    The ``info`` dict carries solve statistics: per-step iteration counts,
    the final step's residual and gmin (what a failure message reports),
    total damping clamps, and -- only when ``collect_residuals`` -- the
    final step's residual trajectory.
    """
    voltages = start
    total_iterations = 0
    converged = False
    failed_steps = 0
    iterations_per_gmin: list[int] = []
    residual = float("nan")
    last_gmin = 0.0
    clamps = 0
    trajectory: list | None = None
    for gmin in gmin_steps:
        voltages, converged, used, residual, step_clamps, trajectory = (
            _newton_solve(circuit, voltages, temperature, gmin,
                          max_iterations, tolerance, damping,
                          collect_residuals=collect_residuals))
        total_iterations += used
        iterations_per_gmin.append(used)
        last_gmin = gmin
        clamps += step_clamps
        if not converged:
            failed_steps += 1
            if (max_failed_steps is not None
                    and failed_steps > max_failed_steps):
                break
    info = {"iterations_per_gmin": iterations_per_gmin, "residual": residual,
            "gmin": last_gmin, "clamps": clamps, "trajectory": trajectory}
    return voltages, converged, total_iterations, info


def dc_operating_point(circuit: Circuit, temperature: float = 27.0,
                       max_iterations: int = 150, tolerance: float = 1e-9,
                       damping: float = 0.5,
                       gmin_steps: tuple[float, ...] = (1e-2, 1e-4, 1e-6, 1e-9, 1e-12),
                       initial_guess: np.ndarray | None = None,
                       raise_on_failure: bool = False,
                       rescue: bool = True) -> OperatingPoint:
    """Find the DC operating point of ``circuit``.

    gmin stepping: the circuit is first solved with a large conductance from
    every node to ground (which makes the system nearly linear), then the
    conductance is reduced step by step, warm-starting each Newton solve from
    the previous solution.

    When the standard ladder fails and ``rescue`` is set (the default), one
    fallback attempt runs a much denser gmin ladder with gentler damping
    from the same starting point, bailing out early once a few of its steps
    have failed (hopeless circuits stay cheap; rescuable chains recover
    within a step or two).  Solves that converge on the standard ladder
    never enter the fallback, so their solutions are bit-identical with and
    without it; the fallback exists for *marginally* hard circuits -- e.g.
    a bandgap whose mirror devices carry millivolt mismatch shifts -- where
    the coarse ladder's basin hopping overshoots.

    When Newton fails at the final gmin the best solution found is returned
    with ``converged=False`` (or :class:`ConvergenceError` is raised when
    ``raise_on_failure`` is set) -- the circuit testbenches treat
    non-converged designs as constraint violations rather than crashes.
    """
    circuit.ensure_indices()
    size = circuit.n_nodes + circuit.n_branches
    start = np.zeros(size) if initial_guess is None else np.asarray(
        initial_guess, dtype=float).copy()
    if start.shape[0] != size:
        raise ValueError(f"initial_guess must have length {size}")

    collect = telemetry.enabled()
    with telemetry.span("spice.dc", circuit=circuit.title):
        voltages, converged, total_iterations, info = _gmin_ladder(
            circuit, start.copy(), temperature, tuple(gmin_steps),
            max_iterations, tolerance, damping, collect_residuals=collect)
        iterations_per_gmin = list(info["iterations_per_gmin"])
        clamps = info["clamps"]
        rescue_entered = False
        if not converged and rescue:
            rescue_entered = True
            rescued, converged, used, info = _gmin_ladder(
                circuit, start.copy(), temperature, _RESCUE_GMIN_STEPS,
                _RESCUE_MAX_ITERATIONS, tolerance, _RESCUE_DAMPING,
                max_failed_steps=_RESCUE_MAX_FAILED_STEPS,
                collect_residuals=collect)
            total_iterations += used
            iterations_per_gmin.extend(info["iterations_per_gmin"])
            clamps += info["clamps"]
            if converged:
                voltages = rescued
    # The failure detail reports the last ladder actually walked (the
    # rescue ladder once entered) -- same on the batched path.
    trajectory = info["trajectory"] if not converged else None
    stats = SolveStats(
        analysis="dc", converged=converged, iterations=total_iterations,
        iterations_per_gmin=tuple(iterations_per_gmin),
        gmin_steps=len(iterations_per_gmin), rescue_entered=rescue_entered,
        damping_clamps=clamps, final_residual=info["residual"],
        final_gmin=info["gmin"],
        residual_trajectory=tuple(trajectory) if trajectory else ())
    telemetry.record_solve(stats)
    if not converged and raise_on_failure:
        raise ConvergenceError(
            f"DC analysis of {circuit.title!r} did not converge "
            f"{stats.failure_detail()}")

    node_voltages = {name: float(voltages[index])
                     for name, index in zip(circuit.nodes, range(circuit.n_nodes))}
    device_info = {device.name: device.operating_info(voltages, temperature)
                   for device in circuit.devices}
    return OperatingPoint(voltages=voltages, node_voltages=node_voltages,
                          device_info=device_info, converged=converged,
                          iterations=total_iterations, temperature=temperature,
                          stats=stats)


# --------------------------------------------------------------------- #
# batched Newton                                                         #
# --------------------------------------------------------------------- #
def _check_batch_topology(circuits: list[Circuit]) -> None:
    """Verify that every circuit in the batch is topology-identical.

    Batched assembly stacks per-design values on shared (row, col) slots, so
    the circuits must agree on node/branch layout and on the device sequence
    (classes, names and resolved indices); only parameter *values* may
    differ.
    """
    first = circuits[0]
    first.ensure_indices()
    for circuit in circuits[1:]:
        circuit.ensure_indices()
        if (circuit.n_nodes != first.n_nodes
                or circuit.n_branches != first.n_branches
                or circuit.nodes != first.nodes
                or len(circuit.devices) != len(first.devices)):
            raise NetlistError(
                f"batched DC analysis needs topology-identical circuits: "
                f"{circuit.title!r} does not match {first.title!r}")
        for reference, device in zip(first.devices, circuit.devices):
            if (type(device) is not type(reference)
                    or device.name != reference.name
                    or device.node_indices != reference.node_indices
                    or device.branch_indices != reference.branch_indices):
                raise NetlistError(
                    f"batched DC analysis needs topology-identical circuits: "
                    f"device {device.name!r} of {circuit.title!r} does not "
                    f"match {first.title!r}")


class _BatchAssembler:
    """Assembles the batched DC system for any active subset of designs.

    Built once per batched solve: transposes the batch into per-device
    sibling columns, precomputes each device's vectorized context over the
    *full* batch, and then stamps arbitrary active sub-batches by slicing
    those contexts row-wise -- convergence masking never re-derives model
    constants.
    """

    def __init__(self, circuits: list[Circuit], temperatures: np.ndarray):
        first = circuits[0]
        self.n_nodes = first.n_nodes
        self.n_branches = first.n_branches
        self.size = self.n_nodes + self.n_branches
        self.temperatures = temperatures
        # Telemetry counters: convergence-mask occupancy (active rows per
        # assembled iteration over the full batch).
        self.total_designs = len(circuits)
        self.assemblies = 0
        self.active_rows = 0
        self.columns = [tuple(circuit.devices[position] for circuit in circuits)
                        for position in range(len(first.devices))]
        self.contexts = [column[0].dc_batch_context(list(column), temperatures)
                         for column in self.columns]
        # Fusion plan: maximal runs of >=2 consecutive same-class fusable
        # columns stamp through one fused kernel (one model evaluation over
        # all rows), everything else stamps per column.  Only *consecutive*
        # columns fuse, and the fused kernel stamps rows in original order,
        # so per-cell accumulation order -- and therefore bitwise results --
        # match the serial device loop exactly.
        self.plan: list[tuple[str, int]] = []
        self.fused: list[tuple[type, list, dict, dict]] = []
        run: list[int] = []

        def flush() -> None:
            if len(run) >= 2:
                devices = [self.columns[position][0] for position in run]
                cls = type(devices[0])
                params = {key: np.stack([self.contexts[position][key]
                                         for position in run])
                          for key in self.contexts[run[0]]}
                self.plan.append(("fused", len(self.fused)))
                self.fused.append((cls, devices,
                                   cls.dc_batch_fused_layout(devices), params))
            else:
                self.plan.extend(("column", position) for position in run)
            run.clear()

        for position, (column, context) in enumerate(zip(self.columns,
                                                         self.contexts)):
            fusable = (context is not None
                       and getattr(column[0], "dc_batch_fusable", False))
            if not fusable:
                flush()
                self.plan.append(("column", position))
                continue
            if run and type(self.columns[run[-1]][0]) is not type(column[0]):
                flush()
            run.append(position)
        flush()
        # Sub-batch gathers are memoized: the active set only shrinks a
        # handful of times per ladder, while stamping runs every iteration.
        self._gather_cache: dict[bytes, tuple] = {}
        self._stamper: BatchStamper | None = None

    def _gather(self, indices: np.ndarray) -> tuple:
        key = indices.tobytes()
        cached = self._gather_cache.get(key)
        if cached is None:
            index_list = indices.tolist()
            siblings = [[column[i] for i in index_list]
                        for column in self.columns]
            contexts = [None if context is None
                        else {name: values[indices]
                              for name, values in context.items()}
                        for context in self.contexts]
            temperatures = self.temperatures[indices]
            fused_params = [{name: values[:, indices]
                             for name, values in params.items()}
                            for _, _, _, params in self.fused]
            cached = (siblings, contexts, temperatures, fused_params)
            self._gather_cache[key] = cached
        return cached

    @property
    def occupancy(self) -> float:
        """Mean fraction of the batch active per assembled iteration."""
        if not self.assemblies:
            return float("nan")
        return self.active_rows / (self.assemblies * self.total_designs)

    def assemble(self, indices: np.ndarray, voltages: np.ndarray, gmin: float):
        """Stamp the active sub-batch ``indices`` at trial ``voltages``."""
        batch_size = len(indices)
        self.assemblies += 1
        self.active_rows += batch_size
        stamper = self._stamper
        if stamper is None or stamper.batch_size != batch_size:
            stamper = BatchStamper(batch_size, self.n_nodes, self.n_branches)
            self._stamper = stamper
        else:
            stamper.reset()
        siblings, contexts, temperatures, fused_params = self._gather(indices)
        # One errstate frame for the whole stamp loop: device models produce
        # benign overflows/invalids on NaN trial voltages, and entering a
        # context manager per device per iteration is measurable overhead.
        with np.errstate(over="ignore", invalid="ignore"):
            for kind, ref in self.plan:
                if kind == "column":
                    self.columns[ref][0].stamp_dc_batch(
                        stamper, siblings[ref], voltages, temperatures,
                        contexts[ref])
                else:
                    cls, devices, layout, _ = self.fused[ref]
                    cls.stamp_dc_batch_fused(stamper, devices, layout,
                                             fused_params[ref], voltages)
        if gmin > 0.0:
            stamper.add_gmin(gmin)
        return stamper


def _solve_rows_individually(stamper, size: int) -> np.ndarray:
    """Per-design solve fallback once the stacked solve hits a singular design.

    Replicates the serial solver chain per design -- direct solve, then
    least-squares, then give up (a NaN row, which the finite check freezes
    exactly like the serial bail-out).
    """
    out = np.empty((stamper.batch_size, size))
    for b in range(stamper.batch_size):
        try:
            out[b] = stamper.solve_design(b)
        except np.linalg.LinAlgError:
            try:
                out[b] = stamper.solve_lstsq_design(b)
            except np.linalg.LinAlgError:
                out[b] = np.nan
    return out


def _newton_solve_batch(assembler: _BatchAssembler, voltages: np.ndarray,
                        indices: np.ndarray, gmin: float, max_iterations: int,
                        tolerance: float, damping: float,
                        collect_residuals: bool = False,
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray, list | None]:
    """Damped Newton on the designs ``indices`` at a fixed gmin level.

    Updates the full-batch ``voltages`` rows in place and returns
    ``(converged, iterations, residual, clamps, trajectories)`` arrays
    aligned with ``indices``.  Designs freeze the moment their serial
    counterpart would stop -- after applying the final damped step on
    convergence, *before* applying anything on a non-finite solution -- so
    warm starts for the next ladder step are bit-identical to serial.

    ``residual`` mirrors the serial solver's reporting exactly: it holds
    each design's last finite-iteration ``max|delta|`` (NaN when a design
    bailed before its first update), so failure messages built from it are
    string-identical to the serial path's.
    """
    converged = np.zeros(len(indices), dtype=bool)
    iterations = np.zeros(len(indices), dtype=int)
    residual = np.full(len(indices), np.nan)
    clamps = np.zeros(len(indices), dtype=int)
    trajectories: list | None = (
        [[] for _ in range(len(indices))] if collect_residuals else None)
    alive = np.arange(len(indices))
    for iteration in range(1, max_iterations + 1):
        active = indices[alive]
        stamper = assembler.assemble(active, voltages[active], gmin)
        try:
            new_voltages = stamper.solve()
        except np.linalg.LinAlgError:
            new_voltages = _solve_rows_individually(stamper, assembler.size)
        finite = np.isfinite(new_voltages).all(axis=1)
        iterations[alive[~finite]] = iteration
        current = voltages[active]
        delta = new_voltages - current
        abs_delta = np.abs(delta)
        step = np.clip(delta, -damping, damping)
        row_residual = np.max(abs_delta, axis=1)
        # Rows with non-finite deltas compare False here and are already
        # excluded by ``finite``; NaNs propagate through max without noise.
        below_tolerance = row_residual < tolerance
        updated = alive[finite]
        # Serial never computes a delta on the bail-out iteration, so only
        # finite rows refresh their reported residual and clamp count.
        residual[updated] = row_residual[finite]
        clamps[updated] += np.count_nonzero(abs_delta > damping,
                                            axis=1)[finite]
        if trajectories is not None:
            for position, value in zip(updated, row_residual[finite]):
                trajectories[position].append(float(value))
        voltages[indices[updated]] = (current + step)[finite]
        newly_converged = finite & below_tolerance
        converged[alive[newly_converged]] = True
        iterations[alive[newly_converged]] = iteration
        alive = alive[finite & ~below_tolerance]
        if alive.size == 0:
            return converged, iterations, residual, clamps, trajectories
    iterations[alive] = max_iterations
    return converged, iterations, residual, clamps, trajectories


def _gmin_ladder_batch(assembler: _BatchAssembler, voltages: np.ndarray,
                       indices: np.ndarray, gmin_steps: tuple[float, ...],
                       max_iterations: int, tolerance: float, damping: float,
                       max_failed_steps: int | None = None,
                       collect_residuals: bool = False,
                       ) -> tuple[np.ndarray, np.ndarray, dict]:
    """The serial gmin ladder over a batch of designs.

    Mirrors :func:`_gmin_ladder` per design: every design runs *every*
    ladder step (warm-started from its previous step) regardless of earlier
    convergence, ``converged`` reports the final step's outcome, and
    ``max_failed_steps`` retires designs whose failure count exceeds it.
    The ``info`` dict carries the same per-design solve statistics as the
    serial ladder's, as arrays/lists aligned with ``indices``.
    """
    count = len(indices)
    converged = np.zeros(count, dtype=bool)
    total_iterations = np.zeros(count, dtype=int)
    failed_steps = np.zeros(count, dtype=int)
    on_ladder = np.ones(count, dtype=bool)
    residual = np.full(count, np.nan)
    final_gmin = np.zeros(count)
    clamps = np.zeros(count, dtype=int)
    iterations_per_gmin: list[list[int]] = [[] for _ in range(count)]
    trajectories: list[tuple] = [() for _ in range(count)]
    for gmin in gmin_steps:
        positions = np.nonzero(on_ladder)[0]
        if positions.size == 0:
            break
        step_converged, used, step_residual, step_clamps, step_traj = (
            _newton_solve_batch(assembler, voltages, indices[positions], gmin,
                                max_iterations, tolerance, damping,
                                collect_residuals=collect_residuals))
        total_iterations[positions] += used
        converged[positions] = step_converged
        # Failure reporting mirrors serial: the *last step a design ran*
        # provides its residual and gmin level.
        residual[positions] = step_residual
        final_gmin[positions] = gmin
        clamps[positions] += step_clamps
        for offset, position in enumerate(positions):
            iterations_per_gmin[position].append(int(used[offset]))
            if step_traj is not None:
                trajectories[position] = tuple(step_traj[offset])
        failed = positions[~step_converged]
        failed_steps[failed] += 1
        if max_failed_steps is not None:
            on_ladder[failed[failed_steps[failed] > max_failed_steps]] = False
    info = {"residual": residual, "gmin": final_gmin, "clamps": clamps,
            "iterations_per_gmin": iterations_per_gmin,
            "trajectories": trajectories}
    return converged, total_iterations, info


def dc_operating_point_batch(circuits, temperature=27.0,
                             max_iterations: int = 150,
                             tolerance: float = 1e-9, damping: float = 0.5,
                             gmin_steps: tuple[float, ...] = (1e-2, 1e-4, 1e-6, 1e-9, 1e-12),
                             initial_guess: np.ndarray | None = None,
                             raise_on_failure: bool = False,
                             rescue: bool = True,
                             ) -> list[OperatingPoint]:
    """DC operating points of ``B`` topology-identical circuits at once.

    The whole batch walks the gmin ladder together: each Newton iteration
    assembles one ``(B, size, size)`` tensor (devices with a vectorized
    ``stamp_dc_batch`` fill all designs per stamp; the rest fall back to
    per-design stamping into batch slices) and one stacked solve advances
    every still-active design.  Converged designs freeze while stragglers
    iterate, and the rescue ladder runs only on the failed sub-batch, so the
    work tracks the hardest design rather than the batch size.

    ``temperature`` may be a scalar or a length-``B`` array (per-design
    corner temperatures).  Results are bit-identical to calling
    :func:`dc_operating_point` per circuit.
    """
    circuits = list(circuits)
    if not circuits:
        return []
    _check_batch_topology(circuits)
    first = circuits[0]
    size = first.n_nodes + first.n_branches
    batch_size = len(circuits)
    temperatures = np.asarray(temperature, dtype=float)
    if temperatures.ndim == 0:
        temperatures = np.full(batch_size, float(temperatures))
    elif temperatures.shape != (batch_size,):
        raise ValueError(f"temperature must be a scalar or have shape "
                         f"({batch_size},), got {temperatures.shape}")
    if initial_guess is None:
        start = np.zeros((batch_size, size))
    else:
        start = np.asarray(initial_guess, dtype=float).copy()
        if start.shape != (batch_size, size):
            raise ValueError(f"initial_guess must have shape "
                             f"({batch_size}, {size}), got {start.shape}")

    assembler = _BatchAssembler(circuits, temperatures)
    indices = np.arange(batch_size)
    voltages = start.copy()
    collect = telemetry.enabled()
    rescue_mask = np.zeros(batch_size, dtype=bool)
    with telemetry.span("spice.dc_batch", batch=batch_size,
                        circuit=first.title):
        converged, total_iterations, info = _gmin_ladder_batch(
            assembler, voltages, indices, tuple(gmin_steps), max_iterations,
            tolerance, damping, collect_residuals=collect)
        if rescue and not converged.all():
            failed = indices[~converged]
            rescue_mask[failed] = True
            # The rescue ladder restarts the failed designs from the original
            # start, on a scratch copy: like the serial driver, a failed rescue
            # leaves the standard ladder's best solution in place.
            rescue_voltages = voltages.copy()
            rescue_voltages[failed] = start[failed]
            rescue_converged, used, rescue_info = _gmin_ladder_batch(
                assembler, rescue_voltages, failed, _RESCUE_GMIN_STEPS,
                _RESCUE_MAX_ITERATIONS, tolerance, _RESCUE_DAMPING,
                max_failed_steps=_RESCUE_MAX_FAILED_STEPS,
                collect_residuals=collect)
            total_iterations[failed] += used
            # The rescue ladder ran last for these designs, so it provides
            # their reported residual/gmin -- exactly as on the serial path.
            info["residual"][failed] = rescue_info["residual"]
            info["gmin"][failed] = rescue_info["gmin"]
            info["clamps"][failed] += rescue_info["clamps"]
            for offset, b in enumerate(failed):
                info["iterations_per_gmin"][b].extend(
                    rescue_info["iterations_per_gmin"][offset])
                if collect:
                    info["trajectories"][b] = rescue_info["trajectories"][offset]
            rescued = failed[rescue_converged]
            voltages[rescued] = rescue_voltages[rescued]
            converged[rescued] = True

    occupancy = assembler.occupancy
    per_design_stats = []
    for b in range(batch_size):
        trajectory = info["trajectories"][b] if not converged[b] else ()
        per_design_stats.append(SolveStats(
            analysis="dc", converged=bool(converged[b]),
            iterations=int(total_iterations[b]),
            iterations_per_gmin=tuple(info["iterations_per_gmin"][b]),
            gmin_steps=len(info["iterations_per_gmin"][b]),
            rescue_entered=bool(rescue_mask[b]),
            damping_clamps=int(info["clamps"][b]),
            final_residual=float(info["residual"][b]),
            final_gmin=float(info["gmin"][b]),
            residual_trajectory=tuple(trajectory),
            batch_size=batch_size, batch_occupancy=occupancy))
    if telemetry.enabled():
        for stats in per_design_stats:
            telemetry.record_solve(stats)
        if occupancy == occupancy:  # skip the no-assembly NaN
            telemetry.observe("repro_batch_occupancy", occupancy,
                              telemetry.FRACTION_BUCKETS)

    if raise_on_failure and not converged.all():
        failures = indices[~converged]
        titles = [circuits[i].title for i in failures]
        raise ConvergenceError(
            f"batched DC analysis: {len(titles)} of {batch_size} designs did "
            f"not converge (first failure: {titles[0]!r} "
            f"{per_design_stats[failures[0]].failure_detail()})")

    results = []
    for b, circuit in enumerate(circuits):
        solution = voltages[b].copy()
        celsius = float(temperatures[b])
        node_voltages = {name: float(solution[index])
                         for name, index in zip(circuit.nodes,
                                                range(circuit.n_nodes))}
        device_info = {device.name: device.operating_info(solution, celsius)
                       for device in circuit.devices}
        results.append(OperatingPoint(
            voltages=solution, node_voltages=node_voltages,
            device_info=device_info, converged=bool(converged[b]),
            iterations=int(total_iterations[b]), temperature=celsius,
            stats=per_design_stats[b]))
    return results
