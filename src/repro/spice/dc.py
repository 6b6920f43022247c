"""Newton-Raphson DC operating-point analysis with gmin stepping.

One controller -- the gmin ladder, its damped Newton loop and the rescue
ladder -- serves both entry points:

* :func:`dc_operating_point` runs it on one circuit;
* :func:`dc_operating_point_batch` runs it on ``B`` topology-identical
  circuits at once, advancing every in-flight design with one stacked
  ``(B, size, size)`` LAPACK solve per iteration.  Per-design convergence
  masking freezes each design exactly where a solve of that design alone
  would stop, so every design's iterate sequence -- and hence its
  :class:`OperatingPoint` -- is bit-identical to :func:`dc_operating_point`
  on that circuit.

Only the assembly depends on the batch size, and only through the input: a
batch of one stamps through the scalar ``stamp_dc`` device contract
(:class:`_ScalarAssembler`), larger batches through the vectorised
``stamp_dc_batch`` contract (:class:`_BatchAssembler`).

Every system is dense: the circuits this package sizes have at most a few
dozen unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.errors import ConvergenceError, NetlistError
from repro.spice.devices.mosfet import Mosfet, batch_layout, large_signal_batch
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

    with telemetry.span("spice.dc", circuit=circuit.title):
        voltages, converged, iterations, rescued, info = _solve_dc(
            _ScalarAssembler(circuit, temperature), start[None, :],
            tuple(gmin_steps), max_iterations, tolerance, damping, rescue)
    stats = _dc_stats(0, converged, iterations, rescued, info)
    telemetry.record_solve(stats)
    if not stats.converged and raise_on_failure:
        raise ConvergenceError(
            f"DC analysis of {circuit.title!r} did not converge "
            f"{stats.failure_detail()}")
    return _operating_point(circuit, voltages[0], temperature, stats)


def _dc_stats(b: int, converged: np.ndarray, iterations: np.ndarray,
              rescued: np.ndarray, info: dict, **batch) -> SolveStats:
    """Design ``b``'s :class:`SolveStats` from the controller's arrays.

    The failure detail reports the last ladder the design actually walked
    (the rescue ladder once entered); ``batch`` adds the batch-only fields.
    """
    trajectory = info["trajectories"][b] if not converged[b] else ()
    return SolveStats(
        analysis="dc", converged=bool(converged[b]),
        iterations=int(iterations[b]),
        iterations_per_gmin=tuple(info["iterations_per_gmin"][b]),
        gmin_steps=len(info["iterations_per_gmin"][b]),
        rescue_entered=bool(rescued[b]),
        damping_clamps=int(info["clamps"][b]),
        final_residual=float(info["residual"][b]),
        final_gmin=float(info["gmin"][b]),
        residual_trajectory=tuple(trajectory), **batch)


def _operating_point(circuit: Circuit, voltages: np.ndarray, temperature,
                     stats: SolveStats) -> OperatingPoint:
    """Package one design's solution with its device bias information."""
    solution = voltages.copy()
    node_voltages = {name: float(solution[index])
                     for name, index in zip(circuit.nodes,
                                            range(circuit.n_nodes))}
    device_info = {device.name: device.operating_info(solution, temperature)
                   for device in circuit.devices}
    return OperatingPoint(voltages=solution, node_voltages=node_voltages,
                          device_info=device_info, converged=stats.converged,
                          iterations=stats.iterations, temperature=temperature,
                          stats=stats)


# --------------------------------------------------------------------- #
# the controller and its assemblers                                      #
# --------------------------------------------------------------------- #
def _check_batch_topology(circuits: list[Circuit]) -> None:
    """Verify that every circuit in the batch is topology-identical.

    Batched assembly stacks per-design values on shared (row, col) slots, so
    the circuits must agree on node/branch layout and on the device sequence
    (classes, names, resolved indices and MOSFET polarities); only parameter
    *values* may differ.
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
                    or device.branch_indices != reference.branch_indices
                    or (isinstance(device, Mosfet)
                        and device.model.polarity != reference.model.polarity)):
                raise NetlistError(
                    f"batched DC analysis needs topology-identical circuits: "
                    f"device {device.name!r} of {circuit.title!r} does not "
                    f"match {first.title!r}")


def _batch_temperatures(temperature, batch_size: int) -> np.ndarray:
    """A scalar or length-``batch_size`` temperature as a ``(B,)`` array."""
    temperatures = np.asarray(temperature, dtype=float)
    if temperatures.ndim == 0:
        return np.full(batch_size, float(temperatures))
    if temperatures.shape != (batch_size,):
        raise ValueError(f"temperature must be a scalar or have shape "
                         f"({batch_size},), got {temperatures.shape}")
    return temperatures


class _ColumnAssembler:
    """What the vectorised DC and transient assemblers share.

    The batch is transposed into per-device sibling columns whose
    :meth:`~repro.spice.devices.base.Device.batch_context` is computed once
    over the *full* batch; arbitrary active sub-batches stamp by slicing
    those contexts row-wise, so convergence masking never re-derives model
    constants.  The occupancy counters track active rows per assembled
    iteration over the full batch, and one :class:`BatchStamper` is reused
    until the active batch size changes.

    Every MOSFET of the netlist is evaluated in one
    :func:`~repro.spice.devices.mosfet.large_signal_batch` call per
    assembly (:meth:`_evaluate_mosfets`); the stamp loop then runs device by
    device in netlist order, so per-cell accumulation order -- and every
    bit -- matches the serial device loop.
    """

    def __init__(self, circuits: list[Circuit], temperatures: np.ndarray):
        first = circuits[0]
        self.n_nodes = first.n_nodes
        self.n_branches = first.n_branches
        self.size = self.n_nodes + self.n_branches
        self.temperatures = temperatures
        self.total_designs = len(circuits)
        self.assemblies = 0
        self.active_rows = 0
        self.columns = [tuple(circuit.devices[position] for circuit in circuits)
                        for position in range(len(first.devices))]
        self.contexts = [column[0].batch_context(list(column), temperatures)
                         for column in self.columns]
        self.mosfet_positions = [position for position, column
                                 in enumerate(self.columns)
                                 if isinstance(column[0], Mosfet)]
        if self.mosfet_positions:
            self.mosfet_layout = batch_layout(
                [self.columns[position][0]
                 for position in self.mosfet_positions])
            self.mosfet_params = {
                key: np.stack([self.contexts[position][key]
                               for position in self.mosfet_positions])
                for key in ("vth", "beta", "lam")}
        self._gather_cache: dict[bytes, tuple] = {}
        self._stamper: BatchStamper | None = None

    @property
    def occupancy(self) -> float:
        """Mean fraction of the batch active per assembled iteration."""
        if not self.assemblies:
            return float("nan")
        return self.active_rows / (self.assemblies * self.total_designs)

    #: Gather memo bound.  Sub-batch gathers are memoized because the active
    #: set changes only as designs finish, while stamping runs every
    #: iteration; the cap only guards pathological churn.
    _GATHER_CACHE_MAX = 128

    def _gather(self, indices: np.ndarray) -> tuple:
        """Siblings, sliced contexts and temperatures of ``indices``.

        The fourth entry is the MOSFET parameter stack sliced to
        ``indices``.
        """
        key = indices.tobytes()
        cached = self._gather_cache.get(key)
        if cached is None:
            if len(self._gather_cache) >= self._GATHER_CACHE_MAX:
                self._gather_cache.clear()
            index_list = indices.tolist()
            siblings = [[column[i] for i in index_list]
                        for column in self.columns]
            contexts = [{name: values[indices]
                         for name, values in context.items()}
                        for context in self.contexts]
            mosfet_params = None
            if self.mosfet_positions:
                mosfet_params = {name: values[:, indices]
                                 for name, values in self.mosfet_params.items()}
            cached = (siblings, contexts, self.temperatures[indices],
                      mosfet_params)
            self._gather_cache[key] = cached
        return cached

    def _evaluate_mosfets(self, contexts: list, mosfet_params,
                          voltages: np.ndarray) -> None:
        """One kernel call for every MOSFET; each context gets its row."""
        if not self.mosfet_positions:
            return
        d_vd, d_vg, d_vs, equivalent = large_signal_batch(
            self.mosfet_layout, mosfet_params, voltages)
        for row, position in enumerate(self.mosfet_positions):
            contexts[position]["large_signal"] = (
                d_vd[row], d_vg[row], d_vs[row], equivalent[row])

    def _reset_stamper(self, batch_size: int) -> BatchStamper:
        """A zeroed stamper for ``batch_size`` active rows, counted."""
        self.assemblies += 1
        self.active_rows += batch_size
        stamper = self._stamper
        if stamper is None or stamper.batch_size != batch_size:
            stamper = BatchStamper(batch_size, self.n_nodes, self.n_branches)
            self._stamper = stamper
        else:
            stamper.reset()
        return stamper


class _BatchAssembler(_ColumnAssembler):
    """Assembles the batched DC system for any active subset of designs."""

    def assemble(self, indices: np.ndarray, voltages: np.ndarray, gmin: float):
        """Stamp the active sub-batch ``indices`` at trial ``voltages``."""
        stamper = self._reset_stamper(len(indices))
        siblings, contexts, temperatures, mosfet_params = self._gather(
            indices)
        # One errstate frame for the whole stamp loop: device models produce
        # benign overflows/invalids on NaN trial voltages, and entering a
        # context manager per device per iteration is measurable overhead.
        with np.errstate(over="ignore", invalid="ignore"):
            self._evaluate_mosfets(contexts, mosfet_params, voltages)
            for position, column in enumerate(self.columns):
                column[0].stamp_dc_batch(stamper, siblings[position],
                                         voltages, temperatures,
                                         contexts[position])
        if gmin > 0.0:
            stamper.add_gmin(gmin)
        return stamper


class _ScalarAssembler:
    """Assembles a batch of one through the scalar ``stamp_dc`` contract.

    At B=1 the vectorised contract costs more than it saves, so the one
    circuit stamps device by device into a design view of a ``(1, size,
    size)`` :class:`BatchStamper`; the controller then solves that stamper
    exactly as it solves a vectorised batch.
    """

    def __init__(self, circuit: Circuit, temperature):
        self.circuit = circuit
        self.temperature = temperature
        self.size = circuit.n_nodes + circuit.n_branches
        self.stamper = BatchStamper(1, circuit.n_nodes, circuit.n_branches)
        self.view = self.stamper.design_view(0)
        self.assemblies = 0

    @property
    def occupancy(self) -> float:
        return 1.0 if self.assemblies else float("nan")

    def assemble(self, indices: np.ndarray, voltages: np.ndarray, gmin: float):
        self.assemblies += 1
        self.circuit.stamp_dc(voltages[0], self.temperature, gmin=gmin,
                              stamper=self.view)
        return self.stamper


def _solve_rows_individually(stamper, size: int,
                             errors: list | None = None) -> np.ndarray:
    """Per-design solve fallback once the stacked solve hits a singular design.

    Per design: direct solve, then least-squares, then give up -- a NaN row,
    which the controller's finite check turns into a bail-out.  When
    ``errors`` is given (aligned with the designs), a least-squares failure
    is also recorded there.
    """
    out = np.empty((stamper.batch_size, size))
    for b in range(stamper.batch_size):
        try:
            out[b] = stamper.solve_design(b)
        except np.linalg.LinAlgError:
            try:
                out[b] = stamper.solve_lstsq_design(b)
            except np.linalg.LinAlgError as exc:
                if errors is not None:
                    errors[b] = exc
                out[b] = np.nan
    return out


def _newton_solve_batch(assembler, voltages: np.ndarray,
                        indices: np.ndarray, gmin: float, max_iterations: int,
                        tolerance: float, damping: float,
                        collect_residuals: bool = False,
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray, list | None]:
    """Damped Newton on the designs ``indices`` at a fixed gmin level.

    Updates the full-batch ``voltages`` rows in place and returns
    ``(converged, iterations, residual, clamps, trajectories)`` arrays
    aligned with ``indices``.  In-flight designs iterate on compact arrays,
    and a design's row is written back only when it stops: after applying
    the final damped step on convergence, *before* applying anything on a
    non-finite solution, or as it stands when the iteration budget runs
    out.  A design's iterates therefore never depend on which other designs
    share the batch, and warm starts for the next ladder step are
    bit-identical at any batch size.

    ``residual`` holds each design's last finite-iteration ``max|delta|``
    (NaN when a design bailed before its first update); ``clamps`` counts
    the voltage steps the damping limiter clipped.  Both feed failure
    messages, which are therefore string-identical at any batch size.
    """
    count = len(indices)
    converged = np.zeros(count, dtype=bool)
    iterations = np.full(count, max_iterations)
    residual = np.full(count, np.nan)
    clamps = np.zeros(count, dtype=int)
    trajectories: list | None = (
        [[] for _ in range(count)] if collect_residuals else None)
    # The in-flight designs: positions into ``indices``, design rows,
    # iterates, running residuals and per-entry clamp counts.
    alive = np.arange(count)
    active = indices
    current = voltages[indices]
    alive_residual = residual.copy()
    alive_clamps = np.zeros(current.shape, dtype=int)
    for iteration in range(1, max_iterations + 1):
        stamper = assembler.assemble(active, current, gmin)
        try:
            new_voltages = stamper.solve()
        except np.linalg.LinAlgError:
            new_voltages = _solve_rows_individually(stamper, assembler.size)
        finite = np.isfinite(new_voltages).all(axis=1)
        delta = new_voltages - current
        abs_delta = np.abs(delta)
        row_residual = abs_delta.max(axis=1)
        clamped = abs_delta > damping
        # np.clip's semantics in two bare ufunc calls (NaN propagates).
        stepped = current + np.minimum(np.maximum(delta, -damping), damping)
        if trajectories is not None:
            for position, value in zip(alive[finite], row_residual[finite]):
                trajectories[position].append(float(value))
        # NaN residuals compare False, so only finite rows converge.
        below = row_residual < tolerance
        if finite.all() and not below.any():
            alive_residual = row_residual
            alive_clamps += clamped
            current = stepped
            continue
        # A bail-out computes no delta, so only finite rows refresh the
        # reported residual and clamp count.
        alive_residual = np.where(finite, row_residual, alive_residual)
        alive_clamps += clamped & finite[:, None]
        stop = below | ~finite
        done = alive[stop]
        ok = finite[stop]
        voltages[active[stop]] = np.where(ok[:, None], stepped[stop],
                                          current[stop])
        converged[done] = ok
        iterations[done] = iteration
        residual[done] = alive_residual[stop]
        clamps[done] = alive_clamps[stop].sum(axis=1)
        keep = ~stop
        alive = alive[keep]
        if alive.size == 0:
            return converged, iterations, residual, clamps, trajectories
        active = active[keep]
        current = stepped[keep]
        alive_residual = alive_residual[keep]
        alive_clamps = alive_clamps[keep]
    voltages[active] = current
    residual[alive] = alive_residual
    clamps[alive] = alive_clamps.sum(axis=1)
    return converged, iterations, residual, clamps, trajectories


def _gmin_ladder_batch(assembler, voltages: np.ndarray,
                       indices: np.ndarray, gmin_steps: tuple[float, ...],
                       max_iterations: int, tolerance: float, damping: float,
                       max_failed_steps: int | None = None,
                       collect_residuals: bool = False,
                       ) -> tuple[np.ndarray, np.ndarray, dict]:
    """Run Newton down a gmin ladder for the designs ``indices``.

    Every design runs *every* ladder step (warm-started from its previous
    step) regardless of earlier convergence, ``converged`` reports the final
    step's outcome, and ``max_failed_steps`` retires designs whose failure
    count exceeds it (``None`` never retires).  The ``info`` dict carries
    per-design solve statistics aligned with ``indices``: iterations per
    gmin step, the last step's residual and gmin (what a failure message
    reports), total damping clamps and -- only when ``collect_residuals``
    -- the last step's residual trajectory.
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
        # The *last step a design ran* provides its reported residual and
        # gmin level.
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


def _solve_dc(assembler, start: np.ndarray, gmin_steps: tuple[float, ...],
              max_iterations: int, tolerance: float, damping: float,
              rescue: bool) -> tuple:
    """The DC controller: the gmin ladder, then the rescue ladder on failures.

    Returns ``(voltages, converged, iterations, rescued, info)`` with one row
    or entry per design of ``start``; ``rescued`` marks the designs that
    entered the rescue ladder.
    """
    batch_size = start.shape[0]
    indices = np.arange(batch_size)
    voltages = start.copy()
    collect = telemetry.enabled()
    rescued = np.zeros(batch_size, dtype=bool)
    converged, total_iterations, info = _gmin_ladder_batch(
        assembler, voltages, indices, gmin_steps, max_iterations, tolerance,
        damping, collect_residuals=collect)
    if rescue and not converged.all():
        failed = indices[~converged]
        rescued[failed] = True
        # The rescue ladder restarts the failed designs from the original
        # start, on a scratch copy: a failed rescue leaves the standard
        # ladder's best solution in place.
        rescue_voltages = voltages.copy()
        rescue_voltages[failed] = start[failed]
        rescue_converged, used, rescue_info = _gmin_ladder_batch(
            assembler, rescue_voltages, failed, _RESCUE_GMIN_STEPS,
            _RESCUE_MAX_ITERATIONS, tolerance, _RESCUE_DAMPING,
            max_failed_steps=_RESCUE_MAX_FAILED_STEPS,
            collect_residuals=collect)
        total_iterations[failed] += used
        # The rescue ladder ran last for these designs, so it provides
        # their reported residual/gmin.
        info["residual"][failed] = rescue_info["residual"]
        info["gmin"][failed] = rescue_info["gmin"]
        info["clamps"][failed] += rescue_info["clamps"]
        for offset, b in enumerate(failed):
            info["iterations_per_gmin"][b].extend(
                rescue_info["iterations_per_gmin"][offset])
            if collect:
                info["trajectories"][b] = rescue_info["trajectories"][offset]
        recovered = failed[rescue_converged]
        voltages[recovered] = rescue_voltages[recovered]
        converged[recovered] = True
    return voltages, converged, total_iterations, rescued, info


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
    assembles one ``(B, size, size)`` tensor (every device's
    ``stamp_dc_batch`` fills all designs per stamp) and one stacked solve
    advances every still-active design.  Converged designs freeze while
    stragglers iterate, and the rescue ladder runs only on the failed
    sub-batch, so the work tracks the hardest design rather than the batch
    size.  A batch of
    one stamps through the scalar device contract instead.

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
    temperatures = _batch_temperatures(temperature, batch_size)
    if initial_guess is None:
        start = np.zeros((batch_size, size))
    else:
        start = np.asarray(initial_guess, dtype=float).copy()
        if start.shape != (batch_size, size):
            raise ValueError(f"initial_guess must have shape "
                             f"({batch_size}, {size}), got {start.shape}")

    assembler = (_ScalarAssembler(first, float(temperatures[0]))
                 if batch_size == 1
                 else _BatchAssembler(circuits, temperatures))
    with telemetry.span("spice.dc_batch", batch=batch_size,
                        circuit=first.title):
        voltages, converged, iterations, rescued, info = _solve_dc(
            assembler, start, tuple(gmin_steps), max_iterations, tolerance,
            damping, rescue)

    occupancy = assembler.occupancy
    per_design_stats = [
        _dc_stats(b, converged, iterations, rescued, info,
                  batch_size=batch_size, batch_occupancy=occupancy)
        for b in range(batch_size)]
    for stats in per_design_stats:
        telemetry.record_solve(stats)
    if occupancy == occupancy:  # skip the no-assembly NaN
        telemetry.observe("repro_batch_occupancy", occupancy,
                          telemetry.FRACTION_BUCKETS)

    if raise_on_failure and not converged.all():
        failures = np.nonzero(~converged)[0]
        titles = [circuits[i].title for i in failures]
        raise ConvergenceError(
            f"batched DC analysis: {len(titles)} of {batch_size} designs did "
            f"not converge (first failure: {titles[0]!r} "
            f"{per_design_stats[failures[0]].failure_detail()})")

    return [_operating_point(circuit, voltages[b], float(temperatures[b]),
                             per_design_stats[b])
            for b, circuit in enumerate(circuits)]
