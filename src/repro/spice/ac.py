"""AC small-signal analysis and transfer-function measurements."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spice.dc import OperatingPoint
from repro.spice.netlist import Circuit


@dataclass
class ACResult:
    """Frequency response of one (or more) observed nodes.

    Attributes
    ----------
    frequencies:
        Analysis frequencies in hertz.
    node_voltages:
        Mapping node name -> complex response array (same length as
        ``frequencies``).
    """

    frequencies: np.ndarray
    node_voltages: dict[str, np.ndarray]

    # ------------------------------------------------------------------ #
    # accessors                                                           #
    # ------------------------------------------------------------------ #
    def response(self, node: str) -> np.ndarray:
        return self.node_voltages[node]

    def magnitude_db(self, node: str) -> np.ndarray:
        return 20.0 * np.log10(np.maximum(np.abs(self.response(node)), 1e-30))

    def phase_degrees(self, node: str, unwrap: bool = True) -> np.ndarray:
        phase = np.angle(self.response(node))
        if unwrap:
            phase = np.unwrap(phase)
        return np.degrees(phase)

    # ------------------------------------------------------------------ #
    # measurements                                                        #
    # ------------------------------------------------------------------ #
    def dc_gain_db(self, node: str) -> float:
        """Gain at the lowest analysed frequency."""
        return float(self.magnitude_db(node)[0])

    def unity_gain_frequency(self, node: str) -> float:
        """First frequency where the magnitude crosses 0 dB (GBW proxy).

        The two no-crossing cases resolve differently:

        * starting *at or below* 0 dB returns 0 -- the amplifier is
          essentially dead, so a GBW constraint should fail outright;
        * staying *above* 0 dB through the whole sweep clamps to the last
          analysed frequency -- the true crossing lies beyond the sweep, so
          the clamp is a conservative lower bound on the real GBW.
        """
        magnitude = self.magnitude_db(node)
        if magnitude[0] <= 0.0:
            return 0.0
        below = np.nonzero(magnitude <= 0.0)[0]
        if below.size == 0:
            return float(self.frequencies[-1])
        index = below[0]
        # Log-linear interpolation between the straddling points.
        f_low, f_high = self.frequencies[index - 1], self.frequencies[index]
        m_low, m_high = magnitude[index - 1], magnitude[index]
        if m_low == m_high:
            return float(f_high)
        fraction = m_low / (m_low - m_high)
        return float(np.exp(np.log(f_low) + fraction * (np.log(f_high) - np.log(f_low))))

    def phase_margin_degrees(self, node: str) -> float:
        """Phase margin at the unity-gain frequency (0 when there is no crossing)."""
        unity = self.unity_gain_frequency(node)
        if unity <= 0.0:
            return 0.0
        phase = self.phase_degrees(node)
        # Normalise so the low-frequency phase reference is 0 (or 180 for
        # inverting responses) before measuring distance to -180 degrees.
        reference = phase[0]
        relative = phase - reference
        interpolated = np.interp(np.log(unity), np.log(self.frequencies), relative)
        margin = 180.0 + interpolated
        return float(np.clip(margin, -180.0, 360.0))

    def gain_margin_db(self, node: str) -> float:
        """Gain margin of a loop-gain response: ``-|T|`` dB at -180 degrees.

        The phase is referenced to its low-frequency value (like
        :meth:`phase_margin_degrees`) and the first crossing of -180 degrees
        is located by log-frequency interpolation.  A response whose phase
        never reaches -180 within the sweep reports the margin at the last
        analysed frequency -- a conservative lower bound, mirroring
        :meth:`unity_gain_frequency`'s clamp.
        """
        phase = self.phase_degrees(node)
        relative = phase - phase[0]
        below = np.nonzero(relative <= -180.0)[0]
        magnitude = self.magnitude_db(node)
        if below.size == 0:
            return float(-magnitude[-1])
        index = below[0]
        if index == 0:
            return float(-magnitude[0])
        p_low, p_high = relative[index - 1], relative[index]
        fraction = (p_low + 180.0) / (p_low - p_high)
        log_f = (np.log(self.frequencies[index - 1])
                 + fraction * (np.log(self.frequencies[index])
                               - np.log(self.frequencies[index - 1])))
        crossing = float(np.exp(log_f))
        return float(-self.gain_at(node, crossing))

    def gain_at(self, node: str, frequency: float) -> float:
        """Interpolated magnitude (dB) at an arbitrary frequency."""
        magnitude = self.magnitude_db(node)
        return float(np.interp(np.log(frequency), np.log(self.frequencies), magnitude))

    def bandwidth_3db(self, node: str) -> float:
        """-3 dB bandwidth relative to the low-frequency gain."""
        magnitude = self.magnitude_db(node)
        target = magnitude[0] - 3.0
        below = np.nonzero(magnitude <= target)[0]
        if below.size == 0:
            return float(self.frequencies[-1])
        index = below[0]
        if index == 0:
            return float(self.frequencies[0])
        f_low, f_high = self.frequencies[index - 1], self.frequencies[index]
        m_low, m_high = magnitude[index - 1], magnitude[index]
        fraction = (m_low - target) / (m_low - m_high)
        return float(np.exp(np.log(f_low) + fraction * (np.log(f_high) - np.log(f_low))))


def logspace_frequencies(start: float = 1.0, stop: float = 1e9,
                         points_per_decade: int = 20) -> np.ndarray:
    """Logarithmically spaced analysis frequencies."""
    decades = np.log10(stop) - np.log10(start)
    count = max(int(decades * points_per_decade) + 1, 2)
    return np.logspace(np.log10(start), np.log10(stop), count)


#: Tiny conductance to ground keeping otherwise-floating nodes solvable.
_AC_GMIN = 1e-15


def ac_analysis(circuit: Circuit, operating_point: OperatingPoint,
                frequencies: np.ndarray | None = None,
                observe: list[str] | None = None) -> ACResult:
    """Complex small-signal sweep of ``circuit`` around ``operating_point``.

    Parameters
    ----------
    frequencies:
        Frequencies in hertz; defaults to 1 Hz .. 1 GHz, 20 points/decade.
    observe:
        Node names to record; defaults to every non-ground node.

    Notes
    -----
    Every built-in device stamp is affine in the angular frequency,
    ``A(omega) = G + omega * S`` with ``S = 1j * C``, and the excitation
    vector is frequency-independent.  The system is therefore assembled
    exactly twice (at ``omega = 0`` and ``omega = 1``) and all frequency
    points are solved as one stacked ``(F, N, N)`` :func:`numpy.linalg.solve`
    call, which removes the Python stamping loop and lets LAPACK batch the
    factorizations.  A circuit with a device that declares non-affine
    stamps, fails the affinity probe, or is singular at some frequency is
    swept one frequency at a time instead (least squares on singular
    points).
    """
    if frequencies is None:
        frequencies = logspace_frequencies()
    frequencies = np.asarray(frequencies, dtype=float)
    circuit.ensure_indices()
    observed = list(observe) if observe is not None else circuit.nodes

    if all(device.ac_affine for device in circuit.devices):
        try:
            return _ac_analysis_vectorized(circuit, operating_point,
                                           frequencies, observed)
        except np.linalg.LinAlgError:
            # One or more frequency points are singular (or the stamps are
            # not affine after all); the per-frequency loop below handles
            # those individually.
            pass
    return _ac_analysis_per_frequency(circuit, operating_point,
                                      frequencies, observed)


def _affine_systems(circuit: Circuit, operating_point: OperatingPoint,
                    frequencies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(F, N, N)`` AC systems from two stamps, plus the excitation.

    Raises :class:`numpy.linalg.LinAlgError` when the excitation depends on
    frequency or the stamps fail the affinity probe.
    """
    base = circuit.stamp_ac(0.0, operating_point)
    unit = circuit.stamp_ac(1.0, operating_point)
    if not np.array_equal(base.rhs, unit.rhs):
        raise np.linalg.LinAlgError("AC excitation is frequency-dependent")
    # A(omega) = G + omega * S  with  G = A(0)  and  S = A(1) - A(0).
    slope = unit.matrix - base.matrix
    # Affinity is declared by devices but verified here against a third
    # sample: a device whose stamps are secretly non-affine in omega (despite
    # ac_affine=True) must not silently get extrapolated wrong answers.
    # omega=2 is a power of two, so for truly affine stamps the comparison is
    # exact up to accumulation noise.
    probe = circuit.stamp_ac(2.0, operating_point)
    expected = base.matrix + 2.0 * slope
    if not (np.allclose(probe.matrix, expected, rtol=1e-8, atol=1e-30)
            and np.array_equal(probe.rhs, base.rhs)):
        raise np.linalg.LinAlgError("AC stamps are not affine in omega")
    omegas = 2.0 * np.pi * frequencies
    systems = base.matrix[None, :, :] + omegas[:, None, None] * slope[None, :, :]
    diagonal = np.arange(circuit.n_nodes)
    systems[:, diagonal, diagonal] += _AC_GMIN
    return systems, base.rhs


def _ac_analysis_vectorized(circuit: Circuit, operating_point: OperatingPoint,
                            frequencies: np.ndarray,
                            observed: list[str]) -> ACResult:
    """Solve all frequency points with one stacked ``numpy.linalg.solve``."""
    systems, rhs = _affine_systems(circuit, operating_point, frequencies)
    # Shape the right-hand side as a (1, N, 1) matrix stack so the solve
    # broadcasts unambiguously across the frequency axis.
    solutions = np.linalg.solve(systems, rhs[None, :, None])[..., 0]
    responses: dict[str, np.ndarray] = {}
    for node in observed:
        index = circuit.node_index(node)
        if index < 0:
            responses[node] = np.zeros(frequencies.shape[0], dtype=complex)
        else:
            responses[node] = solutions[:, index].copy()
    return ACResult(frequencies=frequencies, node_voltages=responses)


def ac_analysis_batch(circuits, operating_points,
                      frequencies: np.ndarray | None = None,
                      observe: list[str] | None = None) -> list[ACResult]:
    """AC sweeps of ``B`` circuits: :func:`ac_analysis` per design.

    The stacked ``(F, N, N)`` solve inside :func:`ac_analysis` already
    vectorises each sweep; stacking designs on top of it was measured no
    faster, so the batch entry point is a plain loop.
    """
    circuits = list(circuits)
    operating_points = list(operating_points)
    if len(circuits) != len(operating_points):
        raise ValueError("need one operating point per circuit")
    return [ac_analysis(circuit, op, frequencies, observe)
            for circuit, op in zip(circuits, operating_points)]


def _ac_analysis_per_frequency(circuit: Circuit, operating_point: OperatingPoint,
                               frequencies: np.ndarray,
                               observed: list[str]) -> ACResult:
    """Assemble and solve one system per frequency.

    The fallback for circuits the stacked solve cannot take: non-affine
    stamps or singular frequency points (solved by least squares).
    """
    responses = {node: np.empty(frequencies.shape[0], dtype=complex) for node in observed}
    for index, frequency in enumerate(frequencies):
        omega = 2.0 * np.pi * frequency
        stamper = circuit.stamp_ac(omega, operating_point)
        stamper.add_gmin(_AC_GMIN)
        try:
            solution = stamper.solve()
        except np.linalg.LinAlgError:
            solution = stamper.solve_lstsq()
        for node in observed:
            responses[node][index] = circuit.node_voltage(solution, node)
    return ACResult(frequencies=frequencies, node_voltages=responses)
