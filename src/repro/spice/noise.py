"""Small-signal noise analysis via one adjoint MNA solve per frequency.

Every device contributes independent noise current generators through the
:meth:`~repro.spice.devices.base.Device.noise_sources` contract (resistor
thermal ``4kT/R``, MOSFET channel thermal ``4kT*gamma*gm`` plus flicker
``KF*Ids^AF/(Cox*W*L*f)``, diode shot ``2q*Id``).  The naive way to sweep
them solves the linearised AC system once *per source*; the adjoint method
inverts the bookkeeping.  With ``A(omega) x = b`` the output voltage is
``v_out = e_out^T x``, so solving the single transposed system

    ``A(omega)^T y = e_out``

gives the transfer of *every* current injection at once: a unit current
between nodes ``a`` and ``b`` produces ``v_out = y[a] - y[b]``.  One solve
per frequency covers any number of noise sources -- and, as a free
by-product, the forward gain of the testbench's own AC excitation
(``gain = y . b``), which is what input-referred densities divide by.

Like :func:`repro.spice.ac.ac_analysis`, the sweep exploits the affine form
``A(omega) = G + omega * S`` of every built-in device stamp: the system is
assembled exactly twice (plus one affinity probe) and all frequency points
are solved as a single stacked ``(F, N, N)`` transposed
:func:`numpy.linalg.solve`.  A per-frequency loop takes over for non-affine
stamps and singular points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.spice.ac import _AC_GMIN, _affine_systems, logspace_frequencies
from repro.spice.dc import OperatingPoint
from repro.spice.devices.base import NoiseSource
from repro.spice.netlist import Circuit

# numpy >= 2 renames trapz; accept both without a dependency bump.
_trapezoid = getattr(np, "trapezoid", None) or np.trapz

#: Floor on |gain|^2 when referring output noise to the input, so a dead
#: forward path yields a huge-but-finite input-referred density instead of
#: divide-by-zero warnings.
_GAIN_SQ_FLOOR = 1e-60


@dataclass
class NoiseResult:
    """Noise spectra of one observed output node.

    Attributes
    ----------
    frequencies:
        Analysis frequencies in hertz.
    output:
        Observed output node name.
    output_psd:
        Total output voltage noise PSD (V^2/Hz), one value per frequency.
    gain:
        Complex forward transfer of the circuit's declared AC excitation to
        the output (``None`` when the circuit carries no AC excitation).
    input_psd:
        Input-referred PSD ``output_psd / |gain|^2`` (``None`` without an
        excitation to refer to).
    contributions:
        Per-device output PSD (V^2/Hz): each device's sources summed.
    source_transfers:
        Complex source-to-output transimpedance (V/A) per individual source,
        keyed ``"device:label"`` -- the adjoint solutions, exposed for
        direct-method cross-checks.
    source_psds:
        Output PSD (V^2/Hz) per individual source, same keys.
    """

    frequencies: np.ndarray
    output: str
    output_psd: np.ndarray
    gain: np.ndarray | None = None
    input_psd: np.ndarray | None = None
    contributions: dict[str, np.ndarray] = field(default_factory=dict)
    source_transfers: dict[str, np.ndarray] = field(default_factory=dict)
    source_psds: dict[str, np.ndarray] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # spectral densities                                                  #
    # ------------------------------------------------------------------ #
    def output_density(self, frequency: float) -> float:
        """Output noise density (V/sqrt(Hz)) interpolated at ``frequency``."""
        return float(np.interp(np.log(frequency), np.log(self.frequencies),
                               np.sqrt(self.output_psd)))

    def input_density(self, frequency: float) -> float:
        """Input-referred noise density (V/sqrt(Hz)) at ``frequency``."""
        if self.input_psd is None:
            raise ValueError(
                f"no AC excitation drives output {self.output!r}: "
                "input-referred noise is undefined")
        return float(np.interp(np.log(frequency), np.log(self.frequencies),
                               np.sqrt(self.input_psd)))

    # ------------------------------------------------------------------ #
    # integrated noise                                                    #
    # ------------------------------------------------------------------ #
    def _integrate(self, psd: np.ndarray, f_low: float | None,
                   f_high: float | None) -> float:
        mask = np.ones(self.frequencies.shape, dtype=bool)
        if f_low is not None:
            mask &= self.frequencies >= f_low
        if f_high is not None:
            mask &= self.frequencies <= f_high
        if mask.sum() < 2:
            raise ValueError(
                f"integration band [{f_low}, {f_high}] covers fewer than two "
                "analysis frequencies")
        return float(np.sqrt(_trapezoid(psd[mask], self.frequencies[mask])))

    def integrated_output_noise(self, f_low: float | None = None,
                                f_high: float | None = None) -> float:
        """Total rms output noise (V) over the analysed (or given) band."""
        return self._integrate(self.output_psd, f_low, f_high)

    def integrated_input_noise(self, f_low: float | None = None,
                               f_high: float | None = None) -> float:
        """Total rms input-referred noise (V) over the band."""
        if self.input_psd is None:
            raise ValueError(
                f"no AC excitation drives output {self.output!r}: "
                "input-referred noise is undefined")
        return self._integrate(self.input_psd, f_low, f_high)

    def contribution_fractions(self) -> dict[str, float]:
        """Each device's share of the integrated output noise power."""
        total = float(_trapezoid(self.output_psd, self.frequencies))
        if total <= 0.0:
            return {name: 0.0 for name in self.contributions}
        return {name: float(_trapezoid(psd, self.frequencies)) / total
                for name, psd in self.contributions.items()}


def _gather_sources(circuit: Circuit,
                    operating_point: OperatingPoint) -> list[NoiseSource]:
    sources: list[NoiseSource] = []
    for device in circuit.devices:
        sources.extend(device.noise_sources(operating_point))
    return sources


def noise_analysis(circuit: Circuit, operating_point: OperatingPoint,
                   frequencies: np.ndarray | None = None,
                   output: str = "out") -> NoiseResult:
    """Output (and input-referred) noise spectrum of ``circuit`` at a bias.

    The stacked adjoint solve runs whenever every device declares affine AC
    stamps; the per-frequency loop takes over otherwise and on singular
    points.

    Parameters
    ----------
    frequencies:
        Frequencies in hertz, strictly positive (flicker noise diverges at
        DC); defaults to 1 Hz .. 1 GHz, 20 points/decade.
    output:
        Observed output node (must not be ground).
    """
    if frequencies is None:
        frequencies = logspace_frequencies()
    frequencies = np.asarray(frequencies, dtype=float)
    if frequencies.size == 0 or np.any(frequencies <= 0.0):
        raise ValueError("noise analysis frequencies must be positive")
    circuit.ensure_indices()
    out_index = circuit.node_index(output)
    if out_index < 0:
        raise ValueError(f"cannot observe noise at ground node {output!r}")
    sources = _gather_sources(circuit, operating_point)

    affine = all(device.ac_affine for device in circuit.devices)
    with telemetry.span("spice.noise", circuit=circuit.title,
                        frequencies=int(frequencies.size)):
        if affine:
            try:
                adjoints, rhs = _adjoint_vectorized(circuit, operating_point,
                                                    frequencies, out_index)
            except np.linalg.LinAlgError:
                adjoints, rhs = _adjoint_per_frequency(
                    circuit, operating_point, frequencies, out_index)
        else:
            adjoints, rhs = _adjoint_per_frequency(circuit, operating_point,
                                                   frequencies, out_index)
    telemetry.inc("repro_noise_analyses_total")
    telemetry.observe("repro_noise_sources", len(sources))
    return _assemble_result(frequencies, output, sources, adjoints, rhs)


def _adjoint_vectorized(circuit: Circuit, operating_point: OperatingPoint,
                        frequencies: np.ndarray, out_index: int,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """All adjoint solutions as one stacked transposed solve.

    Returns the ``(F, size)`` adjoint matrix ``y`` (rows solve
    ``A(omega)^T y = e_out``) and the frequency-independent excitation
    vector ``b`` of the forward system.
    """
    systems, rhs = _affine_systems(circuit, operating_point, frequencies)
    selector = np.zeros((systems.shape[1], 1), dtype=complex)
    selector[out_index, 0] = 1.0
    # swapaxes makes a view: one stacked LAPACK call on A^T per frequency.
    adjoints = np.linalg.solve(systems.swapaxes(1, 2),
                               selector[None, :, :])[..., 0]
    return adjoints, rhs


def _adjoint_per_frequency(circuit: Circuit, operating_point: OperatingPoint,
                           frequencies: np.ndarray, out_index: int,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Assemble and solve one transposed system per frequency.

    The fallback for circuits the stacked solve cannot take: non-affine
    stamps or singular frequency points (solved by least squares).
    """
    size = None
    adjoints = None
    rhs = None
    diagonal = np.arange(circuit.n_nodes)
    for index, frequency in enumerate(frequencies):
        omega = 2.0 * np.pi * frequency
        stamper = circuit.stamp_ac(omega, operating_point)
        matrix = stamper.matrix
        matrix[diagonal, diagonal] += _AC_GMIN
        if adjoints is None:
            size = matrix.shape[0]
            adjoints = np.empty((frequencies.shape[0], size), dtype=complex)
            rhs = stamper.rhs.copy()
        selector = np.zeros(size, dtype=complex)
        selector[out_index] = 1.0
        try:
            adjoints[index] = np.linalg.solve(matrix.T, selector)
        except np.linalg.LinAlgError:
            adjoints[index] = np.linalg.lstsq(matrix.T, selector,
                                              rcond=None)[0]
    return adjoints, rhs


def _assemble_result(frequencies: np.ndarray, output: str,
                     sources: list[NoiseSource], adjoints: np.ndarray,
                     rhs: np.ndarray) -> NoiseResult:
    """Fold per-source PSDs through the adjoint transfers into spectra."""
    output_psd = np.zeros(frequencies.shape[0])
    contributions: dict[str, np.ndarray] = {}
    source_transfers: dict[str, np.ndarray] = {}
    source_psds: dict[str, np.ndarray] = {}
    for source in sources:
        v_a = adjoints[:, source.node_a] if source.node_a >= 0 else 0.0
        v_b = adjoints[:, source.node_b] if source.node_b >= 0 else 0.0
        transfer = v_a - v_b
        psd = np.abs(transfer)**2 * source.psd(frequencies)
        key = f"{source.device}:{source.label}"
        source_transfers[key] = np.asarray(transfer, dtype=complex)
        source_psds[key] = psd
        output_psd += psd
        if source.device in contributions:
            contributions[source.device] = contributions[source.device] + psd
        else:
            contributions[source.device] = psd

    gain = None
    input_psd = None
    if np.any(rhs != 0.0):
        # e_out^T A^-1 b == y . b: the forward gain of the circuit's own AC
        # excitation falls out of the adjoint solve with no extra work.
        gain = adjoints @ rhs
        input_psd = output_psd / np.maximum(np.abs(gain)**2, _GAIN_SQ_FLOOR)
    return NoiseResult(frequencies=frequencies, output=output,
                       output_psd=output_psd, gain=gain, input_psd=input_psd,
                       contributions=contributions,
                       source_transfers=source_transfers,
                       source_psds=source_psds)
