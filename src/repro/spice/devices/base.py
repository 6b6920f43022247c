"""Device base classes and the stamping interface.

Every device knows how to *stamp* its contribution into the MNA system:

* :meth:`Device.stamp_dc` -- real-valued Jacobian/right-hand-side stamps at a
  given trial node-voltage vector (linear devices ignore the voltages);
* :meth:`Device.stamp_ac` -- complex-valued small-signal stamps at angular
  frequency ``omega``, linearised around a previously computed DC operating
  point;
* :meth:`Device.stamp_transient` -- real-valued companion-model stamps for
  one timestep of transient analysis (see below).

Node indices are resolved by :class:`repro.spice.netlist.Circuit` before any
analysis runs; index ``-1`` denotes the ground node and is skipped by the
stamping helpers in :mod:`repro.spice.mna`.

Noise contract
--------------
:meth:`Device.noise_sources` returns the device's small-signal noise
generators at a given DC operating point as a list of :class:`NoiseSource`
records -- each an independent current source between two resolved node
indices with a white plus ``1/f``-shaped power spectral density.  The
default returns no sources (ideal independent sources, controlled sources
and reactive elements are noiseless); :mod:`repro.spice.noise` sweeps the
sources through one adjoint solve of the linearised AC system per
frequency to obtain every source-to-output transfer at once.

Transient contract
------------------
Transient analysis (:func:`repro.spice.transient.transient_analysis`)
discretises each reactive device into a *companion model* -- a conductance
plus an independent current source whose values depend on the timestep
``dt``, the integration method and the device's previously accepted state.
The serial solver drives three hooks:

1. :meth:`Device.init_transient` is called once after the initial DC solve
   and returns the device's mutable ``state`` dictionary of floats
   (previous voltages, currents, frozen capacitance values, ...).
   :meth:`repro.spice.netlist.Circuit.stamp_transient` additionally writes
   two reserved keys into every state before each stamp: ``state["time"]``
   (the time being solved for) and ``state["method"]`` (``"be"`` for
   backward Euler or ``"trap"`` for trapezoidal).  The reserved keys belong
   to this scalar contract only; the batched contract never sees them.
2. :meth:`Device.stamp_transient` stamps the companion model for the current
   Newton iterate.  The default implementation delegates to
   :meth:`stamp_dc`, which is exactly right for memoryless devices
   (resistors, controlled sources, the quasi-static diode).
3. :meth:`Device.commit_transient` is called once per *accepted* step with
   the converged solution so the device can roll its state forward.
   Rejected steps (local truncation error too large, Newton failure) never
   commit, so a device must keep all history in ``state`` -- not on ``self``.

Batched contract
----------------
The batched DC and transient solvers
(:func:`repro.spice.dc.dc_operating_point_batch`,
:func:`repro.spice.transient.transient_analysis_batch`) stamp all sibling
devices of a topology-identical batch at once through four hooks:

1. :meth:`Device.batch_context` precomputes per-design ``(B,)`` constants
   once per batch and returns them as a dict (the base returns ``{}``).
   The assemblers slice it row-wise as designs converge and always pass it
   to the stamp calls.
2. :meth:`Device.stamp_dc_batch` is the vectorized :meth:`stamp_dc`.
3. :meth:`Device.stamp_transient_batch` is the vectorized
   :meth:`stamp_transient`, with each design carrying its *own* time,
   timestep and integration method, since the adaptive controllers run
   independently per design.  The default is quasi-static: it delegates to
   :meth:`stamp_dc_batch`, just as :meth:`stamp_transient` delegates to
   :meth:`stamp_dc`.
4. :meth:`Device.commit_transient_batch` is the vectorized
   :meth:`commit_transient`, called once per Newton pass for every design
   whose step was accepted in that pass (default: no-op).

The batched transient state of a device is one dict of ``(B,)`` arrays:
the designs' :meth:`Device.init_transient` dicts, stacked key by key once
per batch.  It carries no reserved keys -- the integration method arrives
as the ``trap`` mask -- except that independent sources (devices with a
``value_at`` method) get a ``"value"`` array: each design's source value
at the time its current step attempt solves for, computed once when the
attempt begins (a source without a waveform keeps its dc value).

Every device class implements :meth:`stamp_dc_batch`; there is no
per-design fallback.  A stamp or commit must perform exactly the same
arithmetic in the same order as the serial hook does per design, so batched
and serial iterates stay bit-identical.
"""

from __future__ import annotations

import numpy as np


def stamp_capacitor_companion(stamper, positive: int, negative: int,
                              capacitance: float, state: dict,
                              v_key: str, i_key: str, dt: float) -> None:
    """Stamp the companion model of a linear capacitor.

    Backward Euler replaces the capacitor by ``Geq = C/dt`` in parallel with
    a current source ``-Geq * v_prev``; trapezoidal integration uses
    ``Geq = 2C/dt`` and ``-Geq * v_prev - i_prev``.  The previous branch
    voltage/current live in ``state[v_key]`` / ``state[i_key]`` and are
    rolled forward by :func:`commit_capacitor_companion`.
    """
    v_prev = state[v_key]
    if state["method"] == "trap":
        geq = 2.0 * capacitance / dt
        ieq = -geq * v_prev - state[i_key]
    else:
        geq = capacitance / dt
        ieq = -geq * v_prev
    stamper.add_conductance(positive, negative, geq)
    stamper.add_current(positive, negative, ieq)


def stamp_capacitor_companion_batch(stamper, positive: int, negative: int,
                                    capacitance: np.ndarray,
                                    v_prev: np.ndarray, i_prev: np.ndarray,
                                    dts: np.ndarray,
                                    trap: np.ndarray) -> None:
    """Vectorized :func:`stamp_capacitor_companion` over a design batch.

    ``capacitance``/``v_prev``/``i_prev``/``dts`` are ``(B,)`` arrays and
    ``trap`` is the ``(B,)`` boolean mask of designs integrating this step
    with the trapezoidal rule.  Both method lanes are evaluated elementwise
    and blended with ``np.where``, which reproduces the scalar branches bit
    for bit per design.
    """
    geq = np.where(trap, 2.0 * capacitance / dts, capacitance / dts)
    ieq = np.where(trap, -geq * v_prev - i_prev, -geq * v_prev)
    stamper.add_conductance(positive, negative, geq)
    stamper.add_current(positive, negative, ieq)


def commit_capacitor_companion(capacitance: float, state: dict,
                               v_key: str, i_key: str, dt: float,
                               v_new: float) -> None:
    """Advance a capacitor companion state to the accepted solution."""
    if state["method"] == "trap":
        i_new = 2.0 * capacitance / dt * (v_new - state[v_key]) - state[i_key]
    else:
        i_new = capacitance / dt * (v_new - state[v_key])
    state[v_key] = v_new
    state[i_key] = i_new


def commit_capacitor_companion_batch(capacitance: np.ndarray, state: dict,
                                     v_key: str, i_key: str,
                                     rows: np.ndarray, dts: np.ndarray,
                                     trap: np.ndarray, v_new) -> None:
    """Vectorized :func:`commit_capacitor_companion` over accepted designs.

    ``state`` holds the full-batch ``(B,)`` arrays and is updated in place
    at ``rows``; ``capacitance``, ``dts``, ``trap`` and ``v_new`` are
    aligned with ``rows``.  Both method lanes are evaluated and blended with
    ``np.where``, like :func:`stamp_capacitor_companion_batch`.
    """
    swing = v_new - state[v_key][rows]
    i_new = np.where(trap, 2.0 * capacitance / dts * swing - state[i_key][rows],
                     capacitance / dts * swing)
    state[v_key][rows] = v_new
    state[i_key][rows] = i_new


class NoiseSource:
    """One independent noise current generator of a device.

    The generator injects a current between the resolved MNA node indices
    ``node_a`` and ``node_b`` (``-1`` for ground) with the one-sided power
    spectral density

        ``S(f) = white + flicker / f**flicker_exponent``   [A^2/Hz]

    which covers every classical device noise mechanism: thermal and shot
    noise are frequency-flat (``flicker == 0``) and flicker noise carries
    its full bias/geometry prefactor in ``flicker`` with the canonical
    ``1/f`` slope.  Sources are statistically independent, so analyses sum
    their squared transfer-weighted PSDs.
    """

    __slots__ = ("device", "label", "node_a", "node_b", "white", "flicker",
                 "flicker_exponent")

    def __init__(self, device: str, label: str, node_a: int, node_b: int,
                 white: float, flicker: float = 0.0,
                 flicker_exponent: float = 1.0):
        if white < 0.0 or flicker < 0.0:
            raise ValueError(
                f"noise PSD coefficients of {device}:{label} must be "
                f"non-negative, got white={white}, flicker={flicker}")
        self.device = device
        self.label = label
        self.node_a = int(node_a)
        self.node_b = int(node_b)
        self.white = float(white)
        self.flicker = float(flicker)
        self.flicker_exponent = float(flicker_exponent)

    def psd(self, frequencies: np.ndarray) -> np.ndarray:
        """Evaluate the current PSD (A^2/Hz) on a frequency grid."""
        frequencies = np.asarray(frequencies, dtype=float)
        psd = np.full(frequencies.shape, self.white)
        if self.flicker:
            psd = psd + self.flicker / frequencies**self.flicker_exponent
        return psd

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"NoiseSource({self.device}:{self.label}, "
                f"white={self.white:.3e}, flicker={self.flicker:.3e})")


class Device:
    """Base class for all circuit elements."""

    #: number of extra MNA unknowns (branch currents) the device needs
    n_branches = 0

    #: whether the device's AC stamps are affine in ``omega``, i.e. every
    #: matrix entry has the form ``g + 1j * omega * c`` and the right-hand
    #: side is frequency-independent.  All built-in devices are affine, which
    #: lets :func:`repro.spice.ac.ac_analysis` assemble the system once and
    #: solve every frequency point in a single batched call.  A device whose
    #: stamps depend on ``omega`` in any other way (e.g. a lossy transmission
    #: line) must set this to ``False`` to force the per-frequency path.
    ac_affine = True

    def __init__(self, name: str, nodes: tuple[str, ...]):
        if not name:
            raise ValueError("device name must be non-empty")
        self.name = name
        self.node_names = tuple(nodes)
        self.node_indices: tuple[int, ...] = ()
        self.branch_indices: tuple[int, ...] = ()

    # -- wiring --------------------------------------------------------- #
    def bind(self, node_indices: tuple[int, ...], branch_indices: tuple[int, ...]) -> None:
        """Store resolved matrix indices (called by the circuit)."""
        self.node_indices = tuple(node_indices)
        self.branch_indices = tuple(branch_indices)

    # -- behaviour ------------------------------------------------------ #
    @property
    def is_nonlinear(self) -> bool:
        return False

    def stamp_dc(self, stamper, voltages: np.ndarray, temperature: float) -> None:
        """Stamp DC (large-signal, linearised) contributions."""
        raise NotImplementedError

    # -- batched --------------------------------------------------------- #
    def batch_context(self, siblings, temperatures: np.ndarray) -> dict:
        """Precompute per-design constants for the batched stamps.

        ``siblings[b]`` is this device's counterpart in design ``b`` of a
        topology-identical batch (``siblings[0] is self``) and
        ``temperatures`` is the matching ``(B,)`` array of simulation
        temperatures.  Returns a dict of ``(B,)`` arrays, which the batched
        DC and transient drivers slice row-wise as designs converge and
        drop out of the active sub-batch.

        Bit-identity contract: constants that the serial model derives with
        scalar math (temperature laws, geometry ratios, saturation currents)
        must be computed here by calling the *same scalar code* once per
        sibling -- general ``array ** exponent`` is not bit-identical to the
        scalar power it replaces.  Only voltage-dependent elementwise math
        belongs in the stamps.
        """
        return {}

    def stamp_dc_batch(self, stamper, siblings, voltages: np.ndarray,
                       temperatures: np.ndarray, context: dict) -> None:
        """Stamp DC contributions for a batch of sibling devices at once.

        ``stamper`` is a :class:`~repro.spice.mna.BatchStamper` accepting
        scalar or ``(B,)`` values per stamp; ``voltages`` is the
        ``(B, size)`` matrix of trial solutions and ``context`` is the
        row-sliced :meth:`batch_context`.  Implementations must accumulate
        exactly the same additions in the same order as :meth:`stamp_dc`
        does per design, so batched and serial Newton iterates stay
        bit-identical.
        """
        raise NotImplementedError

    def stamp_ac(self, stamper, omega: float, operating_point) -> None:
        """Stamp AC small-signal contributions."""
        raise NotImplementedError

    # -- noise ---------------------------------------------------------- #
    def noise_sources(self, operating_point) -> list[NoiseSource]:
        """This device's noise generators at ``operating_point``.

        Implementations read their bias quantities from
        ``operating_point.device_info[self.name]`` (the same record
        :meth:`operating_info` produced during the DC solve) and return one
        :class:`NoiseSource` per independent physical mechanism, with node
        indices taken from the device's resolved ``node_indices``.  The
        default -- ideal sources, controlled sources, capacitors and
        inductors -- is noiseless.
        """
        return []

    # -- transient ------------------------------------------------------ #
    def init_transient(self, operating_point, temperature: float) -> dict:
        """Build this device's mutable transient state from the DC solution.

        Memoryless devices need no state; the base implementation returns an
        empty dictionary.  Values must be floats: the batched solver stacks
        these dicts key by key into ``(B,)`` arrays.  The serial solver
        injects the reserved ``"time"`` and ``"method"`` keys into the dict
        it stamps; the batched solver does not.
        """
        return {}

    def stamp_transient(self, stamper, voltages: np.ndarray, state: dict,
                        dt: float, temperature: float) -> None:
        """Stamp companion-model contributions for one transient timestep.

        The default is quasi-static: memoryless devices contribute exactly
        their (linearised) DC stamps at the current Newton iterate.
        """
        self.stamp_dc(stamper, voltages, temperature)

    def commit_transient(self, voltages: np.ndarray, state: dict, dt: float,
                         temperature: float) -> None:
        """Roll ``state`` forward after a step is accepted (default: no-op)."""
        return

    def stamp_transient_batch(self, stamper, siblings, voltages: np.ndarray,
                              state: dict, times: np.ndarray, dts: np.ndarray,
                              trap: np.ndarray, temperatures: np.ndarray,
                              context: dict) -> None:
        """Stamp one transient Newton iteration for a batch of siblings.

        ``state`` is this column's batched transient state (a dict of
        ``(B,)`` arrays, see the module text) row-sliced like ``context``;
        it has no reserved ``"time"``/``"method"`` keys.  ``times``/``dts``
        are the per-design solve times and timesteps, and ``trap`` is the
        per-design trapezoidal-method mask -- designs step asynchronously,
        so none of these are shared across the batch.  Overrides must
        accumulate exactly the same additions in the same order as
        :meth:`stamp_transient` does per design.

        The default is quasi-static, like :meth:`stamp_transient`: a class
        that overrides :meth:`stamp_transient` overrides this too.
        """
        self.stamp_dc_batch(stamper, siblings, voltages, temperatures, context)

    def commit_transient_batch(self, voltages: np.ndarray, state: dict,
                               rows: np.ndarray, dts: np.ndarray,
                               trap: np.ndarray, context: dict) -> None:
        """Roll the batched ``state`` forward for the accepted designs ``rows``.

        ``voltages`` holds the accepted solutions of ``rows`` (one row
        each); ``dts`` and ``trap`` are their timesteps and trapezoidal
        mask.  ``state`` and ``context`` are the *full-batch* dicts, and
        ``state`` is updated in place at ``rows``.  Overrides must mirror
        :meth:`commit_transient` bit for bit per design; the default is a
        no-op, like :meth:`commit_transient`.
        """
        return

    def operating_info(self, voltages: np.ndarray, temperature: float) -> dict[str, float]:
        """Per-device operating-point quantities (currents, gm, region, ...)."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name}, nodes={self.node_names})"


class TwoTerminal(Device):
    """Convenience base class for two-terminal devices."""

    def __init__(self, name: str, positive: str, negative: str):
        super().__init__(name, (positive, negative))

    @property
    def positive_index(self) -> int:
        return self.node_indices[0]

    @property
    def negative_index(self) -> int:
        return self.node_indices[1]

    def voltage_across(self, voltages: np.ndarray) -> float:
        """Voltage from the positive to the negative terminal."""
        pos = 0.0 if self.positive_index < 0 else voltages[self.positive_index]
        neg = 0.0 if self.negative_index < 0 else voltages[self.negative_index]
        return float(pos - neg)

    def voltage_across_batch(self, voltages: np.ndarray):
        """Per-design terminal voltage difference for a ``(B, size)`` batch."""
        pos = 0.0 if self.positive_index < 0 else voltages[:, self.positive_index]
        neg = 0.0 if self.negative_index < 0 else voltages[:, self.negative_index]
        return pos - neg
