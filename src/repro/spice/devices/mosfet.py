"""Level-1 (square-law) MOSFET model with channel-length modulation.

The synthetic 180 nm / 40 nm technology cards in :mod:`repro.pdk` supply the
model parameters.  The model provides both the large-signal equations used by
Newton-Raphson DC analysis and the small-signal quantities (gm, gds,
capacitances) used by AC analysis and by the analytical op-amp testbenches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spice.devices.base import (
    Device,
    NoiseSource,
    commit_capacitor_companion,
    commit_capacitor_companion_batch,
    stamp_capacitor_companion,
    stamp_capacitor_companion_batch,
)

#: Boltzmann constant (J/K), exact SI value.
_K_BOLTZMANN = 1.380649e-23


@dataclass(frozen=True)
class NoiseCard:
    """Noise parameters of one MOSFET polarity.

    Lives on the :class:`MosfetModel` (and therefore on the PDK
    ``Technology`` card, whose ``fingerprint`` hashes every nested model
    field), so corner- and variation-derived cards compose with noise for
    free.

    Attributes
    ----------
    gamma:
        Channel thermal-noise excess factor: drain current PSD
        ``4*k*T*gamma*gm``.  ``2/3`` for a long-channel device in
        saturation, rising above 1 for short channels.
    kf:
        Flicker coefficient of ``KF * Ids**AF / (Cox * W * L * f)``.
    af:
        Flicker current exponent ``AF`` (1 for the classical model).
    """

    gamma: float = 2.0 / 3.0
    kf: float = 0.0
    af: float = 1.0

    def __post_init__(self) -> None:
        if self.gamma < 0.0 or self.kf < 0.0:
            raise ValueError(
                f"noise card coefficients must be non-negative, got "
                f"gamma={self.gamma}, kf={self.kf}")


#: Thermal-only default so bare models stay valid without a PDK card.
DEFAULT_NOISE = NoiseCard()


@dataclass(frozen=True)
class MosfetModel:
    """Technology parameters of one device polarity.

    Attributes
    ----------
    polarity:
        ``"nmos"`` or ``"pmos"``.
    vth0:
        Zero-bias threshold voltage magnitude (V).
    kp:
        Process transconductance ``mu * Cox`` (A/V^2).
    lambda_per_um:
        Channel-length-modulation coefficient for a 1 um device; the
        effective lambda scales as ``lambda_per_um / L_um``.
    cox:
        Gate-oxide capacitance per area (F/m^2).
    cgdo:
        Gate-drain overlap capacitance per width (F/m).
    vth_tc:
        Threshold temperature coefficient (V/K), negative for both polarities.
    mobility_temp_exponent:
        ``kp(T) = kp * (T/Tnom)^exponent`` (exponent is negative).
    noise:
        Thermal/flicker :class:`NoiseCard` of this polarity.
    """

    polarity: str
    vth0: float
    kp: float
    lambda_per_um: float
    cox: float
    cgdo: float
    vth_tc: float = -1e-3
    mobility_temp_exponent: float = -1.5
    noise: NoiseCard = DEFAULT_NOISE

    def __post_init__(self) -> None:
        if self.polarity not in ("nmos", "pmos"):
            raise ValueError(f"polarity must be 'nmos' or 'pmos', got {self.polarity!r}")

    @property
    def sign(self) -> float:
        """+1 for NMOS, -1 for PMOS (applied to terminal voltages)."""
        return 1.0 if self.polarity == "nmos" else -1.0

    def vth_at(self, temperature_celsius: float) -> float:
        return self.vth0 + self.vth_tc * (temperature_celsius - 27.0)

    def kp_at(self, temperature_celsius: float) -> float:
        t_ratio = (temperature_celsius + 273.15) / 300.15
        return self.kp * t_ratio**self.mobility_temp_exponent

    def effective_lambda(self, length: float) -> float:
        """Channel-length modulation for a device of length ``length`` metres."""
        length_um = max(length * 1e6, 1e-3)
        return self.lambda_per_um / length_um


@dataclass
class MosfetOperatingPoint:
    """Small-signal quantities of one MOSFET at its DC bias.

    Voltages follow the device's own polarity convention (``vgs``/``vds`` are
    source-referenced magnitudes for PMOS as well), so ``vov > 0`` always
    means the channel is on.
    """

    ids: float
    vgs: float
    vds: float
    vov: float
    gm: float
    gds: float
    region: str
    cgs: float
    cgd: float


def square_law(model: MosfetModel, width: float, length: float,
               vgs: float, vds: float, temperature: float = 27.0,
               ) -> MosfetOperatingPoint:
    """Evaluate the square-law model (``vgs``/``vds`` in polarity convention, ``vds >= 0``)."""
    vth = model.vth_at(temperature)
    kp = model.kp_at(temperature)
    beta = kp * width / max(length, 1e-9)
    lam = model.effective_lambda(length)
    vov = vgs - vth
    vds = max(vds, 0.0)
    cgs = (2.0 / 3.0) * width * length * model.cox + model.cgdo * width
    cgd = model.cgdo * width

    if vov <= 0.0:
        # Sub-threshold: a tiny exponential leakage keeps the Jacobian finite
        # and gives Newton a gradient to climb out of cutoff.
        ids = 1e-12 * np.exp(np.clip(vov / 0.08, -60.0, 0.0)) * (1.0 + lam * vds)
        gm = ids / 0.08
        gds = 1e-9
        return MosfetOperatingPoint(ids=float(ids), vgs=vgs, vds=vds, vov=vov,
                                    gm=float(gm), gds=gds, region="cutoff",
                                    cgs=cgs, cgd=cgd)
    if vds < vov:
        ids = beta * (vov * vds - 0.5 * vds**2) * (1.0 + lam * vds)
        gm = beta * vds * (1.0 + lam * vds)
        gds = (beta * (vov - vds) * (1.0 + lam * vds)
               + beta * (vov * vds - 0.5 * vds**2) * lam)
        region = "triode"
        cgs = 0.5 * width * length * model.cox + model.cgdo * width
        cgd = 0.5 * width * length * model.cox + model.cgdo * width
    else:
        ids = 0.5 * beta * vov**2 * (1.0 + lam * vds)
        gm = beta * vov * (1.0 + lam * vds)
        gds = 0.5 * beta * vov**2 * lam + 1e-12
        region = "saturation"
    return MosfetOperatingPoint(ids=float(ids), vgs=float(vgs), vds=float(vds),
                                vov=float(vov), gm=float(max(gm, 1e-15)),
                                gds=float(max(gds, 1e-12)), region=region,
                                cgs=float(cgs), cgd=float(cgd))


def _square_law_batch(vth: np.ndarray, beta: np.ndarray, lam: np.ndarray,
                      vgs: np.ndarray, vds: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ``(ids, gm, gds)`` of :func:`square_law` over a batch.

    An operation-for-operation transcription of the scalar model: every lane
    lands in the same region branch as the scalar code (NaN trial voltages
    fall through to saturation in both) and evaluates the exact expressions
    of that branch, so the selected values are bit-identical to per-design
    scalar evaluation.  Note the scalar cutoff branch returns its ``gm`` and
    ``gds`` *without* the ``max(gm, 1e-15)`` / ``max(gds, 1e-12)`` floors --
    the floors here apply only to the triode/saturation selection.
    """
    vov = vgs - vth
    vds = np.maximum(vds, 0.0)
    cutoff = vov <= 0.0
    triode = vds < vov
    # Callers (the batch assemblers) run under an errstate that silences
    # the overflows and invalids NaN trial voltages produce.
    # float_power, not ** : the array squaring fast path multiplies, while
    # Python's scalar ``x ** 2`` goes through libm pow -- they can disagree
    # in the last ulp, which bit-identity cannot afford.  Repeated
    # subexpressions of the scalar branches are hoisted: recomputation is
    # bit-deterministic, so sharing the result changes nothing.
    vds_sq = np.float_power(vds, 2)
    vov_sq = np.float_power(vov, 2)
    channel_mod = 1.0 + lam * vds
    tri_curve = vov * vds - 0.5 * vds_sq
    ids_cut = 1e-12 * np.exp(np.minimum(np.maximum(vov / 0.08, -60.0), 0.0)) * channel_mod
    gm_cut = ids_cut / 0.08
    ids_tri = beta * tri_curve * channel_mod
    gm_tri = beta * vds * channel_mod
    gds_tri = beta * (vov - vds) * channel_mod + beta * tri_curve * lam
    half_beta_vov_sq = 0.5 * beta * vov_sq
    ids_sat = half_beta_vov_sq * channel_mod
    gm_sat = beta * vov * channel_mod
    gds_sat = half_beta_vov_sq * lam + 1e-12
    ids = np.where(cutoff, ids_cut, np.where(triode, ids_tri, ids_sat))
    gm = np.where(cutoff, gm_cut,
                  np.maximum(np.where(triode, gm_tri, gm_sat), 1e-15))
    gds = np.where(cutoff, 1e-9,
                   np.maximum(np.where(triode, gds_tri, gds_sat), 1e-12))
    return ids, gm, gds


def batch_layout(devices) -> dict:
    """Static per-row layout of ``D`` MOSFETs for :func:`large_signal_batch`.

    ``devices`` are the first design's MOSFETs in netlist order; node
    indices are topology-invariant across the batch.  ``terminals`` stacks
    the drain, gate and source indices with the conduction pair: ``high``
    is the terminal that must sit at or above ``low`` for forward
    conduction (drain over source for NMOS, source over drain for PMOS).
    ``sign`` is +1 for NMOS rows and -1 for PMOS rows.
    """
    nmos = np.array([device.model.polarity == "nmos" for device in devices])
    drain, gate, source = (np.array([device.node_indices[k]
                                     for device in devices])
                           for k in range(3))
    terminals = np.stack((drain, gate, source,
                          np.where(nmos, drain, source),
                          np.where(nmos, source, drain)))
    grounded = terminals < 0
    return {"terminals": terminals,
            "grounded": grounded if grounded.any() else None,
            "sign": np.where(nmos, 1.0, -1.0)[:, None]}


def large_signal_batch(layout: dict, params: dict,
                       voltages: np.ndarray) -> tuple:
    """Linearised drain-current stamps of ``D`` MOSFETs over a batch.

    ``params`` holds the ``(D, B)`` stacks of each row's
    :meth:`Mosfet.batch_context` (``vth``, ``beta``, ``lam``) and
    ``voltages`` the ``(B, size)`` trial solutions.  Returns the ``(D, B)``
    arrays ``d_vd``, ``d_vg``, ``d_vs`` (partials of the drain current) and
    the Newton-equivalent current.  The square law runs once on ``(D, B)``
    tensors; elementwise numpy ops are position-independent, and each lane
    takes the arguments of its scalar branch in
    :meth:`Mosfet._ids_and_derivatives`, so each row is bit-identical to
    the scalar :meth:`Mosfet.stamp_dc` of that device in each design.
    """
    values = voltages.T[layout["terminals"]]  # (5, D, B) copy: writable
    if layout["grounded"] is not None:
        values[layout["grounded"]] = 0.0
    v_d, v_g, v_s, v_high, v_low = values
    sign = layout["sign"]
    forward = v_high >= v_low
    # The gate is referenced to the source when forward and to the drain
    # when reversed; PMOS negates v_g - v_ref exactly, up to the sign of a
    # zero, which vgs - vth absorbs.
    vgs = sign * (v_g - np.where(forward, v_s, v_d))
    vds = np.where(forward, v_high - v_low, v_low - v_high)
    ids, gm, gds = _square_law_batch(params["vth"], params["beta"],
                                     params["lam"], vgs, vds)
    i_ds = sign * np.where(forward, ids, -ids)
    gm_gds = gm + gds
    d_vd = np.where(forward, gds, gm_gds)
    d_vg = np.where(forward, gm, -gm)
    d_vs = np.where(forward, -gm_gds, -gds)
    equivalent = i_ds - (d_vd * v_d + d_vg * v_g + d_vs * v_s)
    return d_vd, d_vg, d_vs, equivalent


class Mosfet(Device):
    """A four-terminal MOSFET (drain, gate, source, bulk).

    The bulk terminal is kept for netlist fidelity but the level-1 equations
    ignore body effect.
    """

    def __init__(self, name: str, drain: str, gate: str, source: str, bulk: str,
                 model: MosfetModel, width: float, length: float):
        super().__init__(name, (drain, gate, source, bulk))
        if width <= 0 or length <= 0:
            raise ValueError(f"width and length of {name} must be positive")
        self.model = model
        self.width = float(width)
        self.length = float(length)

    @property
    def is_nonlinear(self) -> bool:
        return True

    # ------------------------------------------------------------------ #
    # large-signal evaluation                                             #
    # ------------------------------------------------------------------ #
    def _terminal_voltages(self, voltages: np.ndarray) -> tuple[float, float, float]:
        drain, gate, source, _ = self.node_indices
        v_d = 0.0 if drain < 0 else float(voltages[drain])
        v_g = 0.0 if gate < 0 else float(voltages[gate])
        v_s = 0.0 if source < 0 else float(voltages[source])
        return v_d, v_g, v_s

    def _ids_and_derivatives(self, v_d: float, v_g: float, v_s: float,
                             temperature: float,
                             ) -> tuple[float, float, float, float, MosfetOperatingPoint]:
        """Drain-to-source current and its partials w.r.t. (v_d, v_g, v_s).

        Handles both polarities and drain/source swapping so the Newton
        iteration sees a continuous, consistent model everywhere.
        """
        if self.model.polarity == "nmos":
            if v_d >= v_s:
                op = square_law(self.model, self.width, self.length,
                                v_g - v_s, v_d - v_s, temperature)
                return op.ids, op.gds, op.gm, -(op.gm + op.gds), op
            op = square_law(self.model, self.width, self.length,
                            v_g - v_d, v_s - v_d, temperature)
            return -op.ids, op.gm + op.gds, -op.gm, -op.gds, op
        # PMOS: conduction when the source is above the drain.
        if v_s >= v_d:
            op = square_law(self.model, self.width, self.length,
                            v_s - v_g, v_s - v_d, temperature)
            return -op.ids, op.gds, op.gm, -(op.gm + op.gds), op
        op = square_law(self.model, self.width, self.length,
                        v_d - v_g, v_d - v_s, temperature)
        return op.ids, op.gm + op.gds, -op.gm, -op.gds, op

    def operating_point(self, voltages: np.ndarray, temperature: float) -> MosfetOperatingPoint:
        v_d, v_g, v_s = self._terminal_voltages(voltages)
        _, _, _, _, op = self._ids_and_derivatives(v_d, v_g, v_s, temperature)
        return op

    # ------------------------------------------------------------------ #
    # stamping                                                            #
    # ------------------------------------------------------------------ #
    def stamp_dc(self, stamper, voltages: np.ndarray, temperature: float) -> None:
        drain, gate, source, _ = self.node_indices
        v_d, v_g, v_s = self._terminal_voltages(voltages)
        i_ds, d_vd, d_vg, d_vs, _ = self._ids_and_derivatives(v_d, v_g, v_s, temperature)
        # KCL: +i_ds leaves the drain, enters the source.
        stamper.add_entry(drain, drain, d_vd)
        stamper.add_entry(drain, gate, d_vg)
        stamper.add_entry(drain, source, d_vs)
        stamper.add_entry(source, drain, -d_vd)
        stamper.add_entry(source, gate, -d_vg)
        stamper.add_entry(source, source, -d_vs)
        equivalent = i_ds - (d_vd * v_d + d_vg * v_g + d_vs * v_s)
        stamper.add_current(drain, source, equivalent)

    def batch_context(self, siblings, temperatures):
        # Temperature/geometry constants via the exact scalar model per
        # design: the mobility law's general power is not bit-reproducible
        # when vectorized, so only voltage-dependent math is batched.
        count = len(siblings)
        vth = np.empty(count)
        beta = np.empty(count)
        lam = np.empty(count)
        for b, (device, temp) in enumerate(zip(siblings, temperatures)):
            t_celsius = float(temp)
            model = device.model
            vth[b] = model.vth_at(t_celsius)
            kp = model.kp_at(t_celsius)
            beta[b] = kp * device.width / max(device.length, 1e-9)
            lam[b] = model.effective_lambda(device.length)
        return {"vth": vth, "beta": beta, "lam": lam}

    def stamp_dc_batch(self, stamper, siblings, voltages, temperatures,
                       context) -> None:
        """Stamp this column's row of :func:`large_signal_batch`.

        The batch assemblers evaluate every MOSFET of the netlist in one
        kernel call per assembly and put this device's row of its four
        outputs under ``context["large_signal"]`` before the stamp loop
        reaches it.
        """
        d_vd, d_vg, d_vs, equivalent = context["large_signal"]
        drain, gate, source, _ = self.node_indices
        stamper.add_entry(drain, drain, d_vd)
        stamper.add_entry(drain, gate, d_vg)
        stamper.add_entry(drain, source, d_vs)
        stamper.add_entry(source, drain, -d_vd)
        stamper.add_entry(source, gate, -d_vg)
        stamper.add_entry(source, source, -d_vs)
        stamper.add_current(drain, source, equivalent)

    def stamp_ac(self, stamper, omega: float, operating_point) -> None:
        drain, gate, source, _ = self.node_indices
        info = operating_point.device_info.get(self.name)
        if info is None:
            raise KeyError(f"no operating point recorded for {self.name}")
        gm, gds = info["gm"], info["gds"]
        cgs, cgd = info["cgs"], info["cgd"]
        # The small-signal model has the same form for NMOS and PMOS.
        stamper.add_transconductance(drain, source, gate, source, gm)
        stamper.add_conductance(drain, source, gds)
        stamper.add_conductance(gate, source, 1j * omega * cgs)
        stamper.add_conductance(gate, drain, 1j * omega * cgd)

    def noise_sources(self, operating_point) -> list[NoiseSource]:
        """Channel thermal (``4kT*gamma*gm``) and flicker noise at the bias.

        Both mechanisms appear as one drain-to-source current generator:
        thermal noise is white, flicker carries the SPICE-style
        ``KF * Ids**AF / (Cox * W * L * f)`` density with KF/AF/gamma from
        the model's :class:`NoiseCard`.  Bias quantities come from the
        recorded operating info, so the sources are consistent with the AC
        linearisation reusing the same solve.
        """
        info = operating_point.device_info.get(self.name)
        if info is None:
            raise KeyError(f"no operating point recorded for {self.name}")
        drain, _, source, _ = self.node_indices
        card = self.model.noise
        t_kelvin = operating_point.temperature + 273.15
        white = 4.0 * _K_BOLTZMANN * t_kelvin * card.gamma * abs(info["gm"])
        flicker = 0.0
        if card.kf > 0.0:
            gate_cap = self.model.cox * self.width * self.length
            flicker = card.kf * abs(info["ids"])**card.af / gate_cap
        return [NoiseSource(self.name, "channel", drain, source,
                            white=white, flicker=flicker)]

    def init_transient(self, operating_point, temperature: float) -> dict:
        """Freeze the gate capacitances at the DC bias and record their state.

        The level-1 capacitances vary only mildly between regions; freezing
        them at the operating point keeps the companion models linear (and
        charge-conserving) while the large-signal drain current stays fully
        nonlinear -- slewing is limited by the bias currents, as in the real
        amplifier.
        """
        voltages = operating_point.voltages
        op = self.operating_point(voltages, temperature)
        v_d, v_g, v_s = self._terminal_voltages(voltages)
        return {"cgs": op.cgs, "cgd": op.cgd,
                "v_gs": v_g - v_s, "i_gs": 0.0,
                "v_gd": v_g - v_d, "i_gd": 0.0}

    def stamp_transient(self, stamper, voltages: np.ndarray, state: dict,
                        dt: float, temperature: float) -> None:
        # Nonlinear drain current: identical linearised stamps to DC.
        self.stamp_dc(stamper, voltages, temperature)
        drain, gate, source, _ = self.node_indices
        stamp_capacitor_companion(stamper, gate, source, state["cgs"],
                                  state, "v_gs", "i_gs", dt)
        stamp_capacitor_companion(stamper, gate, drain, state["cgd"],
                                  state, "v_gd", "i_gd", dt)

    def commit_transient(self, voltages: np.ndarray, state: dict, dt: float,
                         temperature: float) -> None:
        v_d, v_g, v_s = self._terminal_voltages(voltages)
        commit_capacitor_companion(state["cgs"], state, "v_gs", "i_gs", dt,
                                   v_g - v_s)
        commit_capacitor_companion(state["cgd"], state, "v_gd", "i_gd", dt,
                                   v_g - v_d)

    def stamp_transient_batch(self, stamper, siblings, voltages, state,
                              times, dts, trap, temperatures,
                              context) -> None:
        self.stamp_dc_batch(stamper, siblings, voltages, temperatures, context)
        drain, gate, source, _ = self.node_indices
        stamp_capacitor_companion_batch(stamper, gate, source, state["cgs"],
                                        state["v_gs"], state["i_gs"], dts,
                                        trap)
        stamp_capacitor_companion_batch(stamper, gate, drain, state["cgd"],
                                        state["v_gd"], state["i_gd"], dts,
                                        trap)

    def commit_transient_batch(self, voltages, state, rows, dts, trap,
                               context) -> None:
        drain, gate, source, _ = self.node_indices
        v_d = 0.0 if drain < 0 else voltages[:, drain]
        v_g = 0.0 if gate < 0 else voltages[:, gate]
        v_s = 0.0 if source < 0 else voltages[:, source]
        commit_capacitor_companion_batch(state["cgs"][rows], state, "v_gs",
                                         "i_gs", rows, dts, trap, v_g - v_s)
        commit_capacitor_companion_batch(state["cgd"][rows], state, "v_gd",
                                         "i_gd", rows, dts, trap, v_g - v_d)

    def operating_info(self, voltages: np.ndarray, temperature: float) -> dict[str, float]:
        op = self.operating_point(voltages, temperature)
        return {
            "ids": op.ids, "vgs": op.vgs, "vds": op.vds, "vov": op.vov,
            "gm": op.gm, "gds": op.gds, "cgs": op.cgs, "cgd": op.cgd,
            "region": op.region,
        }
