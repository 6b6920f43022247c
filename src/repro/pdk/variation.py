"""Pelgrom-style local device variation: mismatch cards and samples.

Global process spread is handled by the PVT corner layer
(:mod:`repro.bench.corners`): one scale/shift applied to *every* device of a
polarity.  Local mismatch is the statistical counterpart -- each transistor
gets its own random threshold and current-factor deviation, with a standard
deviation that shrinks with gate area following Pelgrom's law:

    sigma(Vth)        = avt  / sqrt(W * L)
    sigma(beta)/beta  = abeta / sqrt(W * L)

A :class:`MismatchCard` stores the per-polarity Pelgrom coefficients on the
technology card; a :class:`VariationSample` stores one drawn outcome as
*standard-normal z-scores per named device* -- deliberately area-free, so the
same sample describes the same silicon lottery for every design point and the
physical shifts are computed at netlist-build time from each device's actual
geometry (:func:`apply_variation`).

``Technology.with_variation(sample)`` derives a card carrying the sample,
mirroring ``with_corner``: the derived card keeps its ``name`` (design spaces
are keyed on the node name) while its ``fingerprint`` encodes the z-scores,
so per-sample simulation results can never share design-cache entries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Hard floor on the current-factor scale: a many-sigma beta draw must weaken
#: the device, never flip or null its polarity.
_MIN_BETA_SCALE = 0.05


@dataclass(frozen=True)
class MismatchCard:
    """Pelgrom mismatch coefficients of one device polarity.

    Attributes
    ----------
    avt:
        Threshold-voltage area coefficient in V*m (the familiar mV*um number
        times 1e-9): ``sigma_vth = avt / sqrt(W*L)`` with W and L in metres.
    abeta:
        Relative current-factor area coefficient in m (percent*um over 1e8):
        ``sigma_beta / beta = abeta / sqrt(W*L)``.
    """

    avt: float
    abeta: float

    def __post_init__(self) -> None:
        if self.avt < 0.0 or self.abeta < 0.0:
            raise ValueError(
                f"mismatch coefficients must be non-negative, got "
                f"avt={self.avt}, abeta={self.abeta}")

    def sigma_vth(self, width: float, length: float) -> float:
        """Threshold standard deviation (V) for a ``width x length`` device."""
        return self.avt / max(width * length, 1e-18) ** 0.5

    def sigma_beta(self, width: float, length: float) -> float:
        """Relative current-factor standard deviation for one device."""
        return self.abeta / max(width * length, 1e-18) ** 0.5


@dataclass(frozen=True)
class DeviceVariation:
    """Standard-normal mismatch draw of one named device.

    ``vth_z`` and ``beta_z`` are z-scores; the physical shift is scaled by
    the device's Pelgrom sigma (a function of its W*L) when the variation is
    applied to a built netlist, so one sample is meaningful across the whole
    design space.
    """

    device: str
    vth_z: float
    beta_z: float


@dataclass(frozen=True)
class VariationSample:
    """One Monte Carlo mismatch outcome: a z-score per matched device.

    Frozen and built from plain floats so it hashes into
    :attr:`~repro.pdk.Technology.fingerprint` via ``astuple`` like every
    other card parameter, and pickles cheaply to backend workers.

    Attributes
    ----------
    index:
        Position of this sample within its sampler stream (stable across
        serial/batched/process execution and checkpoint/resume; reports and
        per-sample records are keyed on it).
    devices:
        Per-device draws, sorted by device name.
    """

    index: int
    devices: tuple[DeviceVariation, ...]

    def __post_init__(self) -> None:
        names = [d.device for d in self.devices]
        if names != sorted(names):
            raise ValueError("device variations must be sorted by name")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate device names in sample: {names}")

    @classmethod
    def from_zscores(cls, index: int, device_names, vth_z, beta_z,
                     ) -> "VariationSample":
        """Assemble a sample from parallel name / z-score sequences."""
        draws = tuple(
            DeviceVariation(name, float(v), float(b))
            for name, v, b in sorted(zip(device_names, vth_z, beta_z)))
        return cls(index=int(index), devices=draws)

    @property
    def device_names(self) -> tuple[str, ...]:
        return tuple(d.device for d in self.devices)

    def describe(self) -> dict[str, object]:
        return {"index": self.index,
                "devices": {d.device: (d.vth_z, d.beta_z)
                            for d in self.devices}}


def apply_variation(circuit, technology) -> None:
    """Perturb the MOSFETs of a freshly built ``circuit`` in place.

    For every device named in ``technology.variation``, the threshold shifts
    by ``vth_z * sigma_vth(W, L)`` (magnitude convention, like
    ``with_corner``) and the current factor scales by
    ``1 + beta_z * sigma_beta(W, L)``, each sigma from the polarity's
    :class:`MismatchCard` and the device's own geometry.  Devices absent from
    the sample -- and non-MOSFET devices -- are untouched.

    Mutating in place is safe because circuit problems build a fresh netlist
    per simulation (see ``CircuitSizingProblem.bench``); the shared
    :class:`~repro.spice.devices.mosfet.MosfetModel` instances themselves are
    frozen, so a perturbed device gets a private replaced model.
    """
    from repro.spice.devices.mosfet import Mosfet

    sample = technology.variation
    if sample is None:
        return
    draws = {d.device: d for d in sample.devices}
    for device in circuit.devices:
        draw = draws.get(device.name)
        if draw is None or not isinstance(device, Mosfet):
            continue
        card = technology.mismatch_card(device.model.polarity)
        sigma_vth = card.sigma_vth(device.width, device.length)
        sigma_beta = card.sigma_beta(device.width, device.length)
        scale = max(1.0 + draw.beta_z * sigma_beta, _MIN_BETA_SCALE)
        device.model = replace(device.model,
                               vth0=device.model.vth0 + draw.vth_z * sigma_vth,
                               kp=device.model.kp * scale)
