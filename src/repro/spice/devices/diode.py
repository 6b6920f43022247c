"""Diode (and diode-connected BJT) with the Shockley exponential model.

The bandgap reference needs the complementary-to-absolute-temperature (CTAT)
behaviour of a forward-biased junction, so the saturation current carries the
standard strong temperature dependence ``IS(T) ~ T^3 exp(-Eg/kT)``.
"""

from __future__ import annotations

import numpy as np

from repro.spice.devices.base import NoiseSource, TwoTerminal

_K_BOLTZMANN = 1.380649e-23
_Q_ELECTRON = 1.602176634e-19
_EG_SILICON = 1.12  # eV
_T_NOMINAL = 300.15  # K (27 C)


def thermal_voltage(temperature_kelvin: float) -> float:
    """kT/q in volts."""
    return _K_BOLTZMANN * temperature_kelvin / _Q_ELECTRON


class Diode(TwoTerminal):
    """Shockley diode ``I = IS(T) (exp(V / n Vt) - 1)`` with emission area scaling.

    Parameters
    ----------
    saturation_current:
        ``IS`` at the nominal temperature (27 C).
    emission_coefficient:
        Ideality factor ``n``.
    area:
        Relative junction area (the bandgap core uses a 1:N area ratio).
    """

    is_nonlinear_device = True

    def __init__(self, name: str, positive: str, negative: str,
                 saturation_current: float = 1e-15,
                 emission_coefficient: float = 1.0, area: float = 1.0):
        super().__init__(name, positive, negative)
        if saturation_current <= 0:
            raise ValueError(f"saturation_current of {name} must be positive")
        self.saturation_current = float(saturation_current)
        self.emission_coefficient = float(emission_coefficient)
        self.area = float(area)

    @property
    def is_nonlinear(self) -> bool:
        return True

    def _saturation_current_at(self, temperature_celsius: float) -> float:
        t_kelvin = temperature_celsius + 273.15
        ratio = t_kelvin / _T_NOMINAL
        vt_nom = thermal_voltage(_T_NOMINAL)
        vt = thermal_voltage(t_kelvin)
        exponent = _EG_SILICON * (1.0 / vt_nom - 1.0 / vt) / self.emission_coefficient
        return self.area * self.saturation_current * ratio**3 * np.exp(exponent)

    def current_and_conductance(self, v: float, temperature_celsius: float) -> tuple[float, float]:
        """Diode current and small-signal conductance at junction voltage ``v``."""
        t_kelvin = temperature_celsius + 273.15
        n_vt = self.emission_coefficient * thermal_voltage(t_kelvin)
        i_sat = self._saturation_current_at(temperature_celsius)
        # Limit the exponential argument to keep Newton iterations finite.
        arg = np.clip(v / n_vt, -80.0, 80.0)
        exp_term = np.exp(arg)
        current = i_sat * (exp_term - 1.0)
        conductance = i_sat * exp_term / n_vt + 1e-12
        return float(current), float(conductance)

    def stamp_dc(self, stamper, voltages: np.ndarray, temperature: float) -> None:
        v = self.voltage_across(voltages)
        current, conductance = self.current_and_conductance(v, temperature)
        equivalent = current - conductance * v
        pos, neg = self.positive_index, self.negative_index
        stamper.add_conductance(pos, neg, conductance)
        stamper.add_current(pos, neg, equivalent)

    def batch_context(self, siblings, temperatures):
        # The temperature laws use general powers (``ratio**3`` is fine, but
        # the Arrhenius exponential feeds on scalar divisions); evaluate the
        # exact scalar model once per design so batched and serial runs share
        # every bit.
        count = len(siblings)
        n_vt = np.empty(count)
        i_sat = np.empty(count)
        for b, (device, temp) in enumerate(zip(siblings, temperatures)):
            t_celsius = float(temp)
            n_vt[b] = device.emission_coefficient * thermal_voltage(t_celsius + 273.15)
            i_sat[b] = device._saturation_current_at(t_celsius)
        return {"n_vt": n_vt, "i_sat": i_sat}

    def stamp_dc_batch(self, stamper, siblings, voltages, temperatures,
                       context) -> None:
        n_vt = context["n_vt"]
        i_sat = context["i_sat"]
        v = self.voltage_across_batch(voltages)
        # Elementwise transcription of current_and_conductance.
        arg = np.clip(v / n_vt, -80.0, 80.0)
        exp_term = np.exp(arg)
        current = i_sat * (exp_term - 1.0)
        conductance = i_sat * exp_term / n_vt + 1e-12
        equivalent = current - conductance * v
        pos, neg = self.positive_index, self.negative_index
        stamper.add_conductance(pos, neg, conductance)
        stamper.add_current(pos, neg, equivalent)

    def stamp_ac(self, stamper, omega: float, operating_point) -> None:
        info = operating_point.device_info.get(self.name, {})
        conductance = info.get("gd", 1e-12)
        stamper.add_conductance(self.positive_index, self.negative_index, conductance)

    def noise_sources(self, operating_point) -> list[NoiseSource]:
        """Shot noise of the junction current: PSD ``2 q |Id|``."""
        info = operating_point.device_info.get(self.name, {})
        white = 2.0 * _Q_ELECTRON * abs(info.get("i", 0.0))
        return [NoiseSource(self.name, "shot", self.positive_index,
                            self.negative_index, white=white)]

    def operating_info(self, voltages: np.ndarray, temperature: float) -> dict[str, float]:
        v = self.voltage_across(voltages)
        current, conductance = self.current_and_conductance(v, temperature)
        return {"v": v, "i": current, "gd": conductance}
