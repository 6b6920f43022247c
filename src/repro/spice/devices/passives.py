"""Linear passive devices: resistors, capacitors and inductors."""

from __future__ import annotations

import numpy as np

from repro.spice.devices.base import (
    NoiseSource,
    TwoTerminal,
    commit_capacitor_companion,
    commit_capacitor_companion_batch,
    stamp_capacitor_companion,
    stamp_capacitor_companion_batch,
)
from repro.utils.validation import check_positive

_K_BOLTZMANN = 1.380649e-23


class Resistor(TwoTerminal):
    """An ideal resistor between two nodes."""

    def __init__(self, name: str, positive: str, negative: str, resistance: float):
        super().__init__(name, positive, negative)
        self.resistance = check_positive(resistance, f"resistance of {name}")

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance

    def stamp_dc(self, stamper, voltages: np.ndarray, temperature: float) -> None:
        stamper.add_conductance(self.positive_index, self.negative_index,
                                self.conductance)

    def batch_context(self, siblings, temperatures):
        return {"conductance": np.array([d.conductance for d in siblings])}

    def stamp_dc_batch(self, stamper, siblings, voltages, temperatures,
                       context) -> None:
        stamper.add_conductance(self.positive_index, self.negative_index,
                                context["conductance"])

    def stamp_ac(self, stamper, omega: float, operating_point) -> None:
        stamper.add_conductance(self.positive_index, self.negative_index,
                                self.conductance)

    def noise_sources(self, operating_point) -> list[NoiseSource]:
        """Johnson-Nyquist thermal noise: current PSD ``4kT/R``."""
        t_kelvin = operating_point.temperature + 273.15
        white = 4.0 * _K_BOLTZMANN * t_kelvin / self.resistance
        return [NoiseSource(self.name, "thermal", self.positive_index,
                            self.negative_index, white=white)]

    def operating_info(self, voltages: np.ndarray, temperature: float) -> dict[str, float]:
        v = self.voltage_across(voltages)
        return {"v": v, "i": v / self.resistance, "power": v**2 / self.resistance}


class Capacitor(TwoTerminal):
    """An ideal capacitor: open in DC, admittance ``j*omega*C`` in AC."""

    def __init__(self, name: str, positive: str, negative: str, capacitance: float):
        super().__init__(name, positive, negative)
        self.capacitance = check_positive(capacitance, f"capacitance of {name}")

    def stamp_dc(self, stamper, voltages: np.ndarray, temperature: float) -> None:
        # Open circuit at DC; nothing to stamp.
        return

    def batch_context(self, siblings, temperatures):
        return {"capacitance": np.array([d.capacitance for d in siblings])}

    def stamp_dc_batch(self, stamper, siblings, voltages, temperatures,
                       context) -> None:
        # Open circuit at DC for every design in the batch.
        return

    def stamp_ac(self, stamper, omega: float, operating_point) -> None:
        stamper.add_conductance(self.positive_index, self.negative_index,
                                1j * omega * self.capacitance)

    def init_transient(self, operating_point, temperature: float) -> dict:
        # A capacitor carries no current at the DC operating point.
        return {"v": self.voltage_across(operating_point.voltages), "i": 0.0}

    def stamp_transient(self, stamper, voltages: np.ndarray, state: dict,
                        dt: float, temperature: float) -> None:
        stamp_capacitor_companion(stamper, self.positive_index,
                                  self.negative_index, self.capacitance,
                                  state, "v", "i", dt)

    def commit_transient(self, voltages: np.ndarray, state: dict, dt: float,
                         temperature: float) -> None:
        commit_capacitor_companion(self.capacitance, state, "v", "i", dt,
                                   self.voltage_across(voltages))

    def stamp_transient_batch(self, stamper, siblings, voltages, state,
                              times, dts, trap, temperatures,
                              context) -> None:
        stamp_capacitor_companion_batch(stamper, self.positive_index,
                                        self.negative_index,
                                        context["capacitance"], state["v"],
                                        state["i"], dts, trap)

    def commit_transient_batch(self, voltages, state, rows, dts, trap,
                               context) -> None:
        commit_capacitor_companion_batch(context["capacitance"][rows], state,
                                         "v", "i", rows, dts, trap,
                                         self.voltage_across_batch(voltages))

    def operating_info(self, voltages: np.ndarray, temperature: float) -> dict[str, float]:
        return {"v": self.voltage_across(voltages)}


class Inductor(TwoTerminal):
    """An ideal inductor: short in DC, impedance ``j*omega*L`` in AC.

    Adds one branch-current unknown (like a voltage source), which makes the
    DC short exactly representable and gives transient analysis direct access
    to the inductor current for its companion model.
    """

    n_branches = 1

    def __init__(self, name: str, positive: str, negative: str, inductance: float):
        super().__init__(name, positive, negative)
        self.inductance = check_positive(inductance, f"inductance of {name}")

    def _stamp_branch_kcl(self, stamper) -> None:
        """Couple the branch current into both terminal KCL rows."""
        branch = self.branch_indices[0]
        stamper.add_entry(self.positive_index, branch, 1.0)
        stamper.add_entry(self.negative_index, branch, -1.0)

    def stamp_dc(self, stamper, voltages: np.ndarray, temperature: float) -> None:
        # DC short: branch equation v_pos - v_neg = 0.
        branch = self.branch_indices[0]
        self._stamp_branch_kcl(stamper)
        stamper.add_entry(branch, self.positive_index, 1.0)
        stamper.add_entry(branch, self.negative_index, -1.0)

    def batch_context(self, siblings, temperatures):
        return {"inductance": np.array([d.inductance for d in siblings])}

    def stamp_dc_batch(self, stamper, siblings, voltages, temperatures,
                       context) -> None:
        # The DC short stamps are value-free, hence identical across designs.
        self.stamp_dc(stamper, None, 0.0)

    def stamp_ac(self, stamper, omega: float, operating_point) -> None:
        # Branch equation v_pos - v_neg - j*omega*L * i = 0 (affine in omega).
        branch = self.branch_indices[0]
        self._stamp_branch_kcl(stamper)
        stamper.add_entry(branch, self.positive_index, 1.0)
        stamper.add_entry(branch, self.negative_index, -1.0)
        stamper.add_entry(branch, branch, -1j * omega * self.inductance)

    def init_transient(self, operating_point, temperature: float) -> dict:
        return {"i": float(np.real(operating_point.voltages[self.branch_indices[0]])),
                "v": self.voltage_across(operating_point.voltages)}

    def stamp_transient(self, stamper, voltages: np.ndarray, state: dict,
                        dt: float, temperature: float) -> None:
        # Companion branch equation.  Backward Euler discretises
        # v = L di/dt into v_new - (L/dt) i_new = -(L/dt) i_prev;
        # trapezoidal into v_new - (2L/dt) i_new = -(2L/dt) i_prev - v_prev.
        branch = self.branch_indices[0]
        self._stamp_branch_kcl(stamper)
        stamper.add_entry(branch, self.positive_index, 1.0)
        stamper.add_entry(branch, self.negative_index, -1.0)
        if state["method"] == "trap":
            req = 2.0 * self.inductance / dt
            rhs = -req * state["i"] - state["v"]
        else:
            req = self.inductance / dt
            rhs = -req * state["i"]
        stamper.add_entry(branch, branch, -req)
        stamper.add_rhs(branch, rhs)

    def commit_transient(self, voltages: np.ndarray, state: dict, dt: float,
                         temperature: float) -> None:
        state["i"] = float(voltages[self.branch_indices[0]])
        state["v"] = self.voltage_across(voltages)

    def stamp_transient_batch(self, stamper, siblings, voltages, state,
                              times, dts, trap, temperatures,
                              context) -> None:
        branch = self.branch_indices[0]
        self._stamp_branch_kcl(stamper)
        stamper.add_entry(branch, self.positive_index, 1.0)
        stamper.add_entry(branch, self.negative_index, -1.0)
        i_prev, v_prev = state["i"], state["v"]
        inductance = context["inductance"]
        req = np.where(trap, 2.0 * inductance / dts, inductance / dts)
        rhs = np.where(trap, -req * i_prev - v_prev, -req * i_prev)
        stamper.add_entry(branch, branch, -req)
        stamper.add_rhs(branch, rhs)

    def commit_transient_batch(self, voltages, state, rows, dts, trap,
                               context) -> None:
        state["i"][rows] = voltages[:, self.branch_indices[0]]
        state["v"][rows] = self.voltage_across_batch(voltages)

    def branch_current(self, solution: np.ndarray) -> float:
        """Current through the inductor (positive into the + terminal)."""
        return float(np.real(solution[self.branch_indices[0]]))

    def operating_info(self, voltages: np.ndarray, temperature: float) -> dict[str, float]:
        return {"v": self.voltage_across(voltages),
                "i": self.branch_current(voltages)}
