"""DC and temperature sweeps built on the operating-point solver."""

from __future__ import annotations

import numpy as np

from repro.spice.dc import OperatingPoint, dc_operating_point
from repro.spice.devices.base import Device
from repro.spice.netlist import Circuit


def dc_sweep(circuit: Circuit, device: str | Device,
             attribute: str = "dc", values: np.ndarray | None = None,
             observe: str | None = None,
             temperature: float = 27.0) -> tuple[np.ndarray, np.ndarray]:
    """Sweep one device attribute and record one node voltage.

    Parameters
    ----------
    device:
        Device name (or instance) whose ``attribute`` is swept -- e.g.
        ``("VIN", "dc")`` for an input-source sweep.  The attribute's
        original value is restored when the sweep finishes (or raises), so
        the circuit comes back unmutated and other analyses on the same
        netlist see the configured bias, not the last sweep value.
    attribute:
        Attribute to sweep (default ``"dc"``).
    values:
        The sweep values.
    observe:
        Node name whose DC voltage is recorded.

    Returns
    -------
    (values, observed_voltages)
    """
    if values is None or observe is None:
        raise ValueError("dc_sweep needs values and observe")
    target = circuit.device(device) if isinstance(device, str) else device
    original = getattr(target, attribute)  # AttributeError = caller bug
    values = np.asarray(values, dtype=float)
    observed = np.empty(values.shape[0])
    previous: np.ndarray | None = None
    try:
        # Warm-start each solve from the previous one.
        for index, value in enumerate(values):
            setattr(target, attribute, float(value))
            op = dc_operating_point(circuit, temperature=temperature,
                                    initial_guess=previous)
            observed[index] = op.voltage(observe)
            previous = op.voltages
    finally:
        setattr(target, attribute, original)
    return values, observed


def temperature_sweep(circuit: Circuit, temperatures: np.ndarray,
                      observe: str) -> tuple[np.ndarray, np.ndarray, list[OperatingPoint]]:
    """Solve the operating point across temperature and record one node.

    This is the analysis behind the bandgap temperature-coefficient metric.
    """
    temperatures = np.asarray(temperatures, dtype=float)
    observed = np.empty(temperatures.shape[0])
    points: list[OperatingPoint] = []
    previous: np.ndarray | None = None
    for index, temperature in enumerate(temperatures):
        op = dc_operating_point(circuit, temperature=float(temperature),
                                initial_guess=previous)
        observed[index] = op.voltage(observe)
        points.append(op)
        previous = op.voltages
    return temperatures, observed, points


def temperature_coefficient_ppm(temperatures: np.ndarray, values: np.ndarray) -> float:
    """Box-method temperature coefficient in ppm/degC.

    ``TC = (max - min) / (mean * temperature_span) * 1e6`` -- the standard
    figure reported for bandgap references.
    """
    temperatures = np.asarray(temperatures, dtype=float)
    values = np.asarray(values, dtype=float)
    span = float(temperatures.max() - temperatures.min())
    mean = float(np.mean(values))
    if span <= 0 or abs(mean) < 1e-18:
        return float("inf")
    return float((values.max() - values.min()) / (abs(mean) * span) * 1e6)
