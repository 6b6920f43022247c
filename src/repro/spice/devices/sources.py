"""Independent and controlled sources, and time-varying waveforms.

A :class:`Waveform` turns an independent source into a transient stimulus:
the source's ``dc`` value stays the operating-point/DC-analysis value, while
:meth:`Waveform.value_at` supplies the instantaneous value during transient
analysis.  Waveforms also publish their :meth:`~Waveform.breakpoints` --
times where the stimulus has a corner or discontinuity -- so the adaptive
timestep controller can land a step exactly on each one and restart
integration cleanly behind it.
"""

from __future__ import annotations

import numpy as np

from repro.spice.devices.base import Device, TwoTerminal


class Waveform:
    """Base class for transient stimulus waveforms."""

    def value_at(self, t: float) -> float:
        """Instantaneous source value at time ``t`` (seconds)."""
        raise NotImplementedError

    def breakpoints(self, t_stop: float) -> tuple[float, ...]:
        """Times in ``(0, t_stop)`` where the waveform is non-smooth."""
        return ()


class StepWaveform(Waveform):
    """A step from ``initial`` to ``final`` at ``delay``, with a linear ramp.

    ``rise_time = 0`` gives an ideal discontinuity; a small non-zero ramp is
    kinder to the timestep controller and closer to a real pulse generator.
    """

    def __init__(self, initial: float = 0.0, final: float = 1.0,
                 delay: float = 0.0, rise_time: float = 0.0):
        self.initial = float(initial)
        self.final = float(final)
        self.delay = float(delay)
        self.rise_time = float(rise_time)

    def value_at(self, t: float) -> float:
        if t <= self.delay:
            return self.initial
        if self.rise_time > 0.0 and t < self.delay + self.rise_time:
            fraction = (t - self.delay) / self.rise_time
            return self.initial + fraction * (self.final - self.initial)
        return self.final

    def breakpoints(self, t_stop: float) -> tuple[float, ...]:
        points = [self.delay, self.delay + self.rise_time]
        return tuple(p for p in dict.fromkeys(points) if 0.0 < p < t_stop)


class PulseWaveform(Waveform):
    """SPICE-style periodic trapezoidal pulse.

    One period is: ``initial`` until ``delay``, a ``rise`` ramp to
    ``pulsed``, flat for ``width``, a ``fall`` ramp back, then flat until the
    period ends.  ``period = 0`` (default) gives a single pulse.
    """

    def __init__(self, initial: float = 0.0, pulsed: float = 1.0,
                 delay: float = 0.0, rise: float = 0.0, fall: float = 0.0,
                 width: float = 1e-6, period: float = 0.0):
        self.initial = float(initial)
        self.pulsed = float(pulsed)
        self.delay = float(delay)
        self.rise = float(rise)
        self.fall = float(fall)
        self.width = float(width)
        self.period = float(period)

    def _single_pulse(self, t: float) -> float:
        """Value within one period, ``t`` measured from the pulse start."""
        if t <= 0.0:
            return self.initial
        if self.rise > 0.0 and t < self.rise:
            return self.initial + t / self.rise * (self.pulsed - self.initial)
        t -= max(self.rise, 0.0)
        if t < self.width:
            return self.pulsed
        t -= self.width
        if self.fall > 0.0 and t < self.fall:
            return self.pulsed + t / self.fall * (self.initial - self.pulsed)
        return self.initial

    def value_at(self, t: float) -> float:
        t = t - self.delay
        if t <= 0.0:
            return self.initial
        if self.period > 0.0:
            t = t % self.period
        return self._single_pulse(t)

    def breakpoints(self, t_stop: float) -> tuple[float, ...]:
        edges = (0.0, self.rise, self.rise + self.width,
                 self.rise + self.width + self.fall)
        starts = [self.delay]
        if self.period > 0.0:
            n_periods = int(max(t_stop - self.delay, 0.0) / self.period) + 1
            starts = [self.delay + k * self.period for k in range(n_periods + 1)]
        points = sorted({start + edge for start in starts for edge in edges})
        return tuple(p for p in points if 0.0 < p < t_stop)


class PWLWaveform(Waveform):
    """Piecewise-linear waveform through ``(time, value)`` points."""

    def __init__(self, points):
        points = [(float(t), float(v)) for t, v in points]
        if not points:
            raise ValueError("PWLWaveform needs at least one point")
        points.sort(key=lambda p: p[0])
        self.times = np.array([p[0] for p in points])
        self.values = np.array([p[1] for p in points])

    def value_at(self, t: float) -> float:
        return float(np.interp(t, self.times, self.values))

    def breakpoints(self, t_stop: float) -> tuple[float, ...]:
        return tuple(float(t) for t in self.times if 0.0 < t < t_stop)


class SineWaveform(Waveform):
    """``offset + amplitude * sin(2*pi*frequency*(t - delay) + phase)``.

    The source holds ``offset`` before ``delay`` (like SPICE ``SIN``).
    """

    def __init__(self, offset: float = 0.0, amplitude: float = 1.0,
                 frequency: float = 1e3, delay: float = 0.0,
                 phase_degrees: float = 0.0):
        self.offset = float(offset)
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)
        self.delay = float(delay)
        self.phase = float(np.radians(phase_degrees))

    def value_at(self, t: float) -> float:
        if t < self.delay:
            return self.offset + self.amplitude * np.sin(self.phase)
        angle = 2.0 * np.pi * self.frequency * (t - self.delay) + self.phase
        return float(self.offset + self.amplitude * np.sin(angle))

    def breakpoints(self, t_stop: float) -> tuple[float, ...]:
        return (self.delay,) if 0.0 < self.delay < t_stop else ()


class VoltageSource(TwoTerminal):
    """Independent voltage source (adds one branch-current unknown).

    ``dc`` is the operating-point value; ``ac`` is the small-signal amplitude
    used by AC analysis (1 V for transfer-function measurements, 0 to keep
    the source quiet); ``waveform`` (optional) drives transient analysis,
    which falls back to the constant ``dc`` value without one.
    """

    n_branches = 1

    def __init__(self, name: str, positive: str, negative: str,
                 dc: float = 0.0, ac: float = 0.0,
                 waveform: Waveform | None = None):
        super().__init__(name, positive, negative)
        self.dc = float(dc)
        self.ac = float(ac)
        self.waveform = waveform

    def value_at(self, t: float) -> float:
        """Transient source value at time ``t``."""
        return self.waveform.value_at(t) if self.waveform is not None else self.dc

    def _stamp_branch(self, stamper, value) -> None:
        branch = self.branch_indices[0]
        pos, neg = self.positive_index, self.negative_index
        stamper.add_entry(pos, branch, 1.0)
        stamper.add_entry(neg, branch, -1.0)
        stamper.add_entry(branch, pos, 1.0)
        stamper.add_entry(branch, neg, -1.0)
        stamper.add_rhs(branch, value)

    def stamp_dc(self, stamper, voltages: np.ndarray, temperature: float) -> None:
        self._stamp_branch(stamper, self.dc)

    def batch_context(self, siblings, temperatures):
        # The DC value varies across the batch (e.g. per-corner supply scaling).
        return {"dc": np.array([d.dc for d in siblings])}

    def stamp_dc_batch(self, stamper, siblings, voltages, temperatures,
                       context) -> None:
        self._stamp_branch(stamper, context["dc"])

    def stamp_ac(self, stamper, omega: float, operating_point) -> None:
        self._stamp_branch(stamper, self.ac)

    def stamp_transient(self, stamper, voltages: np.ndarray, state: dict,
                        dt: float, temperature: float) -> None:
        self._stamp_branch(stamper, self.value_at(state["time"]))

    def stamp_transient_batch(self, stamper, siblings, voltages, state,
                              times, dts, trap, temperatures,
                              context) -> None:
        # Each design is at its own solve time; the solver evaluates the
        # scalar value_at once per design and step attempt into
        # state["value"], so only the branch stamping is vectorized.
        self._stamp_branch(stamper, state["value"])

    def branch_current(self, solution: np.ndarray) -> float:
        """Current through the source (positive into the + terminal)."""
        return float(np.real(solution[self.branch_indices[0]]))


class CurrentSource(TwoTerminal):
    """Independent current source pushing ``dc`` amps from + to - internally.

    With the SPICE convention, a positive value pulls current out of the
    positive node and pushes it into the negative node.  ``waveform``
    (optional) drives transient analysis like :class:`VoltageSource`.
    """

    def __init__(self, name: str, positive: str, negative: str,
                 dc: float = 0.0, ac: float = 0.0,
                 waveform: Waveform | None = None):
        super().__init__(name, positive, negative)
        self.dc = float(dc)
        self.ac = float(ac)
        self.waveform = waveform

    def value_at(self, t: float) -> float:
        """Transient source value at time ``t``."""
        return self.waveform.value_at(t) if self.waveform is not None else self.dc

    def stamp_dc(self, stamper, voltages: np.ndarray, temperature: float) -> None:
        stamper.add_current(self.positive_index, self.negative_index, self.dc)

    def batch_context(self, siblings, temperatures):
        return {"dc": np.array([d.dc for d in siblings])}

    def stamp_dc_batch(self, stamper, siblings, voltages, temperatures,
                       context) -> None:
        stamper.add_current(self.positive_index, self.negative_index,
                            context["dc"])

    def stamp_ac(self, stamper, omega: float, operating_point) -> None:
        stamper.add_current(self.positive_index, self.negative_index, self.ac)

    def stamp_transient(self, stamper, voltages: np.ndarray, state: dict,
                        dt: float, temperature: float) -> None:
        stamper.add_current(self.positive_index, self.negative_index,
                            self.value_at(state["time"]))

    def stamp_transient_batch(self, stamper, siblings, voltages, state,
                              times, dts, trap, temperatures,
                              context) -> None:
        stamper.add_current(self.positive_index, self.negative_index,
                            state["value"])

    def operating_info(self, voltages: np.ndarray, temperature: float) -> dict[str, float]:
        return {"i": self.dc, "v": self.voltage_across(voltages)}


class VCCS(Device):
    """Voltage-controlled current source (transconductance ``gm``)."""

    def __init__(self, name: str, out_positive: str, out_negative: str,
                 ctrl_positive: str, ctrl_negative: str, gm: float):
        super().__init__(name, (out_positive, out_negative, ctrl_positive, ctrl_negative))
        self.gm = float(gm)

    def stamp_dc(self, stamper, voltages: np.ndarray, temperature: float) -> None:
        out_p, out_n, ctrl_p, ctrl_n = self.node_indices
        stamper.add_transconductance(out_p, out_n, ctrl_p, ctrl_n, self.gm)

    def batch_context(self, siblings, temperatures):
        return {"gm": np.array([d.gm for d in siblings])}

    def stamp_dc_batch(self, stamper, siblings, voltages, temperatures,
                       context) -> None:
        out_p, out_n, ctrl_p, ctrl_n = self.node_indices
        stamper.add_transconductance(out_p, out_n, ctrl_p, ctrl_n,
                                     context["gm"])

    def stamp_ac(self, stamper, omega: float, operating_point) -> None:
        out_p, out_n, ctrl_p, ctrl_n = self.node_indices
        stamper.add_transconductance(out_p, out_n, ctrl_p, ctrl_n, self.gm)


class VCVS(Device):
    """Voltage-controlled voltage source with gain ``mu`` (one branch unknown)."""

    n_branches = 1

    def __init__(self, name: str, out_positive: str, out_negative: str,
                 ctrl_positive: str, ctrl_negative: str, mu: float):
        super().__init__(name, (out_positive, out_negative, ctrl_positive, ctrl_negative))
        self.mu = float(mu)

    def _stamp(self, stamper, mu) -> None:
        out_p, out_n, ctrl_p, ctrl_n = self.node_indices
        branch = self.branch_indices[0]
        stamper.add_entry(out_p, branch, 1.0)
        stamper.add_entry(out_n, branch, -1.0)
        stamper.add_entry(branch, out_p, 1.0)
        stamper.add_entry(branch, out_n, -1.0)
        stamper.add_entry(branch, ctrl_p, -mu)
        stamper.add_entry(branch, ctrl_n, mu)

    def stamp_dc(self, stamper, voltages: np.ndarray, temperature: float) -> None:
        self._stamp(stamper, self.mu)

    def batch_context(self, siblings, temperatures):
        return {"mu": np.array([d.mu for d in siblings])}

    def stamp_dc_batch(self, stamper, siblings, voltages, temperatures,
                       context) -> None:
        self._stamp(stamper, context["mu"])

    def stamp_ac(self, stamper, omega: float, operating_point) -> None:
        self._stamp(stamper, self.mu)
