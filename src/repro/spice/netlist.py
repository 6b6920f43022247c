"""Circuit container: named nodes, devices and index resolution."""

from __future__ import annotations

import numpy as np

from repro.errors import NetlistError
from repro.spice.devices.base import Device
from repro.spice.mna import Stamper

GROUND = "0"
_GROUND_ALIASES = {"0", "gnd", "gnd!", "vss"}


class Circuit:
    """A flat netlist of devices connected by named nodes.

    Node names are case-insensitive strings; ``"0"``, ``"gnd"`` and ``"vss"``
    are treated as the ground reference.
    """

    def __init__(self, title: str = "circuit"):
        self.title = title
        self.devices: list[Device] = []
        self._device_names: set[str] = set()
        self._node_order: list[str] = []
        self._node_index: dict[str, int] = {}
        self._n_branches = 0
        self._dirty = True

    # ------------------------------------------------------------------ #
    # construction                                                        #
    # ------------------------------------------------------------------ #
    @staticmethod
    def canonical_node(name: str) -> str:
        name = str(name).strip().lower()
        return GROUND if name in _GROUND_ALIASES else name

    def add(self, device: Device) -> Device:
        """Add a device; returns it so construction can be chained."""
        if device.name in self._device_names:
            raise NetlistError(f"duplicate device name {device.name!r}")
        self._device_names.add(device.name)
        self.devices.append(device)
        self._dirty = True
        return device

    def __len__(self) -> int:
        return len(self.devices)

    def device(self, name: str) -> Device:
        for candidate in self.devices:
            if candidate.name == name:
                return candidate
        raise NetlistError(f"no device named {name!r}")

    # ------------------------------------------------------------------ #
    # index resolution                                                    #
    # ------------------------------------------------------------------ #
    def _rebuild_indices(self) -> None:
        self._node_order = []
        self._node_index = {}
        branch_counter = 0
        for device in self.devices:
            node_indices = []
            for node_name in device.node_names:
                canonical = self.canonical_node(node_name)
                if canonical == GROUND:
                    node_indices.append(-1)
                    continue
                if canonical not in self._node_index:
                    self._node_index[canonical] = len(self._node_order)
                    self._node_order.append(canonical)
                node_indices.append(self._node_index[canonical])
            branch_indices = tuple(range(branch_counter, branch_counter + device.n_branches))
            branch_counter += device.n_branches
            device.bind(tuple(node_indices), branch_indices)
        self._n_branches = branch_counter
        # Branch unknowns live after the node unknowns; shift their indices.
        for device in self.devices:
            device.branch_indices = tuple(len(self._node_order) + b
                                          for b in device.branch_indices)
        self._dirty = False

    def ensure_indices(self) -> None:
        if self._dirty:
            self._rebuild_indices()

    @property
    def nodes(self) -> list[str]:
        """Non-ground node names in matrix order."""
        self.ensure_indices()
        return list(self._node_order)

    @property
    def n_nodes(self) -> int:
        self.ensure_indices()
        return len(self._node_order)

    @property
    def n_branches(self) -> int:
        self.ensure_indices()
        return self._n_branches

    def node_index(self, name: str) -> int:
        """Matrix index of a node (-1 for ground)."""
        self.ensure_indices()
        canonical = self.canonical_node(name)
        if canonical == GROUND:
            return -1
        if canonical not in self._node_index:
            raise NetlistError(f"unknown node {name!r}; known nodes: {self._node_order}")
        return self._node_index[canonical]

    def node_voltage(self, solution: np.ndarray, name: str) -> complex:
        """Extract one node's voltage from a solution vector (0 for ground)."""
        index = self.node_index(name)
        return 0.0 if index < 0 else solution[index]

    # ------------------------------------------------------------------ #
    # stamping helpers                                                    #
    # ------------------------------------------------------------------ #
    def make_stamper(self, dtype=float) -> Stamper:
        self.ensure_indices()
        return Stamper(self.n_nodes, self.n_branches, dtype=dtype)

    def stamp_dc(self, voltages: np.ndarray, temperature: float,
                 gmin: float = 0.0, stamper=None):
        """Assemble the (linearised) DC system at trial node voltages.

        ``stamper`` (optional) is a previously created DC stamper to reuse --
        it is reset and restamped in place, so Newton iterations avoid
        reallocating the matrix/rhs buffers every pass.
        """
        if stamper is None:
            stamper = self.make_stamper(dtype=float)
        else:
            stamper.reset()
        for device in self.devices:
            device.stamp_dc(stamper, voltages, temperature)
        if gmin > 0.0:
            stamper.add_gmin(gmin)
        return stamper

    def stamp_ac(self, omega: float, operating_point) -> Stamper:
        """Assemble the complex small-signal system at angular frequency ``omega``."""
        stamper = self.make_stamper(dtype=complex)
        for device in self.devices:
            device.stamp_ac(stamper, omega, operating_point)
        return stamper

    def init_transient_states(self, operating_point, temperature: float) -> dict[str, dict]:
        """Build every device's transient companion state from the DC solution."""
        self.ensure_indices()
        return {device.name: device.init_transient(operating_point, temperature)
                for device in self.devices}

    def stamp_transient(self, voltages: np.ndarray, states: dict[str, dict],
                        time: float, dt: float, method: str, temperature: float,
                        gmin: float = 0.0, stamper=None):
        """Assemble the companion-model system for one transient Newton iterate.

        The solver-owned ``time`` and ``method`` (``"be"``/``"trap"``) are
        injected into each device's state before stamping, per the transient
        contract in :mod:`repro.spice.devices.base`.  ``stamper`` (optional)
        is a previously created DC-style stamper to reset and restamp in
        place, like :meth:`stamp_dc`.
        """
        if stamper is None:
            stamper = self.make_stamper(dtype=float)
        else:
            stamper.reset()
        for device in self.devices:
            state = states[device.name]
            state["time"] = time
            state["method"] = method
            device.stamp_transient(stamper, voltages, state, dt, temperature)
        if gmin > 0.0:
            stamper.add_gmin(gmin)
        return stamper

    def commit_transient(self, voltages: np.ndarray, states: dict[str, dict],
                         dt: float, temperature: float) -> None:
        """Roll every device's companion state forward after an accepted step."""
        for device in self.devices:
            device.commit_transient(voltages, states[device.name], dt, temperature)

    def summary(self) -> dict[str, int]:
        """Device/node counts (useful in logs and tests)."""
        self.ensure_indices()
        kinds: dict[str, int] = {}
        for device in self.devices:
            kinds[type(device).__name__] = kinds.get(type(device).__name__, 0) + 1
        return {"n_devices": len(self.devices), "n_nodes": self.n_nodes,
                "n_branches": self.n_branches, **kinds}
