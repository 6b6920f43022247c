"""Modified-nodal-analysis system assembly.

The MNA unknown vector is ``[node voltages (excluding ground), branch
currents]``.  Devices stamp conductances between node pairs, current
injections into nodes and branch equations through a :class:`Stamper`, which
transparently ignores the ground node (index ``-1``).

Two dense stamper implementations share one stamping vocabulary:

* :class:`Stamper` -- one ``(size, size)`` system solved with LAPACK, filled
  through the scalar ``stamp_dc`` / ``stamp_transient`` / ``stamp_ac``
  device contract;
* :class:`BatchStamper` -- ``B`` topology-identical systems as one
  ``(B, size, size)`` tensor, filled by the vectorized ``stamp_dc_batch`` /
  ``stamp_transient_batch`` device contract (scalar *or* ``(B,)``-valued
  stamps) and solved with one stacked LAPACK call.

The DC and transient controllers always solve a :class:`BatchStamper`; a
batch of one is filled through a :class:`Stamper` view of its single design
(:meth:`BatchStamper.design_view`).  AC and noise analysis use
:class:`Stamper` directly.

Bit-identity contract: :class:`BatchStamper` accumulates exactly the same
additions in exactly the same order as :class:`Stamper` does per design, and
its stacked solve is per-slice bit-identical to a solve of each design
alone -- so a design's Newton iterates do not depend on the batch it is
solved in (see ``tests/test_batched.py``).
"""

from __future__ import annotations

import numpy as np


class _StampOps:
    """Composite stamps shared by every stamper, built on add_entry/add_rhs.

    Values may be scalars (serial stampers) or ``(B,)`` arrays (batch
    stampers); the element stamps below are agnostic.
    """

    def add_conductance(self, node_a: int, node_b: int, conductance) -> None:
        """Stamp a conductance between two nodes (standard 2x2 pattern)."""
        self.add_entry(node_a, node_a, conductance)
        self.add_entry(node_b, node_b, conductance)
        self.add_entry(node_a, node_b, -conductance)
        self.add_entry(node_b, node_a, -conductance)

    def add_current(self, node_from: int, node_to: int, current) -> None:
        """Stamp a current flowing from ``node_from`` to ``node_to``.

        Conventionally a current source pushing current into ``node_to``
        appears as ``+I`` on ``node_to`` and ``-I`` on ``node_from`` in the
        right-hand side.
        """
        self.add_rhs(node_from, -current)
        self.add_rhs(node_to, current)

    def add_transconductance(self, out_pos: int, out_neg: int,
                             ctrl_pos: int, ctrl_neg: int, gm) -> None:
        """Stamp a VCCS: current ``gm * (v_ctrl_pos - v_ctrl_neg)`` from out_pos to out_neg."""
        self.add_entry(out_pos, ctrl_pos, gm)
        self.add_entry(out_pos, ctrl_neg, -gm)
        self.add_entry(out_neg, ctrl_pos, -gm)
        self.add_entry(out_neg, ctrl_neg, gm)


class Stamper(_StampOps):
    """Accumulates device stamps into one dense MNA matrix and right-hand side.

    ``matrix``/``rhs`` may be supplied to wrap preallocated buffers (e.g. one
    design's slice of a :class:`BatchStamper`); callers passing buffers are
    responsible for zeroing them (:meth:`reset`).
    """

    def __init__(self, n_nodes: int, n_branches: int, dtype=float,
                 matrix: np.ndarray | None = None,
                 rhs: np.ndarray | None = None):
        size = n_nodes + n_branches
        self.n_nodes = int(n_nodes)
        self.n_branches = int(n_branches)
        self.matrix = np.zeros((size, size), dtype=dtype) if matrix is None else matrix
        self.rhs = np.zeros(size, dtype=dtype) if rhs is None else rhs
        self._diagonal = np.arange(self.n_nodes)
        # Real systems stamp through memoryviews of the same buffers: for
        # the Python-float and float64 values the scalar device contract
        # stamps, a Python addition is the same IEEE operation as numpy's,
        # at half the cost of boxing a numpy scalar per stamp.  (memoryview
        # cannot index complex buffers.)
        if self.matrix.dtype == np.float64:
            self._cells = memoryview(self.matrix)
            self._rhs_cells = memoryview(self.rhs)
        else:
            self._cells = self.matrix
            self._rhs_cells = self.rhs

    @property
    def size(self) -> int:
        return self.n_nodes + self.n_branches

    def reset(self) -> None:
        """Zero the system in place so the buffers can be restamped."""
        self.matrix[...] = 0
        self.rhs[...] = 0

    # ------------------------------------------------------------------ #
    # element stamps                                                      #
    # ------------------------------------------------------------------ #
    def add_entry(self, row: int, col: int, value) -> None:
        """Add ``value`` at (row, col); either index may be ground (-1)."""
        if row < 0 or col < 0:
            return
        self._cells[row, col] += value

    def add_rhs(self, row: int, value) -> None:
        if row < 0:
            return
        self._rhs_cells[row] += value

    # The scalar device contract stamps these two patterns most often, so
    # they add to the cells directly instead of through add_entry/add_rhs
    # (same additions, same order).
    def add_conductance(self, node_a: int, node_b: int, conductance) -> None:
        cells = self._cells
        if node_a >= 0:
            cells[node_a, node_a] += conductance
        if node_b >= 0:
            cells[node_b, node_b] += conductance
            if node_a >= 0:
                cells[node_a, node_b] += -conductance
                cells[node_b, node_a] += -conductance

    def add_current(self, node_from: int, node_to: int, current) -> None:
        rhs = self._rhs_cells
        if node_from >= 0:
            rhs[node_from] += -current
        if node_to >= 0:
            rhs[node_to] += current

    def add_gmin(self, gmin: float) -> None:
        """Add a small conductance from every node to ground (convergence aid)."""
        diagonal = self._diagonal
        self.matrix[diagonal, diagonal] += gmin

    # ------------------------------------------------------------------ #
    # solving                                                             #
    # ------------------------------------------------------------------ #
    def solve(self) -> np.ndarray:
        """Solve the assembled linear system."""
        return np.linalg.solve(self.matrix, self.rhs)

    def solve_lstsq(self) -> np.ndarray:
        """Least-squares fallback for singular systems (floating nodes)."""
        solution, *_ = np.linalg.lstsq(self.matrix, self.rhs, rcond=None)
        return solution


class BatchStamper(_StampOps):
    """``B`` topology-identical dense MNA systems as one ``(B, size, size)`` tensor.

    Stamp values may be scalars (identical across the batch) or ``(B,)``
    arrays (one value per design); every add lands on the same (row, col)
    slot of all ``B`` systems at once.  :meth:`design_view` exposes one
    design's slice as a :class:`Stamper` for the scalar device contract.
    """

    def __init__(self, batch_size: int, n_nodes: int, n_branches: int, dtype=float):
        size = n_nodes + n_branches
        self.batch_size = int(batch_size)
        self.n_nodes = int(n_nodes)
        self.n_branches = int(n_branches)
        self.matrix = np.zeros((self.batch_size, size, size), dtype=dtype)
        self.rhs = np.zeros((self.batch_size, size), dtype=dtype)
        self._diagonal = np.arange(self.n_nodes)

    @property
    def size(self) -> int:
        return self.n_nodes + self.n_branches

    def reset(self) -> None:
        self.matrix[...] = 0
        self.rhs[...] = 0

    # ------------------------------------------------------------------ #
    # element stamps                                                      #
    # ------------------------------------------------------------------ #
    def add_entry(self, row: int, col: int, values) -> None:
        """Add scalar or ``(B,)`` ``values`` at (row, col) across the batch."""
        if row < 0 or col < 0:
            return
        self.matrix[:, row, col] += values

    def add_rhs(self, row: int, values) -> None:
        if row < 0:
            return
        self.rhs[:, row] += values

    def add_gmin(self, gmin: float) -> None:
        diagonal = self._diagonal
        self.matrix[:, diagonal, diagonal] += gmin

    # ------------------------------------------------------------------ #
    # per-design view                                                     #
    # ------------------------------------------------------------------ #
    def design_view(self, index: int) -> Stamper:
        """A :class:`Stamper` whose matrix/rhs are views of design ``index``."""
        return Stamper(self.n_nodes, self.n_branches,
                       matrix=self.matrix[index], rhs=self.rhs[index])

    # ------------------------------------------------------------------ #
    # solving                                                             #
    # ------------------------------------------------------------------ #
    def solve(self) -> np.ndarray:
        """One stacked LAPACK solve of all ``B`` systems; ``(B, size)``.

        Per-slice bit-identical to :meth:`solve_design` on each design;
        raises :class:`numpy.linalg.LinAlgError` when *any* design's system
        is singular (the caller then falls back to per-design solves).
        """
        return np.linalg.solve(self.matrix, self.rhs[..., None])[..., 0]

    def solve_design(self, index: int) -> np.ndarray:
        return np.linalg.solve(self.matrix[index], self.rhs[index])

    def solve_lstsq_design(self, index: int) -> np.ndarray:
        solution, *_ = np.linalg.lstsq(self.matrix[index], self.rhs[index],
                                       rcond=None)
        return solution

