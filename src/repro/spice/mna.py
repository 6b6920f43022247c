"""Modified-nodal-analysis system assembly.

The MNA unknown vector is ``[node voltages (excluding ground), branch
currents]``.  Devices stamp conductances between node pairs, current
injections into nodes and branch equations through a :class:`Stamper`, which
transparently ignores the ground node (index ``-1``).

Four stamper implementations share one stamping vocabulary:

* :class:`Stamper` -- one dense ``(size, size)`` system (the classic path);
* :class:`BatchStamper` -- ``B`` topology-identical systems as one
  ``(B, size, size)`` tensor, filled by the vectorized ``stamp_dc_batch``
  device contract (scalar *or* ``(B,)``-valued stamps) and solved with one
  stacked LAPACK call;
* :class:`SparseStamper` -- triplet assembly reduced to CSR and factorised
  with SuperLU (:func:`scipy.sparse.linalg.splu`), for circuits past the
  dense ceiling;
* :class:`SparseBatchStamper` -- the batched sparse path: one shared
  symbolic pattern (the topology is identical across the batch) with
  ``(B,)``-wide triplet values, factorised per design.  After the first
  assembly the stamper *locks* its triplet pattern: subsequent
  ``reset()``/restamp cycles (Newton iterations, transient steps) reuse the
  frozen position arrays, the lexsort/deduplication analysis and the
  CSR->CSC conversion mapping instead of rebuilding them, so only the
  numeric factorisation is repeated per design.

Bit-identity contract: for a fixed solver (dense or sparse), the batched
stampers accumulate exactly the same additions in exactly the same order as
their serial counterpart does per design, and the solves are per-slice
bit-identical to the serial solves -- so batched Newton reproduces serial
Newton bit for bit (see ``tests/test_batched.py``).
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised through the sparse-path tests
    from scipy.sparse import csc_matrix as _csc_matrix
    from scipy.sparse import csr_matrix as _csr_matrix
    from scipy.sparse.linalg import splu as _splu
    HAVE_SCIPY_SPARSE = True
except ImportError:  # pragma: no cover - the image bakes scipy in
    _csc_matrix = None
    _csr_matrix = None
    _splu = None
    HAVE_SCIPY_SPARSE = False

#: System size (nodes + branches) at and above which the ``"auto"`` solver
#: switches DC Newton assembly/solves from the dense ``(size, size)`` path to
#: the CSR + SuperLU path.  The crossover is generous: MNA systems are
#: extremely sparse (a handful of entries per row), but SuperLU's per-solve
#: constant only beats dense LAPACK once the dense factorisation's O(n^3)
#: actually bites.
SPARSE_SIZE_THRESHOLD = 200


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
        self.matrix[row, col] += value

    def add_rhs(self, row: int, value) -> None:
        if row < 0:
            return
        self.rhs[row] += value

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
    slot of all ``B`` systems at once.  Devices that do not implement the
    vectorized contract are handled by :meth:`stamp_device_serial`, which
    stamps each design through a per-design :class:`Stamper` view into this
    tensor -- identical accumulation order, so the fallback stays
    bit-identical to serial assembly.
    """

    def __init__(self, batch_size: int, n_nodes: int, n_branches: int, dtype=float):
        size = n_nodes + n_branches
        self.batch_size = int(batch_size)
        self.n_nodes = int(n_nodes)
        self.n_branches = int(n_branches)
        self.matrix = np.zeros((self.batch_size, size, size), dtype=dtype)
        self.rhs = np.zeros((self.batch_size, size), dtype=dtype)
        self._diagonal = np.arange(self.n_nodes)
        self._views: list[Stamper] | None = None

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
    # per-design fallback                                                 #
    # ------------------------------------------------------------------ #
    def design_view(self, index: int) -> Stamper:
        """A :class:`Stamper` whose matrix/rhs are views of design ``index``."""
        if self._views is None:
            self._views = [Stamper(self.n_nodes, self.n_branches,
                                   matrix=self.matrix[b], rhs=self.rhs[b])
                           for b in range(self.batch_size)]
        return self._views[index]

    def stamp_device_serial(self, siblings, voltages: np.ndarray,
                            temperatures: np.ndarray) -> None:
        """Per-design fallback for devices without a vectorized DC stamp."""
        for b, device in enumerate(siblings):
            device.stamp_dc(self.design_view(b), voltages[b],
                            float(temperatures[b]))

    def stamp_device_transient_serial(self, siblings, voltages: np.ndarray,
                                      states, dts: np.ndarray,
                                      temperatures: np.ndarray) -> None:
        """Per-design fallback for devices without a vectorized transient stamp.

        ``states[b]`` is design ``b``'s mutable state dict for this device;
        the transient driver has already injected the reserved ``"time"`` and
        ``"method"`` keys for the step being attempted.
        """
        for b, device in enumerate(siblings):
            device.stamp_transient(self.design_view(b), voltages[b],
                                   states[b], float(dts[b]),
                                   float(temperatures[b]))

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


# --------------------------------------------------------------------- #
# sparse assembly                                                        #
# --------------------------------------------------------------------- #
def _require_scipy() -> None:
    if not HAVE_SCIPY_SPARSE:  # pragma: no cover - scipy ships in the image
        raise RuntimeError("the sparse MNA path needs scipy.sparse; "
                           "install scipy or use solver='dense'")


def _csr_pattern(rows: np.ndarray, cols: np.ndarray, size: int):
    """Shared symbolic CSR pattern of a triplet list.

    Returns ``(order, starts, indices, indptr)``: ``order`` is the stable
    lexsort permutation by (row, col), ``starts`` marks the first triplet of
    each duplicate run (so ``np.add.reduceat(values[order], starts)`` sums
    duplicates in append order), and ``indices``/``indptr`` are the CSR
    column/row-pointer arrays of the deduplicated pattern.
    """
    order = np.lexsort((cols, rows))
    sorted_rows = rows[order]
    sorted_cols = cols[order]
    if sorted_rows.size == 0:
        starts = np.empty(0, dtype=np.intp)
        indices = np.empty(0, dtype=np.intp)
        indptr = np.zeros(size + 1, dtype=np.intp)
        return order, starts, indices, indptr
    new_slot = np.empty(sorted_rows.size, dtype=bool)
    new_slot[0] = True
    new_slot[1:] = ((sorted_rows[1:] != sorted_rows[:-1])
                    | (sorted_cols[1:] != sorted_cols[:-1]))
    starts = np.nonzero(new_slot)[0]
    indices = sorted_cols[starts]
    counts = np.bincount(sorted_rows[starts], minlength=size)
    indptr = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    return order, starts, indices, indptr


def _sparse_solve(values: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                  size: int, rhs: np.ndarray) -> np.ndarray:
    """SuperLU solve of one CSR system; LinAlgError on a singular factor."""
    _require_scipy()
    matrix = _csr_matrix((values, indices, indptr), shape=(size, size))
    try:
        factor = _splu(matrix.tocsc())
        return factor.solve(rhs)
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise np.linalg.LinAlgError(str(exc)) from exc


def _sparse_lstsq(values: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                  size: int, rhs: np.ndarray) -> np.ndarray:
    """Densified least-squares fallback (mirrors :meth:`Stamper.solve_lstsq`)."""
    _require_scipy()
    dense = _csr_matrix((values, indices, indptr), shape=(size, size)).toarray()
    solution, *_ = np.linalg.lstsq(dense, rhs, rcond=None)
    return solution


class SparseStamper(_StampOps):
    """Triplet-list MNA assembly solved via CSR + SuperLU.

    Same stamping interface as :class:`Stamper`; entries accumulate as
    (row, col, value) triplets and duplicates are summed in append order
    during CSR conversion, so the assembled numbers are reproducible (and
    shared bit-for-bit with :class:`SparseBatchStamper`, which uses the same
    pattern/reduce machinery).
    """

    def __init__(self, n_nodes: int, n_branches: int, dtype=float):
        _require_scipy()
        self.n_nodes = int(n_nodes)
        self.n_branches = int(n_branches)
        self.dtype = dtype
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []
        self.rhs = np.zeros(self.size, dtype=dtype)

    @property
    def size(self) -> int:
        return self.n_nodes + self.n_branches

    def reset(self) -> None:
        self.rows.clear()
        self.cols.clear()
        self.vals.clear()
        self.rhs[...] = 0

    # ------------------------------------------------------------------ #
    # element stamps                                                      #
    # ------------------------------------------------------------------ #
    def add_entry(self, row: int, col: int, value) -> None:
        if row < 0 or col < 0:
            return
        self.rows.append(row)
        self.cols.append(col)
        self.vals.append(value)

    def add_rhs(self, row: int, value) -> None:
        if row < 0:
            return
        self.rhs[row] += value

    def add_gmin(self, gmin: float) -> None:
        nodes = range(self.n_nodes)
        self.rows.extend(nodes)
        self.cols.extend(nodes)
        self.vals.extend([gmin] * self.n_nodes)

    # ------------------------------------------------------------------ #
    # solving                                                             #
    # ------------------------------------------------------------------ #
    def _csr(self):
        rows = np.asarray(self.rows, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        vals = np.asarray(self.vals, dtype=self.dtype)
        order, starts, indices, indptr = _csr_pattern(rows, cols, self.size)
        if starts.size:
            values = np.add.reduceat(vals[order], starts)
        else:
            values = np.empty(0, dtype=self.dtype)
        return values, indices, indptr

    def solve(self) -> np.ndarray:
        values, indices, indptr = self._csr()
        return _sparse_solve(values, indices, indptr, self.size, self.rhs)

    def solve_lstsq(self) -> np.ndarray:
        values, indices, indptr = self._csr()
        return _sparse_lstsq(values, indices, indptr, self.size, self.rhs)


class _SparseDesignView(_StampOps):
    """One design's serial-stamping view into a :class:`SparseBatchStamper`.

    The first design of a fallback pass *defines* the triplet positions; the
    remaining designs must visit the same (row, col) sequence -- guaranteed
    for topology-identical circuits, whose device stamping call sequences are
    value-independent -- and fill their column of each ``(B,)`` value array.
    """

    def __init__(self, parent: "SparseBatchStamper", index: int, base: int):
        self._parent = parent
        self._index = index
        self._cursor = base

    def add_entry(self, row: int, col: int, value) -> None:
        if row < 0 or col < 0:
            return
        position = self._cursor
        self._cursor += 1
        self._parent._design_entry(position, self._index, row, col, value)

    def add_rhs(self, row: int, value) -> None:
        if row < 0:
            return
        self._parent.rhs[self._index, row] += value


class SparseBatchStamper(_StampOps):
    """``B`` topology-identical sparse systems sharing one symbolic pattern.

    Vectorized stamps append one triplet carrying a ``(B,)`` value vector;
    the CSR pattern (lexsort + duplicate-run reduction) is computed once and
    shared across the batch, and each design's numeric factorisation runs on
    its own value column -- bit-identical to :class:`SparseStamper` on the
    same design, which uses the same machinery on 1-D values.

    Because Newton iterations (and transient steps) restamp the *same*
    device sequence with new values, the stamper locks its triplet pattern
    on the first :meth:`reset` after a completed assembly: the (row, col)
    position arrays freeze, the value store becomes one ``(n_triplets, B)``
    array that is zeroed instead of rebuilt, and the symbolic analysis
    (lexsort order, duplicate runs, CSR arrays, CSR->CSC conversion
    mapping) is computed once and reused by every later solve.  A stamp
    sequence that diverges from the locked pattern raises ``ValueError`` --
    topology-identical circuits never do.
    """

    def __init__(self, batch_size: int, n_nodes: int, n_branches: int):
        _require_scipy()
        self.batch_size = int(batch_size)
        self.n_nodes = int(n_nodes)
        self.n_branches = int(n_branches)
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.data: list[np.ndarray] = []
        self.rhs = np.zeros((self.batch_size, self.size))
        self._diagonal = np.arange(self.n_nodes)
        self._locked = False
        self._cursor = 0
        self._rows_arr: np.ndarray | None = None
        self._cols_arr: np.ndarray | None = None
        self._values: np.ndarray | None = None
        self._pattern_cache = None
        self._reduced_cache = None
        #: Restamps served by the locked pattern (telemetry; the symbolic
        #: analysis and triplet buffers were reused instead of rebuilt).
        self.pattern_reuse_hits = 0

    @property
    def size(self) -> int:
        return self.n_nodes + self.n_branches

    @property
    def pattern_locked(self) -> bool:
        """Whether the triplet pattern is frozen for buffer-reusing restamps."""
        return self._locked

    def reset(self) -> None:
        """Prepare for a restamp; locks the pattern after the first assembly."""
        if not self._locked and self._cursor > 0:
            self._rows_arr = np.asarray(self.rows, dtype=np.intp)
            self._cols_arr = np.asarray(self.cols, dtype=np.intp)
            self._values = np.array(self.data)  # (n_triplets, B)
            self.rows.clear()
            self.cols.clear()
            self.data.clear()
            self._locked = True
        if self._locked:
            self._values[...] = 0.0
            self.pattern_reuse_hits += 1
        self.rhs[...] = 0
        self._cursor = 0
        self._reduced_cache = None

    def _divergence(self, position: int, row: int, col: int) -> ValueError:
        if position >= self._rows_arr.size:
            return ValueError(
                "sparse batch stamps diverged from the locked pattern: "
                f"entry ({row}, {col}) lands past the {self._rows_arr.size} "
                "triplets of the first assembly; batched restamps require a "
                "value-independent stamping sequence")
        return ValueError(
            "sparse batch stamps diverged from the locked pattern: "
            f"entry ({row}, {col}) at position {position} where the first "
            f"assembly wrote ({int(self._rows_arr[position])}, "
            f"{int(self._cols_arr[position])}); batched restamps require a "
            "value-independent stamping sequence")

    # ------------------------------------------------------------------ #
    # element stamps                                                      #
    # ------------------------------------------------------------------ #
    def add_entry(self, row: int, col: int, values) -> None:
        if row < 0 or col < 0:
            return
        if self._locked:
            position = self._cursor
            if (position >= self._rows_arr.size
                    or self._rows_arr[position] != row
                    or self._cols_arr[position] != col):
                raise self._divergence(position, row, col)
            self._values[position] = values
            self._cursor = position + 1
            return
        self.rows.append(row)
        self.cols.append(col)
        column = np.empty(self.batch_size)
        column[:] = values
        self.data.append(column)
        self._cursor += 1

    def add_rhs(self, row: int, values) -> None:
        if row < 0:
            return
        self.rhs[:, row] += values

    def add_gmin(self, gmin: float) -> None:
        if self._locked:
            position = self._cursor
            end = position + self.n_nodes
            if (end > self._rows_arr.size
                    or not np.array_equal(self._rows_arr[position:end],
                                          self._diagonal)
                    or not np.array_equal(self._cols_arr[position:end],
                                          self._diagonal)):
                raise self._divergence(position, 0, 0)
            self._values[position:end] = gmin
            self._cursor = end
            return
        nodes = range(self.n_nodes)
        self.rows.extend(nodes)
        self.cols.extend(nodes)
        self.data.extend(np.full(self.batch_size, gmin)
                         for _ in range(self.n_nodes))
        self._cursor += self.n_nodes

    def _design_entry(self, position: int, index: int, row: int, col: int,
                      value) -> None:
        """One design's entry at a triplet ``position`` (fallback views)."""
        if self._locked:
            if (position >= self._rows_arr.size
                    or self._rows_arr[position] != row
                    or self._cols_arr[position] != col):
                raise self._divergence(position, row, col)
            self._values[position, index] += value
            return
        if index == 0:
            self.rows.append(row)
            self.cols.append(col)
            self.data.append(np.zeros(self.batch_size))
        elif self.rows[position] != row or self.cols[position] != col:
            raise ValueError(
                "per-design fallback stamps diverged across the batch: "
                f"design {index} wrote ({row}, {col}) where design 0 "
                f"wrote ({self.rows[position]}, {self.cols[position]}); "
                "batched assembly requires topology-identical circuits")
        self.data[position][index] += value

    # ------------------------------------------------------------------ #
    # per-design fallback                                                 #
    # ------------------------------------------------------------------ #
    def stamp_device_serial(self, siblings, voltages: np.ndarray,
                            temperatures: np.ndarray) -> None:
        """Per-design fallback for devices without a vectorized DC stamp."""
        base = self._cursor
        count = None
        for b, device in enumerate(siblings):
            view = _SparseDesignView(self, b, base)
            device.stamp_dc(view, voltages[b], float(temperatures[b]))
            written = view._cursor - base
            if count is None:
                count = written
            elif written != count:
                raise ValueError(
                    f"device {device.name!r} stamped {written} entries for "
                    f"design {b} but {count} for design 0; batched assembly "
                    "requires topology-identical circuits")
        self._cursor = base + (count or 0)

    def stamp_device_transient_serial(self, siblings, voltages: np.ndarray,
                                      states, dts: np.ndarray,
                                      temperatures: np.ndarray) -> None:
        """Per-design fallback for devices without a vectorized transient stamp."""
        base = self._cursor
        count = None
        for b, device in enumerate(siblings):
            view = _SparseDesignView(self, b, base)
            device.stamp_transient(view, voltages[b], states[b],
                                   float(dts[b]), float(temperatures[b]))
            written = view._cursor - base
            if count is None:
                count = written
            elif written != count:
                raise ValueError(
                    f"device {device.name!r} stamped {written} entries for "
                    f"design {b} but {count} for design 0; batched assembly "
                    "requires topology-identical circuits")
        self._cursor = base + (count or 0)

    # ------------------------------------------------------------------ #
    # solving                                                             #
    # ------------------------------------------------------------------ #
    def _pattern(self):
        """Shared symbolic analysis: CSR pattern + CSR->CSC value mapping.

        Computed once per locked pattern (or per assembly while unlocked)
        and reused by every design and every Newton iteration.  The CSC
        arrays come from an actual ``tocsc()`` call on an index-carrying
        matrix, so feeding ``values[csc_perm]`` into ``csc_matrix`` is
        bit-identical to converting each design's CSR matrix on the fly.
        """
        if self._pattern_cache is None:
            if self._locked:
                rows, cols = self._rows_arr, self._cols_arr
            else:
                rows = np.asarray(self.rows, dtype=np.intp)
                cols = np.asarray(self.cols, dtype=np.intp)
            order, starts, indices, indptr = _csr_pattern(rows, cols,
                                                          self.size)
            nnz = indices.size
            if nnz:
                mapping = _csr_matrix(
                    (np.arange(1, nnz + 1, dtype=np.int64), indices, indptr),
                    shape=(self.size, self.size)).tocsc()
                csc_perm = (mapping.data - 1).astype(np.intp)
                csc_indices = mapping.indices
                csc_indptr = mapping.indptr
            else:
                csc_perm = np.empty(0, dtype=np.intp)
                csc_indices = np.empty(0, dtype=np.int32)
                csc_indptr = np.zeros(self.size + 1, dtype=np.int32)
            self._pattern_cache = (order, starts, indices, indptr,
                                   csc_perm, csc_indices, csc_indptr)
        return self._pattern_cache

    def _csr(self):
        if self._reduced_cache is None:
            order, starts, indices, indptr, *_ = self._pattern()
            if self._locked:
                if self._cursor != self._rows_arr.size:
                    raise ValueError(
                        "sparse batch assembly is incomplete: "
                        f"{self._cursor} of {self._rows_arr.size} locked "
                        "triplets were restamped before solving")
                stacked = self._values
            else:
                stacked = np.asarray(self.data)  # (n_triplets, B)
            if starts.size:
                values = np.add.reduceat(stacked[order], starts, axis=0)
            else:
                values = np.empty((0, self.batch_size))
            self._reduced_cache = (values, indices, indptr)
        return self._reduced_cache

    def _solve_one(self, values_column: np.ndarray,
                   rhs_row: np.ndarray) -> np.ndarray:
        """Default SuperLU solve of one design through the cached CSC map."""
        *_, csc_perm, csc_indices, csc_indptr = self._pattern()
        matrix = _csc_matrix((values_column[csc_perm], csc_indices,
                              csc_indptr), shape=(self.size, self.size))
        try:
            return _splu(matrix).solve(rhs_row)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise np.linalg.LinAlgError(str(exc)) from exc

    def solve(self) -> np.ndarray:
        """Factorise and solve every design; ``(B, size)``.

        Raises :class:`numpy.linalg.LinAlgError` as soon as one design's
        factor is singular -- the caller then retries per design with its
        least-squares fallback, like the dense path.
        """
        values, _, _ = self._csr()
        out = np.empty((self.batch_size, self.size))
        for b in range(self.batch_size):
            out[b] = self._solve_one(values[:, b], self.rhs[b])
        return out

    def solve_design(self, index: int) -> np.ndarray:
        values, _, _ = self._csr()
        return self._solve_one(values[:, index], self.rhs[index])

    def solve_lstsq_design(self, index: int) -> np.ndarray:
        values, indices, indptr = self._csr()
        return _sparse_lstsq(values[:, index], indices, indptr, self.size,
                             self.rhs[index])
