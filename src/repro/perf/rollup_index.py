"""Rollup index over per-dimension coordinate-code columns.

The naive cost of a derived cell is one full scan of every leaf cell
(``Cube.scope_values``): for a result grid of N derived cells that is
O(N x leaves).  The :class:`RollupIndex` gives each leaf cell an integer
id and stores, per dimension, one ``int32`` **code column** (leaf id ->
code of its leaf coordinate).  Each dimension also maps every coordinate
to the leaf codes under it, filled from ``CubeSchema.ancestor_chain``
once per *distinct* leaf coordinate.  A coordinate's scope is then the
boolean mask ``lut[codes]`` over the id space, and a cell's scope is the
AND of its coordinates' masks.

Columnar kernel
---------------
Leaf *values* live in a
:class:`~repro.storage.array_cube.ColumnarLeafStore` — chunked contiguous
``float64`` planes where plane row == leaf id (both are assigned
monotonically in insertion order and never reused).  Every read comes
from these planes, never from the cube's dict, which ``Cube.set_value``
keeps in step by writing each insert and re-value through.  Aggregation
is ``np.flatnonzero`` of the scope mask, one fancy-indexed gather per
touched plane, then :func:`~repro.olap.aggregation.reduce_array`.

Determinism
-----------
Leaf ids are assigned in cube insertion order and scopes are served in
ascending id order, which is exactly the iteration order of the naive
``dict``-scan.  Floating-point aggregation order is therefore identical
on both paths, making indexed results bit-identical to naive results
(the equivalence property tests assert this).

Maintenance
-----------
The index is maintained *incrementally*: ``Cube.set_value`` notifies it
of leaf insertions (code row + plane row), deletions (dead code row +
plane liveness) and in-place value changes (plane write + rollup-memo
flush).  Bulk transforms (``copy``/``filter_dimension``/``map_leaf_cells``)
produce cubes without an index; it is rebuilt lazily on their first
derived read.
``Cube.frozen_copy`` instead *forks* the index: structure (id maps, code
columns, coordinate maps) is shared copy-on-write at whole-index
granularity — the live parent unshares before its first structural
mutation — while value planes share at plane granularity through
``ColumnarLeafStore.fork``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, TypeAlias

import numpy as np

from repro.lint.lockdep import make_lock
from repro.obs.trace import trace_span
from repro.olap.aggregation import reduce_array
from repro.olap.missing import Missing
from repro.storage.array_cube import ColumnarLeafStore
from repro.storage.io_stats import CacheStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.olap.cube import Cube
    from repro.olap.schema import CubeSchema

__all__ = ["RollupIndex"]

Address = tuple[str, ...]
CellValue: TypeAlias = "float | Missing"
#: (empty, mask) — the mask-based axis-plane scope served to the batched
#: grid evaluator; ``mask=None`` means "no constraint" (every leaf).
AxisScope: TypeAlias = "tuple[bool, np.ndarray | None]"
#: (size, mask) of one coordinate: ``mask=None`` when it covers every
#: live leaf (or none: ``size == 0``)
CoordScope: TypeAlias = "tuple[int, np.ndarray | None]"

#: soft cap on the per-index rollup memo (total entries across all
#: aggregator tables), to bound worst-case memory on long-lived cubes
#: queried at ever-changing addresses
_MEMO_CAP = 65536

#: the code of a deleted row; leaf coordinates are coded from 1
_DEAD = 0

_EMPTY_IDS = np.empty(0, dtype=np.int64)
#: the unconstrained axis scope
_ALL: AxisScope = (False, None)


class RollupIndex:
    """Per-dimension coordinate-code columns over leaf-cell ids.

    Thread-safety: one reentrant lock guards both incremental maintenance
    (id/code/plane mutation from ``Cube.set_value``) and the query paths
    that read code columns, cached scopes or the rollup memo.  Queries on
    *frozen* snapshot cubes never contend with maintenance (a frozen cube
    cannot mutate), so the lock there is uncontended overhead only; for a
    live cube it makes interleaved query/mutation safe.  The one
    sanctioned lock-free read is the memo probe through
    :meth:`memo_table` — a single dict ``get`` on a table that is only
    ever cleared in place (atomic under the GIL).
    """

    def __init__(self, schema: "CubeSchema", *, plane_size: "int | None" = None) -> None:
        self.schema = schema
        self._plane_size = plane_size
        self.stats = CacheStats()
        self._lock = make_lock("RollupIndex._lock")
        self._id_of: dict[Address, int] = {}
        #: leaf id -> address; a deleted id keeps its (dead) slot
        self._addr_of: list[Address] = []
        #: rows in use; the code columns may have spare capacity past it
        self._next_id = 0
        #: row ``d`` is dimension ``d``'s code column (leaf id -> code of
        #: its leaf coordinate, ``_DEAD`` once deleted)
        self._codes = np.zeros((schema.n_dims, 0), dtype=np.int32)
        #: per dimension: leaf coordinate -> code
        self._code_of: list[dict[str, int]] = [{} for _ in range(schema.n_dims)]
        #: per dimension: coordinate -> codes of the leaf coordinates
        #: under it (its ancestor-chain closure)
        self._under: list[dict[str, list[int]]] = [{} for _ in range(schema.n_dims)]
        # aggregator -> {address: value}; inner tables are cleared *in
        # place* on invalidation so refs handed out via memo_table() stay
        # live
        self._memo: dict[str, dict[Address, CellValue]] = {}
        self._memo_count = 0
        # -- columnar kernel state ------------------------------------------
        #: leaf values as chunked planes; plane row == leaf id
        self._values = (
            ColumnarLeafStore()
            if plane_size is None
            else ColumnarLeafStore(plane_size)
        )
        #: (dim_index, coord) -> scope; dropped wholesale on any structural
        #: change
        self._scope_of: dict[tuple[int, str], CoordScope] = {}
        #: True while structure (id maps, code columns, coordinate maps)
        #: is shared with a fork; the first structural mutation copies it
        self._struct_shared = False

    @classmethod
    def build(cls, cube: "Cube", *, plane_size: "int | None" = None) -> "RollupIndex":
        """One pass over a cube's leaf cells.  ``plane_size`` overrides the
        value-plane chunk size (tests use tiny planes to exercise
        multi-plane and sparse layouts at small scale)."""
        with trace_span("rollup_index.build") as span:
            index = cls(cube.schema, plane_size=plane_size)
            cells = cube._leaf_cells
            index._append_rows(list(cells), cells.values())
            index.stats.builds += 1
            if span is not None:
                span.set(leaves=index.n_leaves)
        return index

    # -- maintenance ------------------------------------------------------------

    def _append_rows(self, addrs: list[Address], values: Iterable[float]) -> None:  # reprolint: locked
        # callers either hold self._lock (add_leaf) or own the only
        # reference to a not-yet-published index (build).  Codes resolve
        # first, so an unknown member raises before any row is written;
        # a new leaf coordinate is coded under its ancestor chain once.
        block = []
        for i, (code_of, under) in enumerate(zip(self._code_of, self._under)):
            coords = [addr[i] for addr in addrs]
            for coord in dict.fromkeys(coords):
                if coord not in code_of:
                    chain = self.schema.ancestor_chain(i, coord)
                    code = code_of[coord] = len(code_of) + 1
                    for ancestor in chain:
                        under.setdefault(ancestor, []).append(code)
            block.append([code_of[coord] for coord in coords])
        start = self._next_id
        end = start + len(addrs)
        capacity = self._codes.shape[1]
        if end > capacity:
            self._codes = np.pad(self._codes, ((0, 0), (0, max(end, 2 * capacity) - capacity)))
        self._codes[:, start:end] = block
        self._id_of.update(zip(addrs, range(start, end)))
        self._addr_of.extend(addrs)
        for value in values:
            self._values.append(value)  # plane row == leaf id
        self._next_id = end

    def _unshare_structure(self) -> None:  # reprolint: locked
        # called under self._lock before any structural mutation
        if not self._struct_shared:
            return
        self._id_of = dict(self._id_of)
        self._addr_of = list(self._addr_of)
        self._codes = self._codes.copy()
        self._code_of = [dict(code_of) for code_of in self._code_of]
        self._under = [
            {coord: list(codes) for coord, codes in under.items()}
            for under in self._under
        ]
        self._struct_shared = False

    def add_leaf(self, addr: Address, value: float) -> None:
        """The leaf cell at ``addr`` was inserted or re-valued to
        ``value``: an insert appends a code row and a plane row; a
        re-value writes the existing plane row through (codes describe
        addresses, not values).  Either way the memo is flushed."""
        with self._lock:
            ident = self._id_of.get(addr)
            if ident is None:
                self._unshare_structure()
                self._scope_of.clear()  # cached scopes describe the old rows
                self._append_rows([addr], (value,))
            else:
                self._values.update(ident, value)
            self._flush_memo()

    def remove_leaf(self, addr: Address) -> None:
        """The leaf cell at ``addr`` was deleted: its code rows turn dead."""
        with self._lock:
            if addr not in self._id_of:
                return
            self._unshare_structure()
            self._scope_of.clear()
            ident = self._id_of.pop(addr)
            self._codes[:, ident] = _DEAD
            self._values.delete(ident)
            self._flush_memo()

    def _flush_memo(self) -> None:  # reprolint: locked
        for table in self._memo.values():
            table.clear()
        self._memo_count = 0

    # -- fork (snapshot copy-on-write) -------------------------------------------

    def fork(self) -> "RollupIndex":
        """A copy-on-write clone for a snapshot cube.

        Structure (id maps, code columns, coordinate maps) is shared until
        the *live* side's next structural mutation (the frozen clone never
        mutates); value planes share at plane granularity through
        :meth:`ColumnarLeafStore.fork`.
        """
        with self._lock:
            clone = RollupIndex(self.schema, plane_size=self._plane_size)
            clone._id_of = self._id_of
            clone._addr_of = self._addr_of
            clone._next_id = self._next_id
            clone._codes = self._codes
            clone._code_of = self._code_of
            clone._under = self._under
            clone._scope_of = dict(self._scope_of)
            clone._values = self._values.fork()
            clone._memo = {
                key: dict(table) for key, table in self._memo.items()
            }
            clone._memo_count = self._memo_count
            clone._struct_shared = True
            self._struct_shared = True
            return clone

    # -- memo -------------------------------------------------------------------

    def _memo_for(self, aggregator: str) -> dict[Address, CellValue]:  # reprolint: locked
        table = self._memo.get(aggregator)
        if table is None:
            table = {}
            self._memo[aggregator] = table
        return table

    def _memo_put(self, table: dict[Address, CellValue], address: Address, value: CellValue) -> None:  # reprolint: locked
        if self._memo_count >= _MEMO_CAP:
            self.stats.evictions += self._memo_count
            self._flush_memo()
        if address not in table:
            self._memo_count += 1
        table[address] = value

    def memo_table(self, aggregator: str = "sum") -> dict[Address, CellValue]:
        """The live memo table for ``aggregator``.  Invalidation clears it
        *in place*, so a held reference is always current: a lock-free
        ``table.get(addr)`` is either a fresh value or a miss, never a
        stale value.  Callers must treat it as read-only, and report the
        hits they serve from it through :meth:`record_hits`."""
        with self._lock:
            return self._memo_for(aggregator)

    def record_hits(self, count: int) -> None:
        """Add ``count`` lock-free :meth:`memo_table` hits to the stats."""
        if count:
            with self._lock:
                self.stats.hits += count

    # -- queries ----------------------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return len(self._id_of)

    def _coord_scope(self, dim_index: int, coord: str) -> CoordScope:  # reprolint: locked
        key = (dim_index, coord)
        scope = self._scope_of.get(key)
        if scope is None:
            under = self._under[dim_index].get(coord)
            if under is None:
                dimension = self.schema.dimensions[dim_index]
                if not self.schema.is_varying(dimension.name):
                    dimension.member(coord)  # raises MemberNotFoundError if unknown
                scope = (0, None)
            else:
                column = self._codes[dim_index, : self._next_id]
                if len(under) == 1:  # one leaf coordinate: one compare
                    mask = column == under[0]
                else:
                    lut = np.zeros(len(self._code_of[dim_index]) + 1, dtype=np.bool_)
                    lut[under] = True
                    mask = lut.take(column)
                size = int(np.count_nonzero(mask))
                covers_all = size == len(self._id_of)
                scope = (size, None if covers_all or not size else mask)
            self._scope_of[key] = scope
        return scope

    def scope_size(self, dim_index: int, coord: str) -> int:
        """Number of live leaves under ``coord`` on one dimension.

        An unknown member of a non-varying dimension raises
        :class:`~repro.errors.MemberNotFoundError`, matching the contract
        of the hierarchy lookup the naive scan performs.
        """
        with self._lock:
            return self._coord_scope(dim_index, coord)[0]

    def _scope_ids(self, row_scope: AxisScope, col_scope: AxisScope = _ALL) -> np.ndarray:  # reprolint: locked
        # ascending leaf ids of the intersection of two axis scopes
        (row_empty, row_mask), (col_empty, col_mask) = row_scope, col_scope
        if row_empty or col_empty:
            return _EMPTY_IDS
        if row_mask is None:
            row_mask, col_mask = col_mask, None
        if row_mask is None:  # every live leaf
            return np.flatnonzero(self._codes[0, : self._next_id] != _DEAD)
        return np.flatnonzero(row_mask if col_mask is None else row_mask & col_mask)

    def axis_scope(self, pairs: Sequence[tuple[int, str]]) -> AxisScope:
        """The scope of some ``(dim_index, coord)`` pairs, as a mask.

        Returns ``(empty, mask)``: ``empty=True`` means provably no leaf
        matches; otherwise the mask is a boolean vector over the id space
        (``None`` = no constraint, every leaf matches).  Masks are cached
        per coordinate and combined with ``&``, so a grid's row plane is
        one vector AND per row instead of a set intersection per cell.
        The returned mask may alias a cached one — callers must not
        mutate it.
        """
        with self._lock:
            combined: "np.ndarray | None" = None
            for dim_index, coord in pairs:
                size, mask = self._coord_scope(dim_index, coord)
                if not size:
                    return True, None
                if mask is not None:
                    combined = mask if combined is None else combined & mask
            return False, combined

    def rollup_axes(
        self,
        address: Address,
        row_scope: AxisScope,
        col_scope: AxisScope,
        aggregator: str = "sum",
    ) -> CellValue:
        """Aggregate the intersection of two :meth:`axis_scope` planes,
        memoised per (address, aggregator).  Ids resolve in ascending
        order (``np.flatnonzero``), so results are bit-identical to the
        naive scan."""
        with self._lock:
            table = self._memo_for(aggregator)
            if address in table:
                self.stats.hits += 1
                return table[address]
            self.stats.misses += 1
            ids = self._scope_ids(row_scope, col_scope)
            value = reduce_array(aggregator, self._values.gather(ids))
            self._memo_put(table, address, value)
            return value

    def iter_scope_cells(
        self, address: Sequence[str]
    ) -> Iterator[tuple[Address, float]]:
        """(address, value) of the leaf cells in a cell's scope, in
        insertion order."""
        # Materialise under the lock: a lazy generator would read codes
        # and values at the caller's pace, racing concurrent maintenance.
        with self._lock:
            ids = self._scope_ids(self.axis_scope(list(enumerate(address))))
            addr_of = self._addr_of
            cells = list(
                zip(
                    [addr_of[i] for i in ids.tolist()],
                    self._values.gather(ids).tolist(),
                )
            )
        yield from cells

    def rollup(self, address: Address, aggregator: str = "sum") -> CellValue:
        """Aggregate a cell's scope through the index, memoised per
        (address, aggregator) until the next leaf mutation."""
        with self._lock:
            table = self._memo_for(aggregator)
            if address in table:
                self.stats.hits += 1
                return table[address]
            scope = self.axis_scope(list(enumerate(address)))
            return self.rollup_axes(address, scope, _ALL, aggregator)

    # -- introspection ----------------------------------------------------------

    @property
    def plane_store(self) -> ColumnarLeafStore:
        """The columnar value planes (tests / bench introspection)."""
        return self._values

    def compact_planes(self, *, ceiling: "float | None" = None) -> int:
        """Re-encode cold low-density value planes as coordinate-sparse
        (see :func:`repro.core.compression.compress_plane`).  Returns the
        number of planes converted."""
        with self._lock:
            return self._values.compact(ceiling=ceiling)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [len(code_of) for code_of in self._code_of]
        return f"RollupIndex({len(self._id_of)} leaves, leaf codes/dim={sizes})"
