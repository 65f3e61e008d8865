"""Single-pass rollup index with a vectorized columnar kernel.

The naive cost of a derived cell is one full scan of every leaf cell
(``Cube.scope_values``): for a result grid of N derived cells that is
O(N x leaves).  The :class:`RollupIndex` makes **one** pass over the leaf
cells, bucketing each leaf id under every coordinate of its per-dimension
ancestor chain (``CubeSchema.ancestor_chain``).  A scope query then
intersects the buckets of the queried coordinates and aggregates exactly
the |scope| matching leaves.

Columnar kernel
---------------
Leaf *values* live in a
:class:`~repro.storage.array_cube.ColumnarLeafStore` — chunked contiguous
``float64`` planes where plane row == leaf id (both are assigned
monotonically in insertion order and never reused).  The index is
self-contained: every read (rollups, scope cells) comes from these
planes, never from the cube's dict, which ``Cube.set_value`` keeps in
step by writing each insert and re-value through.  Coordinate buckets
are lowered on demand to cached **boolean masks** over the id space; a
scope is then ``mask & mask`` + ``np.flatnonzero`` (ascending ids ==
insertion order) and aggregation is one fancy-indexed gather per touched
plane followed by :func:`~repro.olap.aggregation.reduce_array`, whose
result is bit-identical to the naive dict scan.

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
of leaf insertions (bucket + plane row), deletions (bucket + plane
liveness) and in-place value changes (plane write + rollup-memo flush).
Bulk transforms (``copy``/``filter_dimension``/``map_leaf_cells``)
produce cubes without an index; it is rebuilt lazily on their first
derived read.
``Cube.frozen_copy`` instead *forks* the index: structure (buckets,
id maps) is shared copy-on-write at whole-index granularity — the live
parent unshares before its first structural mutation — while value
planes share at plane granularity through ``ColumnarLeafStore.fork``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Iterator, Sequence, TypeAlias

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

#: soft cap on the per-index rollup memo (total entries across all
#: aggregator tables), to bound worst-case memory on long-lived cubes
#: queried at ever-changing addresses
_MEMO_CAP = 65536

_EMPTY_IDS = np.empty(0, dtype=np.int64)


class RollupIndex:
    """Per-dimension inverted index from coordinates to leaf-cell ids.

    Thread-safety: one reentrant lock guards both incremental maintenance
    (bucket/id/plane mutation from ``Cube.set_value``) and the query paths
    that read buckets or the rollup memo — a reader intersecting a bucket
    set while a writer grows it raises ``set changed size during
    iteration``.  Queries on *frozen* snapshot cubes never contend with
    maintenance (a frozen cube cannot mutate), so the lock there is
    uncontended overhead only; for a live cube it makes interleaved
    query/mutation safe.  The one sanctioned lock-free read is the memo
    probe through :meth:`memo_table` — a single dict ``get`` on a table
    that is only ever cleared in place (atomic under the GIL).
    """

    def __init__(self, schema: "CubeSchema", *, plane_size: "int | None" = None) -> None:
        self.schema = schema
        self._plane_size = plane_size
        self.stats = CacheStats()
        self._lock = make_lock("RollupIndex._lock")
        self._id_of: dict[Address, int] = {}
        self._addr_of: dict[int, Address] = {}
        self._next_id = 0
        self._by_dim: list[dict[str, set[int]]] = [
            {} for _ in range(schema.n_dims)
        ]
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
        #: ascending live leaf ids (append-only between deletions: ids are
        #: assigned monotonically, so insertion keeps it sorted for free)
        self._ordered_ids: list[int] = []
        self._ordered_arr: "np.ndarray | None" = None
        #: (dim_index, coord) -> boolean mask over the id space; dropped
        #: wholesale on any structural change
        self._mask_of: dict[tuple[int, str], np.ndarray] = {}
        #: True while structure (id maps, buckets, ordered ids) is shared
        #: with a fork; the first structural mutation deep-copies it
        self._struct_shared = False

    @classmethod
    def build(cls, cube: "Cube", *, plane_size: "int | None" = None) -> "RollupIndex":
        """One pass over a cube's leaf cells.  ``plane_size`` overrides the
        value-plane chunk size (tests use tiny planes to exercise
        multi-plane and sparse layouts at small scale)."""
        with trace_span("rollup_index.build") as span:
            index = cls(cube.schema, plane_size=plane_size)
            for addr, value in cube._leaf_cells.items():
                index._insert(addr, value)
            index.stats.builds += 1
            if span is not None:
                span.set(leaves=index.n_leaves)
        return index

    # -- maintenance ------------------------------------------------------------

    def _insert(self, addr: Address, value: float) -> None:  # reprolint: locked
        # callers either hold self._lock (add_leaf) or own the only
        # reference to a not-yet-published index (build)
        ident = self._next_id
        self._next_id += 1
        self._id_of[addr] = ident
        self._addr_of[ident] = addr
        self._ordered_ids.append(ident)  # ids are monotonic: stays sorted
        self._values.append(value)  # plane row == ident by construction
        chain = self.schema.ancestor_chain
        for i, coord in enumerate(addr):
            buckets = self._by_dim[i]
            for ancestor in chain(i, coord):
                bucket = buckets.get(ancestor)
                if bucket is None:
                    buckets[ancestor] = {ident}
                else:
                    bucket.add(ident)

    def _unshare_structure(self) -> None:  # reprolint: locked
        # called under self._lock before any structural mutation
        if not self._struct_shared:
            return
        self._id_of = dict(self._id_of)
        self._addr_of = dict(self._addr_of)
        self._by_dim = [
            {coord: set(bucket) for coord, bucket in buckets.items()}
            for buckets in self._by_dim
        ]
        self._ordered_ids = list(self._ordered_ids)
        self._struct_shared = False

    def _structural_change(self) -> None:  # reprolint: locked
        # mask + ordered-array caches describe the old id space
        self._mask_of.clear()
        self._ordered_arr = None

    def add_leaf(self, addr: Address, value: float) -> None:
        """The leaf cell at ``addr`` was inserted or re-valued to
        ``value``: an insert buckets a new id and appends its plane row; a
        re-value writes the existing row through (buckets store
        addresses, not values).  Either way the memo is flushed."""
        with self._lock:
            ident = self._id_of.get(addr)
            if ident is None:
                self._unshare_structure()
                self._structural_change()
                self._insert(addr, value)
            else:
                self._values.update(ident, value)
            self._flush_memo()

    def remove_leaf(self, addr: Address) -> None:
        """The leaf cell at ``addr`` was deleted."""
        with self._lock:
            if addr not in self._id_of:
                return
            self._unshare_structure()
            self._structural_change()
            ident = self._id_of.pop(addr)
            del self._addr_of[ident]
            del self._ordered_ids[bisect_left(self._ordered_ids, ident)]
            self._values.delete(ident)
            chain = self.schema.ancestor_chain
            for i, coord in enumerate(addr):
                buckets = self._by_dim[i]
                for ancestor in chain(i, coord):
                    bucket = buckets.get(ancestor)
                    if bucket is not None:
                        bucket.discard(ident)
                        if not bucket:
                            del buckets[ancestor]
            self._flush_memo()

    def _flush_memo(self) -> None:  # reprolint: locked
        for table in self._memo.values():
            table.clear()
        self._memo_count = 0

    # -- fork (snapshot copy-on-write) -------------------------------------------

    def fork(self) -> "RollupIndex":
        """A copy-on-write clone for a snapshot cube.

        Structure (id maps, buckets, ordered ids) is shared until the
        *live* side's next structural mutation (the frozen clone never
        mutates); value planes share at plane granularity through
        :meth:`ColumnarLeafStore.fork`.
        """
        with self._lock:
            clone = RollupIndex(self.schema, plane_size=self._plane_size)
            clone._id_of = self._id_of
            clone._addr_of = self._addr_of
            clone._next_id = self._next_id
            clone._by_dim = self._by_dim
            clone._ordered_ids = self._ordered_ids
            clone._ordered_arr = self._ordered_arr
            clone._mask_of = dict(self._mask_of)
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

    def candidates(self, dim_index: int, coord: str) -> "set[int] | None":
        """Leaf ids under ``coord`` on one dimension; None when empty.

        An unknown member of a non-varying dimension raises
        :class:`~repro.errors.MemberNotFoundError`, matching the contract
        of the hierarchy lookup the naive scan performs.
        """
        bucket = self._by_dim[dim_index].get(coord)
        if bucket is not None:
            return bucket
        dimension = self.schema.dimensions[dim_index]
        if not self.schema.is_varying(dimension.name):
            dimension.member(coord)  # raises MemberNotFoundError if unknown
        return None

    def _ordered_array(self) -> np.ndarray:  # reprolint: locked
        arr = self._ordered_arr
        if arr is None:
            arr = np.array(self._ordered_ids, dtype=np.int64)
            self._ordered_arr = arr
        return arr

    def _coord_mask(self, dim_index: int, coord: str) -> np.ndarray:  # reprolint: locked
        # under self._lock; bucket is known non-empty and constraining
        key = (dim_index, coord)
        mask = self._mask_of.get(key)
        if mask is None:
            bucket = self._by_dim[dim_index][coord]
            mask = np.zeros(self._next_id, dtype=np.bool_)
            mask[np.fromiter(bucket, dtype=np.int64, count=len(bucket))] = True
            self._mask_of[key] = mask
        return mask

    def _scope_ids_array(self, address: Sequence[str]) -> np.ndarray:
        # under self._lock: ascending leaf ids of a full-address scope
        empty, mask = self.axis_scope(list(enumerate(address)))
        if empty:
            return _EMPTY_IDS
        if mask is None:
            return self._ordered_array()
        return np.flatnonzero(mask)

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
            n = len(self._id_of)
            if n == 0:
                return True, None
            combined: "np.ndarray | None" = None
            for dim_index, coord in pairs:
                bucket = self.candidates(dim_index, coord)
                if bucket is None:
                    return True, None
                if len(bucket) == n:
                    continue  # the coordinate covers every leaf
                mask = self._coord_mask(dim_index, coord)
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
            row_empty, row_mask = row_scope
            col_empty, col_mask = col_scope
            if row_empty or col_empty:
                ids = _EMPTY_IDS
            elif row_mask is None and col_mask is None:
                ids = self._ordered_array()
            elif row_mask is None:
                ids = np.flatnonzero(col_mask)
            elif col_mask is None:
                ids = np.flatnonzero(row_mask)
            else:
                ids = np.flatnonzero(row_mask & col_mask)
            value = reduce_array(aggregator, self._values.gather(ids))
            self._memo_put(table, address, value)
            return value

    def iter_scope_cells(
        self, address: Sequence[str]
    ) -> Iterator[tuple[Address, float]]:
        """(address, value) of the leaf cells in a cell's scope, in
        insertion order."""
        # Materialise under the lock: a lazy generator would read buckets
        # and values at the caller's pace, racing concurrent maintenance.
        with self._lock:
            ids = self._scope_ids_array(address)
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
            self.stats.misses += 1
            ids = self._scope_ids_array(address)
            value = reduce_array(aggregator, self._values.gather(ids))
            self._memo_put(table, address, value)
            return value

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
        sizes = [len(buckets) for buckets in self._by_dim]
        return f"RollupIndex({len(self._id_of)} leaves, buckets/dim={sizes})"
