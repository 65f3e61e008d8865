"""Unit tests for the per-cube rollup index (repro.perf.rollup_index)."""

from __future__ import annotations

import gc
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import MemberNotFoundError
from repro.olap.aggregation import AGGREGATORS, aggregate
from repro.olap.cube import Cube
from repro.olap.missing import MISSING, is_missing
from repro.perf.batch import evaluate_grid
from repro.perf.config import naive_mode
from repro.perf.rollup_index import RollupIndex
from repro.workload.workforce import WorkforceConfig, build_workforce


def _all_addresses(schema):
    """Every addressable cell of a (small) schema, leaf and derived."""
    per_dim = []
    for i, dimension in enumerate(schema.dimensions):
        coords = [
            m.name for m in dimension.root.descendants(include_self=True)
        ]
        if schema.is_varying(dimension.name):
            varying = schema.varying_dimension(dimension.name)
            leaf_paths = [
                instance.full_path
                for member in dimension.root.leaves()
                for instance in varying.instances_of(member.name)
            ]
            coords = [
                c for c in coords if not schema.coordinate_is_leaf(i, c)
            ] + leaf_paths
        per_dim.append(coords)
    addresses = [()]
    for coords in per_dim:
        addresses = [a + (c,) for a in addresses for c in coords]
    return addresses


def _naive_rollup(cube, addr, aggregator):
    with naive_mode():
        return cube.rollup(addr, aggregator)


class TestAgreementWithNaive:
    def test_every_address_every_aggregator(self, example):
        cube = example.cube
        for addr in _all_addresses(cube.schema):
            for aggregator in AGGREGATORS:
                indexed = cube.rollup_index().rollup(addr, aggregator)
                naive = _naive_rollup(cube, addr, aggregator)
                assert indexed == naive or (
                    is_missing(indexed) and is_missing(naive)
                ), (addr, aggregator)

    def test_sum_is_bit_identical(self, example):
        """Same leaf visit order => same float summation order."""
        cube = example.cube
        for addr in _all_addresses(cube.schema):
            indexed = cube.rollup(addr)
            naive = _naive_rollup(cube, addr, "sum")
            if is_missing(indexed):
                assert is_missing(naive)
            else:
                assert indexed == naive
                assert repr(indexed) == repr(naive)

    def test_scope_cells_match_naive_order(self, example):
        cube = example.cube
        for addr in _all_addresses(cube.schema):
            indexed = list(cube.scope_cells(addr))
            with naive_mode():
                naive = list(cube.scope_cells(addr))
            assert indexed == naive


class TestIncrementalMaintenance:
    def _assert_consistent(self, cube):
        rebuilt = RollupIndex.build(cube)
        live = cube.rollup_index()
        for addr in _all_addresses(cube.schema):
            assert list(live.iter_scope_cells(addr)) == list(
                rebuilt.iter_scope_cells(addr)
            ), addr

    def test_add_then_remove_leaf(self, example):
        cube = example.cube
        cube.rollup_index()  # build before mutating
        addr = cube.schema.address(
            Organization="Organization/FTE/Lisa",
            Location="MA",
            Time="Feb",
            Measures="Benefits",
        )
        cube.set_value(addr, 123.0)
        self._assert_consistent(cube)
        cube.set_value(addr, MISSING)
        self._assert_consistent(cube)

    def test_revalue_in_place_updates_rollups(self, example):
        cube = example.cube
        addr, old = next(iter(cube.leaf_cells()))
        parent = tuple(
            cube.schema.dimensions[i].root.name for i in range(cube.schema.n_dims)
        )
        before = cube.rollup(parent)
        cube.set_value(addr, old + 5.0)
        after = cube.rollup(parent)
        assert after == _naive_rollup(cube, parent, "sum")
        assert after != before

    def test_delete_missing_cell_is_noop(self, example):
        cube = example.cube
        version = cube.version
        cube.set_value(
            cube.schema.address(
                Organization="Organization/FTE/Lisa",
                Location="MA",
                Time="Feb",
                Measures="Benefits",
            ),
            MISSING,
        )
        assert cube.version == version

    def test_copy_is_isolated(self, example):
        cube = example.cube
        clone = cube.copy()
        addr, old = next(iter(clone.leaf_cells()))
        clone.set_value(addr, old + 100.0)
        parent = tuple(
            d.root.name for d in cube.schema.dimensions
        )
        assert cube.rollup(parent) == _naive_rollup(cube, parent, "sum")
        assert clone.rollup(parent) == _naive_rollup(clone, parent, "sum")
        assert clone.rollup(parent) != cube.rollup(parent)


class TestContracts:
    def test_unknown_member_raises_like_naive(self, example):
        cube = example.cube
        bad = cube.schema.address(
            Organization="FTE", Location="Nowhere", Time="Jan",
            Measures="Salary",
        )
        with pytest.raises(MemberNotFoundError):
            cube.rollup(bad)
        with naive_mode(), pytest.raises(MemberNotFoundError):
            cube.rollup(bad)

    def test_empty_cube_rollup_is_missing(self, tiny_schema):
        cube = Cube(tiny_schema)
        root = tuple(d.root.name for d in tiny_schema.dimensions)
        assert is_missing(cube.rollup(root))

    def test_memo_counts_hits(self, example):
        cube = example.cube
        index = cube.rollup_index()
        root = tuple(d.root.name for d in cube.schema.dimensions)
        index.rollup(root)
        misses = index.stats.misses
        hits = index.stats.hits
        index.rollup(root)
        assert index.stats.hits == hits + 1
        assert index.stats.misses == misses

    def test_warm_grid_counts_each_memo_hit_once(self, tiny_cube):
        """The batch evaluator's lock-free memo probes are all counted:
        a warm grid raises ``stats.hits`` by exactly its memo-served
        cells and records no miss."""
        schema = tiny_cube.schema

        def axis(dim):
            root = schema.dimension(dim).root
            return [
                SimpleNamespace(coordinates=((dim, m.name),))
                for m in root.descendants(include_self=True)
            ]

        base = {d.name: d.root.name for d in schema.dimensions}
        rows, columns = axis("Time"), axis("Measures")
        args = (schema, base, rows, columns, None, "mdx.cell")
        cold, _, _ = evaluate_grid(tiny_cube, *args)
        index = tiny_cube.rollup_index()
        hits, misses = index.stats.hits, index.stats.misses
        warm, _, stats = evaluate_grid(tiny_cube, *args)
        assert repr(warm) == repr(cold)
        assert stats["indexed_rollups"] > 0
        assert index.stats.hits - hits == stats["indexed_rollups"]
        assert index.stats.misses == misses

    def test_concurrent_warm_grids_lose_no_hits(self, tiny_cube):
        """Threads sharing one index (as QueryService workers share a
        snapshot's) must not lose memo-hit increments."""
        schema = tiny_cube.schema
        base = {d.name: d.root.name for d in schema.dimensions}
        rows = [
            SimpleNamespace(coordinates=(("Time", m.name),))
            for m in schema.dimension("Time").root.descendants(include_self=True)
        ]
        columns = [SimpleNamespace(coordinates=(("Measures", "Measures"),))]
        args = (schema, base, rows, columns, None, "mdx.cell")
        evaluate_grid(tiny_cube, *args)  # warm the memo
        index = tiny_cube.rollup_index()
        hits = index.stats.hits
        served = []

        def worker():
            for _ in range(200):
                served.append(evaluate_grid(tiny_cube, *args)[2]["indexed_rollups"])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(served) == 800
        assert index.stats.hits - hits == sum(served)

    def test_mutation_flushes_memo(self, example):
        cube = example.cube
        root = tuple(d.root.name for d in cube.schema.dimensions)
        before = cube.rollup(root)
        addr, old = next(iter(cube.leaf_cells()))
        cube.set_value(addr, old + 1.0)
        assert cube.rollup(root) == float(before) + 1.0


class TestPlaneScopes:
    """axis_scope/rollup_axes — the batched-grid API."""

    def test_partial_plus_combine_equals_full_scope(self, example):
        """Two axis scopes over a split of an address select exactly the
        address's scope, and roll up to the same value bit for bit."""
        cube = example.cube
        index = cube.rollup_index()
        leaf, value = next(iter(cube.leaf_cells()))
        for addr in _all_addresses(cube.schema):
            pairs = list(enumerate(addr))
            expected = [a for a, _ in index.iter_scope_cells(addr)]
            direct = index.rollup(addr)
            for split in range(len(pairs) + 1):
                row_scope = index.axis_scope(pairs[:split])
                col_scope = index.axis_scope(pairs[split:])
                (row_empty, row_mask), (col_empty, col_mask) = (
                    row_scope,
                    col_scope,
                )
                if row_empty or col_empty:
                    assert expected == [], (addr, split)
                else:
                    every = np.ones(index._next_id, dtype=np.bool_)
                    mask = every if row_mask is None else row_mask
                    mask = mask & (every if col_mask is None else col_mask)
                    ids = np.flatnonzero(mask).tolist()
                    assert [index._addr_of[i] for i in ids] == expected, (
                        addr,
                        split,
                    )
                cube.set_value(leaf, value)  # re-value: flushes the memo
                via_axes = index.rollup_axes(addr, row_scope, col_scope)
                assert repr(via_axes) == repr(direct), (addr, split)

    def test_rollup_scope_matches_rollup(self, example):
        """A whole-address axis scope against an unconstrained one rolls
        up like rollup() for every aggregator."""
        cube = example.cube
        index = cube.rollup_index()
        leaf, value = next(iter(cube.leaf_cells()))
        for addr in _all_addresses(cube.schema):
            scope = index.axis_scope(list(enumerate(addr)))
            for aggregator in AGGREGATORS:
                via_scope = index.rollup_axes(
                    addr, scope, index.axis_scope([]), aggregator
                )
                cube.set_value(leaf, value)  # re-value: flushes the memo
                direct = index.rollup(addr, aggregator)
                assert repr(via_scope) == repr(direct), (addr, aggregator)


class TestMemory:
    def test_build_retains_under_256_bytes_per_leaf(self):
        """Scopes are code columns, not per-leaf id sets: a build retains
        a few int columns, the value planes and the id map."""
        config = WorkforceConfig(n_employees=100, n_changing=10, n_accounts=10)
        cube = build_workforce(config).cube
        assert cube.n_leaf_cells >= 20_000
        cube.rollup_index()  # fills the schema's ancestor-chain memo
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = RollupIndex.build(cube)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert index.n_leaves == cube.n_leaf_cells
        assert retained / cube.n_leaf_cells < 256, retained


class TestStreamingAggregators:
    def test_agg_count_single_pass(self):
        values = iter([1.0, MISSING, 2.0, MISSING, 3.0])
        assert aggregate("count", values) == 3.0

    def test_all_missing(self):
        # count distinguishes "no cells seen" (⊥) from "cells seen, none
        # present" (0.0); the value aggregators are ⊥ either way.
        assert aggregate("count", iter([MISSING, MISSING])) == 0.0
        for name in ("sum", "avg", "min", "max"):
            assert is_missing(aggregate(name, iter([MISSING, MISSING])))

    def test_empty_is_missing(self):
        for name in AGGREGATORS:
            assert is_missing(aggregate(name, iter([])))
