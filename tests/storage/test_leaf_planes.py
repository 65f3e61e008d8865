"""Leaf sourcing from the semantic dict: physical images and grids.

Covers the places leaf values feed a second layout or a result grid:

* :meth:`ChunkedCube.from_cube` (values equal the semantic dict),
* :func:`compute_group_bys_from_cube` (shared-scan over the cube's
  physical image, against one scan per group-by),
* the batch evaluator's leaf point reads, with and without a built
  rollup index.
"""

from __future__ import annotations

import numpy as np

from repro.olap.missing import MISSING, is_missing
from repro.storage.array_cube import ChunkedCube
from repro.storage.cube_compute import (
    compute_group_bys_from_cube,
    compute_group_bys_naive,
)
from repro.storage.lattice import all_group_bys


def _chunks(cube: ChunkedCube) -> dict:
    return {
        coord: cube.store.peek(coord) for coord in cube.store.stored_chunks()
    }


class TestFromCubePlanes:
    def test_plane_and_dict_builds_are_bit_identical(self, example):
        # from_cube reads the semantic dict whether or not the rollup
        # index's columnar planes exist: both builds match bit for bit.
        before = ChunkedCube.from_cube(example.cube)
        example.cube.rollup_index()  # make sure the planes exist
        after = ChunkedCube.from_cube(example.cube)
        assert [a.name for a in after.axes] == [a.name for a in before.axes]
        assert [a.labels for a in after.axes] == [
            a.labels for a in before.axes
        ]
        after_chunks = _chunks(after)
        before_chunks = _chunks(before)
        assert sorted(after_chunks) == sorted(before_chunks)
        for coord, data in after_chunks.items():
            np.testing.assert_array_equal(data, before_chunks[coord])

    def test_plane_build_without_prebuilt_index(self, example):
        # from_cube reads the semantic dict: it builds no index, and the
        # physical image matches the dict cell for cell, bit for bit.
        image = ChunkedCube.from_cube(example.cube)
        assert not example.cube.has_rollup_index
        for address, value in example.cube.leaf_cells():
            assert repr(image.value(address)) == repr(value), address


class TestComputeGroupBysFromCube:
    def test_matches_dict_sourced_shared_scan(self, example):
        group_bys = all_group_bys(example.cube.schema.n_dims)
        results, image = compute_group_bys_from_cube(example.cube, group_bys)
        baseline = compute_group_bys_naive(image.store, group_bys)
        assert sorted(results) == sorted(baseline)
        for dims, result in results.items():
            np.testing.assert_array_equal(result.data, baseline[dims].data)

    def test_returns_reusable_physical_image(self, example):
        _, image = compute_group_bys_from_cube(example.cube, [(0,)])
        assert isinstance(image, ChunkedCube)
        for address, value in example.cube.leaf_cells():
            assert image.value(address) == value


class TestBatchLeafReads:
    QUERY = (
        "SELECT {Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]} ON COLUMNS, "
        "{[Organization].Members} ON ROWS "
        "FROM Warehouse WHERE ([NY], [Salary])"
    )

    def test_grid_identical_with_and_without_index(self, example):
        from repro.warehouse import Warehouse

        warehouse = Warehouse(example.schema, example.cube, name="Warehouse")
        before = warehouse.query(self.QUERY)
        example.cube.rollup_index()
        assert example.cube.has_rollup_index
        after = warehouse.query(self.QUERY)
        assert after.rows == before.rows
        assert repr(after.cells) == repr(before.cells)
        assert any(
            not is_missing(v) and v is not MISSING
            for row in after.cells
            for v in row
        )
