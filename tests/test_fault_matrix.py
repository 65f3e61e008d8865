"""The fault matrix: kill the engine at every failpoint, then prove that
``load_warehouse`` either recovers the last-good state or raises a typed
error — never silently returns wrong data.

The matrix walks every registered save/load/chunk-IO failpoint and, for
each, every hit index the operation reaches (``fail_after(n)`` for
``n = 1..hits``), simulating a crash at each distinct instruction
boundary the instrumentation can reach.  With ``REPRO_FAULTS=ci-matrix``
in the environment (the CI ``faults`` job) the per-failpoint hit cap is
removed; the default keeps local runs quick.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import (
    FaultInjectedError,
    ReproError,
    TransientFaultError,
    WarehouseCorruptionError,
    WarehouseFormatError,
)
from repro.faults import FAULTS, failpoint_names
from repro.io import load_warehouse, save_warehouse
from repro.mdx.budget import QueryBudget
from repro.olap.missing import is_missing
from repro.warehouse import Warehouse

SAVE_FAILPOINTS = tuple(
    name
    for name in failpoint_names()
    if name.startswith(("io.save.", "durability."))
)
LOAD_FAILPOINTS = tuple(
    name for name in failpoint_names() if name.startswith("io.load.")
)

#: Hit-index ceiling per failpoint; ci-matrix removes the cap so every
#: reachable crash boundary is exercised.
FULL_MATRIX = "ci-matrix" in os.environ.get("REPRO_FAULTS", "")
MAX_HITS = 10_000 if FULL_MATRIX else 6


def _failpoint_hits(failpoint: str, operation) -> int:
    """How many times ``operation`` crosses ``failpoint`` when healthy."""
    FAULTS.clear()
    FAULTS.fail_after(failpoint, 1_000_000)  # armed but never fires
    operation()
    hits = FAULTS._armed[failpoint].hits
    FAULTS.clear()
    return hits


def _assert_same_data(loaded: Warehouse, expected: Warehouse) -> None:
    assert loaded.cube.leaf_equal(expected.cube), "silently wrong data!"


@pytest.fixture
def warehouse(example) -> Warehouse:
    wh = Warehouse(example.schema, example.cube, name="Warehouse")
    wh.define_named_set("Changers", ["Joe"])
    return wh


@pytest.mark.parametrize("failpoint", SAVE_FAILPOINTS)
def test_crash_during_save_never_corrupts(failpoint, warehouse, tmp_path):
    """Kill a save at every reachable boundary of ``failpoint``; the store
    must always load back to the last successfully committed state."""
    root = tmp_path / "wh"
    save_warehouse(warehouse, root)  # generation 1: the last-good state

    hits = _failpoint_hits(failpoint, lambda: save_warehouse(warehouse, root))
    assert hits > 0, f"failpoint {failpoint} is never reached by save"
    exercised = 0
    for n in range(1, min(hits, MAX_HITS) + 1):
        FAULTS.clear()
        FAULTS.fail_after(failpoint, n)
        with pytest.raises(FaultInjectedError):
            save_warehouse(warehouse, root)
        FAULTS.clear()
        exercised += 1
        loaded = load_warehouse(root)  # recover (or raise typed — not here)
        _assert_same_data(loaded, warehouse)
        # Re-save cleanly so the next crash points at a fresh generation.
        save_warehouse(warehouse, root)
    assert exercised > 0


@pytest.mark.parametrize("failpoint", SAVE_FAILPOINTS)
def test_crash_on_first_ever_save(failpoint, warehouse, tmp_path):
    """A crash during the *first* save (no previous generation) must leave
    either a loadable store or a typed error — never silent corruption."""
    hits = _failpoint_hits(
        failpoint, lambda: save_warehouse(warehouse, tmp_path / "probe")
    )
    for n in range(1, min(hits, MAX_HITS) + 1):
        root = tmp_path / f"wh-{failpoint}-{n}"
        FAULTS.clear()
        FAULTS.fail_after(failpoint, n)
        with pytest.raises(FaultInjectedError):
            save_warehouse(warehouse, root)
        FAULTS.clear()
        try:
            loaded = load_warehouse(root)
        except (WarehouseFormatError, WarehouseCorruptionError):
            continue  # typed refusal is an allowed outcome
        _assert_same_data(loaded, warehouse)


@pytest.mark.parametrize("failpoint", LOAD_FAILPOINTS)
def test_crash_during_load_is_typed(failpoint, warehouse, tmp_path):
    """A fault while loading surfaces as the injected error (typed), and
    a subsequent clean load still succeeds — loads never mutate the store
    destructively."""
    root = save_warehouse(warehouse, tmp_path / "wh")
    hits = _failpoint_hits(failpoint, lambda: load_warehouse(root))
    assert hits > 0, f"failpoint {failpoint} is never reached by load"
    for n in range(1, min(hits, MAX_HITS) + 1):
        FAULTS.clear()
        FAULTS.fail_after(failpoint, n)
        with pytest.raises(ReproError):
            load_warehouse(root)
        FAULTS.clear()
        _assert_same_data(load_warehouse(root), warehouse)


def test_transient_save_faults_are_absorbed(warehouse, tmp_path):
    """Transient write faults retry with backoff and the save completes."""
    FAULTS.fail_transient("durability.write", times=2)
    root = save_warehouse(warehouse, tmp_path / "wh")
    _assert_same_data(load_warehouse(root), warehouse)


def test_probabilistic_crash_schedule_never_corrupts(warehouse, tmp_path):
    """A randomized (seeded) crash schedule across many save attempts must
    never produce a store that loads silently wrong data."""
    root = tmp_path / "wh"
    save_warehouse(warehouse, root)
    seeds = range(24) if FULL_MATRIX else range(8)
    for seed in seeds:
        FAULTS.clear()
        FAULTS.fail_probabilistic("durability.rename", 0.4, seed=seed)
        try:
            save_warehouse(warehouse, root)
        except FaultInjectedError:
            pass
        FAULTS.clear()
        loaded = load_warehouse(root)
        _assert_same_data(loaded, warehouse)
        save_warehouse(warehouse, root)


def test_mdx_cell_fault_propagates(warehouse):
    FAULTS.fail_after("mdx.cell", 2)
    with pytest.raises(FaultInjectedError):
        warehouse.query(
            "SELECT {Time.[Jan], Time.[Feb]} ON COLUMNS FROM Warehouse"
        )


def test_mdx_transient_cell_fault_is_not_retried_inline(warehouse):
    """Cell evaluation does not retry: a transient fault there surfaces to
    the caller (retries live at the physical IO layer, not per-cell)."""
    FAULTS.fail_transient("mdx.cell", times=1)
    with pytest.raises(TransientFaultError):
        warehouse.query("SELECT {Time.[Jan]} ON COLUMNS FROM Warehouse")


class TestBudgetDegradation:
    """Acceptance: a budget breach returns a partial result with ⊥ cells
    and a non-empty degradations report — not an exception."""

    QUERY = """
        SELECT {Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]} ON COLUMNS,
               {[Joe]} ON ROWS
        FROM Warehouse WHERE ([NY], [Salary])
    """

    def test_cell_cap_yields_partial_result(self, warehouse):
        full = warehouse.query(self.QUERY)
        capped = warehouse.query(self.QUERY, budget=QueryBudget(max_cells=3))
        assert capped.is_partial
        assert [d.reason for d in capped.degradations] == ["cell-cap"]
        degradation = capped.degradations[0]
        assert degradation.cells_evaluated == 3
        assert degradation.cells_skipped > 0
        # Shape survives; the first three evaluated cells agree with the
        # unbudgeted run, everything after the cut is ⊥.
        assert len(capped.rows) * len(capped.columns) == (
            degradation.cells_evaluated + degradation.cells_skipped
        )
        flat_full = [v for row in full.cells for v in row]
        flat_capped = [v for row in capped.cells for v in row]
        for i, (f, c) in enumerate(zip(flat_full, flat_capped)):
            if i < 3:
                assert is_missing(f) == is_missing(c)
            else:
                assert is_missing(c)

    def test_zero_deadline_yields_partial_result(self, warehouse):
        result = warehouse.query(self.QUERY, budget=QueryBudget(deadline_ms=0))
        assert result.is_partial
        assert result.degradations[0].reason == "deadline"
        assert all(is_missing(v) for row in result.cells for v in row)
        assert result.degradations[0].cells_evaluated == 0

    def test_unlimited_budget_is_complete(self, warehouse):
        result = warehouse.query(self.QUERY, budget=QueryBudget())
        assert not result.is_partial
        assert result.degradations == []

    def test_partial_result_renders_with_note(self, warehouse):
        result = warehouse.query(self.QUERY, budget=QueryBudget(max_cells=1))
        assert "[partial:" in result.to_text()

    def test_degradation_is_structured(self, warehouse):
        result = warehouse.query(self.QUERY, budget=QueryBudget(max_cells=1))
        record = result.degradations[0].to_dict()
        assert record["reason"] == "cell-cap"
        assert record["cells_evaluated"] == 1

    def test_budget_breach_in_axis_filter_raises_typed(self, warehouse):
        from repro.errors import QueryBudgetExceededError

        query = """
            SELECT {Time.[Jan]} ON COLUMNS,
                   {Filter({[Lisa], [Sue]}, ([Salary]) > 0)} ON ROWS
            FROM Warehouse
        """
        with pytest.raises(QueryBudgetExceededError) as info:
            warehouse.query(query, budget=QueryBudget(max_cells=1))
        assert info.value.reason == "cell-cap"
