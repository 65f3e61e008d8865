"""The catalog crash matrix: kill every mutating operation at every
reachable failpoint boundary, reopen, and prove the catalog lands on the
pre-op or the post-op state — never a torn one.

Mirrors ``tests/test_fault_matrix.py``: each registered failpoint on the
commit path (WAL append, apply, the atomic-write/checkpoint machinery) is
armed with ``fail_after(n)`` for every hit index the operation reaches.
With ``REPRO_FAULTS=ci-matrix`` (the CI ``faults`` job) the per-failpoint
hit cap is removed.
"""

from __future__ import annotations

import os

import pytest

from repro.catalog import ScenarioCatalog
from repro.catalog.model import decode_state, encode_state
from repro.errors import FaultInjectedError
from repro.faults import FAULTS
from repro.obs.metrics import METRICS

from tests.catalog.conftest import JOE, LISA

#: every failpoint a catalog commit can cross: the WAL append, the
#: apply window between append and install, and the durability layer the
#: delta files and checkpoints are written through
COMMIT_FAILPOINTS = (
    "catalog.journal.append",
    "catalog.apply",
    "durability.write",
    "durability.fsync",
    "durability.rename",
    "durability.commit",
)

FULL_MATRIX = "ci-matrix" in os.environ.get("REPRO_FAULTS", "")
MAX_HITS = 10_000 if FULL_MATRIX else 6

#: op name -> callable(catalog); each runs against the seeded catalog
#: (scenarios ``seed1`` = {JOE: 2.0} and ``seed2`` = {LISA: 3.0})
OPS = {
    "create": lambda cat: cat.create("probe", cells={JOE: 1.0}),
    "update": lambda cat: cat.update("seed1", {JOE: 5.0}),
    "fork": lambda cat: cat.fork("branch", "seed1"),
    "merge": lambda cat: cat.merge("seed2", into="seed1"),
    "drop": lambda cat: cat.drop("seed2"),
    "gc": lambda cat: cat.gc(),
}


def _seed(root, base) -> None:
    with ScenarioCatalog(root, base=base) as catalog:
        catalog.create("seed1", cells={JOE: 2.0})
        catalog.create("seed2", cells={LISA: 3.0})


def _snapshot(root, base) -> dict[str, str]:
    """Canonical bytes of every scenario after a clean reopen."""
    with ScenarioCatalog(root, base=base) as catalog:
        assert not catalog.recovery.lost
        return {
            name: encode_state(catalog.get_state(name))
            for name in sorted(info.name for info in catalog.list_scenarios())
        }


def _failpoint_hits(failpoint: str, root, base, op) -> int:
    FAULTS.clear()
    FAULTS.fail_after(failpoint, 1_000_000)  # armed but never fires
    with ScenarioCatalog(root, base=base) as catalog:
        op(catalog)
    hits = FAULTS._armed[failpoint].hits
    FAULTS.clear()
    return hits


def _assert_no_torn_files(root) -> None:
    """Every surviving delta file must decode to exactly its own bytes."""
    for path in sorted((root / "deltas").glob("*.json")):
        text = path.read_text(encoding="utf-8")
        state = decode_state(text, source=str(path))
        assert encode_state(state) == text, f"torn delta file {path}"


@pytest.mark.parametrize("failpoint", COMMIT_FAILPOINTS)
@pytest.mark.parametrize("op_name", sorted(OPS))
def test_kill_during_op_lands_pre_or_post(failpoint, op_name, base, tmp_path):
    op = OPS[op_name]
    probe_root = tmp_path / "probe"
    _seed(probe_root, base)
    hits = _failpoint_hits(failpoint, probe_root, base, op)
    if hits == 0:
        pytest.skip(f"{op_name} never crosses {failpoint}")
    # the pre-op and post-op reference states, from clean twins
    pre_root = tmp_path / "pre"
    _seed(pre_root, base)
    pre = _snapshot(pre_root, base)
    post_root = tmp_path / "post"
    _seed(post_root, base)
    with ScenarioCatalog(post_root, base=base) as catalog:
        op(catalog)
    post = _snapshot(post_root, base)

    for n in range(1, min(hits, MAX_HITS) + 1):
        root = tmp_path / f"kill-{n}"
        _seed(root, base)
        FAULTS.clear()
        FAULTS.fail_after(failpoint, n)
        crashed = ScenarioCatalog(root, base=base)
        with pytest.raises(FaultInjectedError):
            op(crashed)
        # process death: the poisoned in-memory object is discarded
        crashed.close()
        FAULTS.clear()
        observed = _snapshot(root, base)
        assert observed in (pre, post), (
            f"{op_name} killed at {failpoint}:{n} left a torn state: "
            f"{sorted(observed)} vs pre={sorted(pre)} post={sorted(post)}"
        )
        _assert_no_torn_files(root)


def test_gc_checkpoint_crash_preserves_scenarios(base, tmp_path):
    """A kill anywhere inside the checkpoint (manifest commit + journal
    reset) must never lose a committed scenario."""
    for failpoint in ("durability.rename", "durability.commit"):
        hits_root = tmp_path / f"hits-{failpoint}"
        _seed(hits_root, base)
        hits = _failpoint_hits(failpoint, hits_root, base, lambda c: c.gc())
        for n in range(1, min(hits, MAX_HITS) + 1):
            root = tmp_path / f"gc-{failpoint}-{n}"
            _seed(root, base)
            FAULTS.clear()
            FAULTS.fail_after(failpoint, n)
            crashed = ScenarioCatalog(root, base=base)
            with pytest.raises(FaultInjectedError):
                crashed.gc()
            crashed.close()
            FAULTS.clear()
            observed = _snapshot(root, base)
            assert sorted(observed) == ["seed1", "seed2"]


def test_auto_checkpoint_crash_is_safe(base, tmp_path):
    """The checkpoint triggered *mid-commit* (interval reached) is covered
    by the same contract: kill it and nothing committed is lost."""
    root = tmp_path / "auto"
    with ScenarioCatalog(root, base=base, checkpoint_interval=3) as catalog:
        catalog.create("s0")
        catalog.create("s1")
    FAULTS.clear()
    FAULTS.fail_after("durability.rename", 1)
    crashed = ScenarioCatalog(root, base=base, checkpoint_interval=3)
    with pytest.raises(FaultInjectedError):
        crashed.create("s2")  # third commit trips the checkpoint
    crashed.close()
    FAULTS.clear()
    with ScenarioCatalog(root, base=base) as reopened:
        names = sorted(info.name for info in reopened.list_scenarios())
        # s2's WAL record landed before the checkpoint crashed, so the
        # post-op state is the only acceptable outcome here
        assert names == ["s0", "s1", "s2"]


def test_kill_during_recovery_is_typed_and_retryable(base, tmp_path):
    root = tmp_path / "cat"
    _seed(root, base)
    FAULTS.clear()
    FAULTS.fail_after("catalog.recover", 1)
    with pytest.raises(FaultInjectedError):
        ScenarioCatalog(root, base=base)
    FAULTS.clear()
    with ScenarioCatalog(root, base=base) as reopened:
        assert len(reopened) == 2  # a failed recovery is repeatable


def test_chunk_fork_failpoint_leaves_parent_intact():
    import numpy as np

    from repro.storage.chunk_store import ChunkStore
    from repro.storage.chunks import ChunkGrid

    grid = ChunkGrid([4], [2])
    store = ChunkStore(grid)
    store.load((0,), np.ones((2,)))
    FAULTS.clear()
    FAULTS.fail_after("chunk.fork", 1)
    with pytest.raises(FaultInjectedError):
        store.fork()
    FAULTS.clear()
    assert store.n_stored == 1
    assert store.read((0,))[0] == 1.0
    fork = store.fork()  # works once disarmed
    assert fork.is_fork


def test_recovery_metrics_account_outcomes(base, tmp_path):
    """``catalog_recoveries_total{outcome}`` moves on every open."""
    root = tmp_path / "cat"
    clean_before = METRICS.counter(
        "catalog_recoveries_total", outcome="clean"
    ).sample()
    replayed_before = METRICS.counter(
        "catalog_recoveries_total", outcome="replayed"
    ).sample()
    _seed(root, base)  # first open of an empty dir: clean
    with ScenarioCatalog(root, base=base):
        pass  # journal has records: replayed
    assert (
        METRICS.counter("catalog_recoveries_total", outcome="clean").sample()
        > clean_before
    )
    assert (
        METRICS.counter(
            "catalog_recoveries_total", outcome="replayed"
        ).sample()
        > replayed_before
    )
