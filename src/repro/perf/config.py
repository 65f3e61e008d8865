"""Global toggle for the query-throughput engine.

The engine (rollup index + scenario cache + batched evaluation) is on by
default.  :func:`naive_mode` restores the pre-index behaviour — a full
leaf scan per derived cell and a fresh ``scenario.apply`` per query — and
exists for two consumers:

* the throughput benchmark, which measures the engine against the naive
  baseline in one process, and
* the equivalence property tests, which assert that both paths produce
  bit-identical results.

There is one reduction: the columnar kernel folds gathered value planes
in insertion-order id sequence and is **bit-identical** to the naive
scan (see :func:`repro.olap.aggregation.reduce_array`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["engine_enabled", "naive_mode"]

_ENGINE_ENABLED = True


def engine_enabled() -> bool:
    """Whether the rollup index / scenario cache / batched paths are on."""
    return _ENGINE_ENABLED


@contextmanager
def naive_mode() -> Iterator[None]:
    """Temporarily run with the pre-index naive evaluation paths."""
    global _ENGINE_ENABLED
    previous = _ENGINE_ENABLED
    _ENGINE_ENABLED = False
    try:
        yield
    finally:
        _ENGINE_ENABLED = previous
