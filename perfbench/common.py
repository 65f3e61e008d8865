"""Shared pieces of the layered what-if benchmark: the cube, statistics,
memory probes and grid comparison.

The cube is the ROADMAP baseline workforce cube (400 employees, 40 of
them changing departments, 10 accounts, 96,000 leaf cells), generated
from the run's ``--seed``; the smoke size is a ~2k-leaf cube of the same
shape for the benchmark's own tests.

Every reported time is scaled to a reference host speed (:class:`Speed`):
on a shared host the speed a process gets drifts by tens of percent
within minutes, and a fixed reference work timed between the requests
follows that drift, so the ratio of the two does not.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time

import numpy

from repro.bench.serve import full_config
from repro.olap.missing import is_missing
from repro.workload.workforce import MONTHS, WorkforceConfig, build_workforce

__all__ = [
    "MONTHS",
    "Speed",
    "build_cube",
    "cube_params",
    "grid_of",
    "median",
    "percentile",
    "pin_to_one_cpu",
    "process_peak_mib",
    "self_peak_mib",
    "tail",
]

#: candidate tail percentiles, highest first; the reported tail is the
#: highest one with at least TAIL_MIN_BEYOND samples above it
TAIL_LADDER = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10

SMOKE_WORKLOAD = {
    "n_employees": 48,
    "n_departments": 6,
    "n_changing": 8,
    "max_moves": 4,
    "n_accounts": 2,
}


def cube_params(seed: int, smoke: bool) -> dict:
    """WorkforceConfig keyword arguments for one run.

    Full size is ``repro.bench.serve.full_config()["workload"]`` with the
    run's seed; the seed picks the changing employees, their moves and
    every cell value, while the shape (96,000 leaves) stays fixed.
    """
    params = dict(SMOKE_WORKLOAD if smoke else full_config()["workload"])
    params["seed"] = seed
    return params


def build_cube(params: dict):
    """Build the workforce warehouse and its base rollup index; returns
    ``(workforce, cpu_seconds)``."""
    started = time.process_time()
    workforce = build_workforce(WorkforceConfig(**params))
    workforce.cube.rollup_index()
    return workforce, time.process_time() - started


# -- host speed ---------------------------------------------------------------

#: CPU milliseconds each reference work takes at the reference speed (a
#: 2.1 GHz core of the 2-core VM the bounds were set on, unloaded)
INTERPRETER_MS = 2.5
ARRAYS_MS = 2.3

_VALUES = numpy.random.default_rng(0).random(400_000)
_PICKS = numpy.random.default_rng(1).integers(0, len(_VALUES), 50_000)


def interpreter_work() -> int:
    """Fixed interpreter work (dict updates, a sort) of the kind the
    program's own Python does; about 2.5 ms of CPU at the reference speed."""
    table: dict = {}
    for i in range(12_000):
        key = i % 997
        table[key] = table.get(key, 0) + i
    return len(sorted(table.items(), key=lambda kv: kv[1]))


def array_work() -> float:
    """Fixed array work (a running sum, a gather, a mask) over 3 MiB of
    float64, of the kind the program's columnar kernel does; about 2.3 ms
    of CPU at the reference speed."""
    numpy.add.accumulate(_VALUES)
    numpy.flatnonzero(_VALUES > 0.5)
    return float(_VALUES[_PICKS].sum())


def pin_to_one_cpu() -> None:
    """Keep this process, and every thread it starts from now on, on one
    CPU.  The two CPUs of a shared host run at different speeds at times;
    on one CPU the service's worker threads run where :class:`Speed`
    samples.  (The interpreter lock lets one thread run Python at a time
    anyway.)"""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Speed:
    """CPU time of fixed reference work, sampled between requests while
    nothing else of the benchmark runs.

    ``scale`` maps a time measured in this run to the reference speed:
    ``reference ms / median sample``.  A host half as fast doubles both the
    program's times and the samples, so scaled times stay put, while a
    change to the program moves them and leaves the samples alone.

    Hosts do not slow all work alike: across the slow and fast spells of
    the VM the bounds were set on, warm queries (interpreter-bound) slowed
    as much as :func:`interpreter_work`, scenario applies about half as
    much, and :func:`array_work` hardly at all.  So warm_grid scales by the
    interpreter work alone and the other workloads (``arrays=True``) by
    the geometric mean of both ratios.
    """

    def __init__(self, arrays: bool = True) -> None:
        self.arrays = arrays
        self.samples: dict[str, list] = {"interpreter": [], "arrays": []}

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            self._time("interpreter", interpreter_work)
            if self.arrays:
                self._time("arrays", array_work)

    def extend(self, other: "Speed") -> None:
        """Add ``other``'s samples to this one's."""
        for kind, samples in other.samples.items():
            self.samples[kind].extend(samples)

    def _time(self, kind: str, work) -> None:
        started = time.thread_time()
        work()
        self.samples[kind].append((time.thread_time() - started) * 1000.0)

    @property
    def scale(self) -> float:
        if not self.samples["interpreter"]:
            return 1.0
        ratio = INTERPRETER_MS / median(self.samples["interpreter"])
        if self.arrays:
            ratio = math.sqrt(ratio * ARRAYS_MS / median(self.samples["arrays"]))
        return ratio

    def describe(self) -> str:
        kinds = ("interpreter", "arrays") if self.arrays else ("interpreter",)
        medians = ", ".join(f"{kind} {median(self.samples[kind]):.3f}" for kind in kinds)
        return (
            f"host speed: reference work {medians} ms CPU "
            f"(n={len(self.samples['interpreter'])}), times scaled by {self.scale:.3f}"
        )


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


def tail(values) -> dict:
    """The highest ladder percentile with at least ``TAIL_MIN_BEYOND``
    samples above it.  Runs too short for any rung report p90 and say so
    (``beyond`` < 10) instead of inventing a tail."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_LADDER:
        beyond = n - max(1, math.ceil(q / 100.0 * n))
        if beyond >= TAIL_MIN_BEYOND:
            return {"p": q, "value": percentile(ordered, q), "n": n, "beyond": beyond}
    q = TAIL_LADDER[-1]
    beyond = n - max(1, math.ceil(q / 100.0 * n)) if n else 0
    return {"p": q, "value": percentile(ordered, q), "n": n, "beyond": beyond}


def grid_of(cells) -> list:
    """A result grid as plain lists (``None`` for ⊥) for exact equality."""
    return [[None if is_missing(v) else v for v in row] for row in cells]


# -- memory -------------------------------------------------------------------


def self_peak_mib() -> float:
    """This process's peak resident set (``ru_maxrss``) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another process in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    return 0.0
