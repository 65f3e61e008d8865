"""The in-process workloads, each measured untraced and (with
``--trace 1``) again with spans, after the same set-up.

Every workload returns an :class:`Outcome`: latencies of its timed
region, output checks, end-to-end metrics and (traced) per-layer
metrics.  Output checks run outside the timed region.  Each workload has
one client and times each operation in CPU time of this process (what it
costs, whatever else the host runs); every end-to-end time is scaled to
the reference speed by the run's :class:`common.Speed`.
"""

from __future__ import annotations

import gc
import random
import time
import tracemalloc

import queries as Q
from common import (
    Speed,
    build_cube,
    cube_params,
    grid_of,
    median,
    percentile,
    pin_to_one_cpu,
    self_peak_mib,
    tail,
)
from tracing import Patcher, Tracer, layer_stats

from repro.perf.config import naive_mode

__all__ = ["Outcome", "WORKLOADS"]

#: set-ups per run; setup_s reports their median
SETUP_REPEATS = 3
#: warm_grid samples the host speed once per this many queries
WARM_QUERIES_PER_SAMPLE = 16
#: cold_scenarios bounds the scenario cache below its stream's working set
COLD_CACHE_ENTRIES = 4
#: cold_scenarios measures one whole 13-query cycle per this many seconds
#: of --seconds (a cycle takes ~8-13 s here), so every run has the same
#: number of samples of each class whatever the machine's speed
COLD_SECONDS_PER_CYCLE = 10.0
#: mixed_writes: reads between two writes (so 1 read in 5 re-applies the
#: invalidated scenario, and p90 falls inside those)
READS_PER_EPISODE = 5
WRITE_CELLS = 200


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.report: list[str] = []
        #: how latency_tail_ms was taken: rung, samples and samples beyond
        self.tail_rung = ""

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def latency_metrics(self, latencies) -> dict:
        """``latency_p50_ms`` and ``latency_tail_ms`` of one timed region."""
        tail_info = tail(latencies)
        self.tail_rung = (
            f"p{tail_info['p']:g} of n={tail_info['n']}, "
            f"{tail_info['beyond']} samples beyond"
        )
        self.report.append(
            f"latency: n={len(latencies)} p50={median(latencies):.3f} ms "
            f"tail={tail_info['value']:.3f} ms ({self.tail_rung})"
        )
        return {
            "latency_p50_ms": median(latencies),
            "latency_tail_ms": tail_info["value"],
        }


class Context:
    """One run's settings; ``rng(stream)`` gives the seeded generator of
    one input stream."""

    def __init__(self, seed: int, seconds: float, smoke: bool, trace: bool, out_dir: str):
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.trace = trace
        self.out_dir = out_dir
        self.params = cube_params(seed, smoke)

    def rng(self, stream: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + stream)


# -- set-up and tracing -------------------------------------------------------


def set_up(ctx: Context, speed: Speed):
    """Build the cube and its base index ``SETUP_REPEATS`` times, sampling
    the host speed around each build; returns the last workforce and the
    median build CPU seconds (unscaled)."""
    seconds = []
    workforce = None
    for _ in range(SETUP_REPEATS):
        workforce = None
        gc.collect()  # warehouses hold reference cycles: free the last cube now
        speed.sample(4)
        workforce, took = build_cube(ctx.params)
        seconds.append(took)
    speed.sample(4)
    return workforce, median(seconds)


def timed_query(warehouse, text):
    """``(result, cpu_ms, wall_ms)`` of one ``warehouse.query``."""
    c0, w0 = time.process_time(), time.perf_counter()
    result = warehouse.query(text)
    return result, (time.process_time() - c0) * 1000.0, (time.perf_counter() - w0) * 1000.0


class Instrument:
    """The in-process traced run: spans around each layer's public entry
    point plus the counters computed at those boundaries.  Patches are in
    place from construction until :meth:`uninstall`."""

    def __init__(self, workforce) -> None:
        self.tracer = Tracer()
        self.patcher = Patcher(self.tracer)
        self.changing = set(workforce.changing_employees)
        self.cells_produced = 0
        self.cells_changed = 0
        self.grid_cells = 0
        self.index_stats: dict[int, object] = {}
        warehouse = workforce.warehouse
        self._install()
        if warehouse.cube.has_rollup_index:
            self._keep_index(warehouse.cube.rollup_index())
        self.memo_before = {
            key: (s.hits, s.misses) for key, s in self.index_stats.items()
        }
        self.cache = warehouse.scenario_cache.stats
        self.cache_before = self.cache.snapshot()
        self.start = time.perf_counter()

    def _count_changed(self, span, result, args, kwargs) -> None:
        scenario = args[0]
        changing = self.changing | {c.member for c in getattr(scenario, "changes", ())}
        dim = result.leaf_cube.schema.dim_index(scenario.dimension)
        verdict: dict = {}
        produced = changed = 0
        for addr, _ in result.leaf_cube.leaf_cells():
            coord = addr[dim]
            hit = verdict.get(coord)
            if hit is None:
                hit = verdict[coord] = coord.rsplit("/", 1)[-1] in changing
            produced += 1
            changed += hit
        self.cells_produced += produced
        self.cells_changed += changed

    def _keep_index(self, index) -> None:
        self.index_stats.setdefault(id(index.stats), index.stats)

    def _after_query(self, span, result, args, kwargs) -> None:
        cube = args[0].cube
        if cube.has_rollup_index:
            self._keep_index(cube.rollup_index())

    def _after_grid(self, span, result, args, kwargs) -> None:
        self.grid_cells += result[2].get("cells_evaluated", 0)

    def _install(self) -> None:
        from repro.analysis import query_analyzer
        from repro.core.scenario import NegativeScenario, PositiveScenario
        from repro.mdx import evaluator
        from repro.olap.cube import Cube
        from repro.perf import batch
        from repro.perf.rollup_index import RollupIndex
        from repro.warehouse import Warehouse

        wrap = self.patcher.wrap
        wrap(Warehouse, "query", "mdx.query", after=self._after_query)
        wrap(evaluator, "parse_query", "mdx.parse")
        wrap(evaluator, "evaluate_query", "mdx.evaluate")
        wrap(query_analyzer, "analyze_query", "analysis.analyze")
        for cls in (NegativeScenario, PositiveScenario):
            wrap(cls, "apply", "core.scenario_apply", after=self._count_changed)
        wrap(
            RollupIndex,
            "build",
            "perf.rollup_index.build",
            after=lambda span, index, a, k: self._keep_index(index),
        )
        wrap(batch, "evaluate_grid", "perf.evaluate_grid", after=self._after_grid)
        wrap(Cube, "apply_overrides", "olap.apply_overrides")
        wrap(Cube, "frozen_copy", "olap.frozen_copy")

    def uninstall(self) -> None:
        self.patcher.__exit__()

    def layer_metrics(self, out: Outcome) -> dict:
        stats = layer_stats(self.tracer.spans, since=self.start)
        empty = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "total_ms": 0.0, "self_total_ms": 0.0}

        def span(name):
            return stats.get(name, empty)

        hits = misses = 0
        for key, s in self.index_stats.items():
            h0, m0 = self.memo_before.get(key, (0, 0))
            hits += s.hits - h0
            misses += s.misses - m0
        cache = self.cache.snapshot()
        delta = {k: cache[k] - self.cache_before.get(k, 0) for k in cache}
        lookups = delta["hits"] + delta["misses"]
        grid_ms = span("perf.evaluate_grid")["total_ms"]
        layers = {
            "mdx.query.ms": span("mdx.query")["ms"],
            "mdx.query.self_ms": span("mdx.query")["self_ms"],
            "mdx.parse.ms": span("mdx.parse")["ms"],
            "mdx.parse.self_ms": span("mdx.parse")["self_ms"],
            "mdx.evaluate.ms": span("mdx.evaluate")["ms"],
            "mdx.evaluate.self_ms": span("mdx.evaluate")["self_ms"],
            "analysis.analyze.ms": span("analysis.analyze")["ms"],
            "analysis.analyze.self_ms": span("analysis.analyze")["self_ms"],
            "core.scenario_apply.ms": span("core.scenario_apply")["ms"],
            "core.scenario_apply.self_ms": span("core.scenario_apply")["self_ms"],
            "core.scenario_apply.calls": span("core.scenario_apply")["calls"],
            "core.scenario_apply.changed_fraction": (
                self.cells_changed / self.cells_produced if self.cells_produced else 0.0
            ),
            "perf.rollup_index.build.ms": span("perf.rollup_index.build")["ms"],
            "perf.rollup_index.build.self_ms": span("perf.rollup_index.build")["self_ms"],
            "perf.rollup_index.build.calls": span("perf.rollup_index.build")["calls"],
            "perf.evaluate_grid.ms": span("perf.evaluate_grid")["ms"],
            "perf.evaluate_grid.self_ms": span("perf.evaluate_grid")["self_ms"],
            "perf.evaluate_grid.cells_per_ms": self.grid_cells / grid_ms if grid_ms else 0.0,
            "perf.scenario_cache.hit_ratio": delta["hits"] / lookups if lookups else 0.0,
            "perf.scenario_cache.evictions": delta["evictions"],
            "perf.scenario_cache.invalidations": delta["invalidations"],
            "perf.rollup_index.memo_hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0
            ),
            "olap.apply_overrides.ms": span("olap.apply_overrides")["ms"],
            "olap.apply_overrides.calls": span("olap.apply_overrides")["calls"],
            "olap.frozen_copy.ms": span("olap.frozen_copy")["ms"],
            "olap.frozen_copy.calls": span("olap.frozen_copy")["calls"],
        }
        out.report.append("layer spans (timed region; median per call):")
        out.report.append(
            f"  {'span':28} {'calls':>7} {'ms':>10} {'self_ms':>10} {'total_ms':>11} {'self_total':>11}"
        )
        for name, s in sorted(stats.items()):
            out.report.append(
                f"  {name:28} {s['calls']:7d} {s['ms']:10.3f} {s['self_ms']:10.3f} "
                f"{s['total_ms']:11.1f} {s['self_total_ms']:11.1f}"
            )
        return layers


def retained_bytes(action) -> int:
    """Bytes still allocated after ``action()`` returns (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        action()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def memory_layers(out: Outcome, warehouse, texts: dict) -> dict:
    """Bytes one cached scenario entry retains (mean over ``texts``, each
    queried into an emptied cache) and bytes one base-index build
    retains."""
    from repro.perf.rollup_index import RollupIndex

    per_entry = []
    for label, text in texts.items():
        warehouse.scenario_cache.clear()
        per_entry.append(retained_bytes(lambda: warehouse.query(text) and None))
        out.report.append(f"bytes per cached scenario ({label}): {per_entry[-1] / 2**20:.1f} MiB")
    holder = []
    per_build = retained_bytes(lambda: holder.append(RollupIndex.build(warehouse.cube)))
    holder.clear()
    out.report.append(f"bytes per base RollupIndex.build: {per_build / 2**20:.1f} MiB")
    return {
        "perf.scenario_cache.bytes_per_entry": sum(per_entry) / len(per_entry),
        "perf.rollup_index.bytes_per_build": float(per_build),
    }


def naive_check(out: Outcome, warehouse, label: str, sub_text: str, result) -> None:
    """The naive oracle's answer to ``sub_text`` must equal the engine's
    grid ``result`` at every sub-grid cell."""
    with naive_mode():
        oracle = warehouse.query(sub_text)
    problem = Q.sub_grid(grid_of(result.cells), result, oracle)
    out.check(f"naive oracle: {label}", problem is None, problem or "")


def overhead_line(out: Outcome, untraced, traced) -> None:
    base, with_spans = median(untraced), median(traced)
    share = (with_spans / base - 1.0) if base else 0.0
    out.report.append(
        f"tracing overhead: latency_p50_ms {base:.3f} untraced -> {with_spans:.3f} traced "
        f"({share:+.1%})"
    )


def expect(out: Outcome, claim: str, held: bool) -> None:
    out.report.append(f"layer mix: {claim}: {'held' if held else 'NOT HELD'}")


# -- warm_grid ----------------------------------------------------------------

#: rotation over the warm texts: the median falls inside the three big
#: grids, p99 above them and below the ~1% of queries gen-2 GC stalls
WARM_ROTATION = (0, 1, 2, 3)


def warm_grid(ctx: Context) -> Outcome:
    out = Outcome("warm_grid")
    pin_to_one_cpu()
    setup_speed = Speed(arrays=False)
    workforce, build_s = set_up(ctx, setup_speed)
    warehouse = workforce.warehouse
    texts = Q.warm_texts(workforce, ctx.rng(1))
    first = []
    warm_up_ms = 0.0
    for t in texts:
        result, cpu_ms, _ = timed_query(warehouse, t["text"])
        first.append(result)
        warm_up_ms += cpu_ms
    setup_speed.sample(4)
    out.metrics["setup_s"] = (build_s + warm_up_ms / 1000.0) * setup_speed.scale
    firsts = [grid_of(r.cells) for r in first]

    def region(seconds, label):
        """CPU ms per query, wall ms per query, the region's speed."""
        speed = Speed(arrays=False)
        latencies, walls = [], []
        by_text = {index: [] for index in WARM_ROTATION}
        mismatches = 0
        ops = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            if ops % WARM_QUERIES_PER_SAMPLE == 0:
                speed.sample()
            for index in WARM_ROTATION:
                ops += 1
                try:
                    result, cpu_ms, wall_ms = timed_query(warehouse, texts[index]["text"])
                except Exception as exc:  # counted, the run goes on
                    out.failed += 1
                    out.report.append(f"query failed: {exc!r}")
                    continue
                latencies.append(cpu_ms)
                walls.append(wall_ms)
                by_text[index].append(cpu_ms)
                if grid_of(result.cells) != firsts[index]:
                    mismatches += 1
        out.attempted += ops
        out.check("warm repeats equal their first grid", mismatches == 0, f"{mismatches} differ")
        out.report.append(f"{label} region, CPU ms per text (unscaled):")
        for index, values in by_text.items():
            ordered = sorted(values)
            out.report.append(
                f"  {texts[index]['name']:16} n={len(values):5d} p50={median(values):8.3f} ms "
                f"p99={percentile(ordered, 99.0):8.3f} ms"
            )
        out.report.append(f"{label} region: wall p50 {median(walls):.3f} ms; {speed.describe()}")
        return latencies, speed

    latencies, speed = region(ctx.seconds, "untraced")
    out.metrics.update(
        out.latency_metrics([ms * speed.scale for ms in latencies]),
        throughput_qps=len(latencies) / (sum(latencies) / 1000.0 * speed.scale),
    )
    if ctx.trace:
        inst = Instrument(workforce)
        traced, _ = region(ctx.seconds, "traced")
        inst.uninstall()
        out.layers = inst.layer_metrics(out)
        overhead_line(out, latencies, traced)
        expect(
            out,
            "0 perf.rollup_index.build.calls and 0 core.scenario_apply.calls",
            out.layers["perf.rollup_index.build.calls"] == 0
            and out.layers["core.scenario_apply.calls"] == 0,
        )
        out.layers.update(memory_layers(out, warehouse, {"visual": texts[2]["text"]}))
    out.metrics["peak_rss_mib"] = self_peak_mib()
    for t, result in zip(texts, first):
        naive_check(out, warehouse, t["name"], t["sub"], result)
    return out


# -- cold_scenarios -----------------------------------------------------------


def cold_scenarios(ctx: Context) -> Outcome:
    out = Outcome("cold_scenarios")
    pin_to_one_cpu()
    setup_speed = Speed()
    workforce, build_s = set_up(ctx, setup_speed)
    warehouse = workforce.warehouse
    warehouse.scenario_cache.maxsize = COLD_CACHE_ENTRIES
    out.metrics["setup_s"] = build_s * setup_speed.scale
    stream = Q.cold_stream(workforce, ctx.rng(2))
    pending = next(stream)

    def region(seconds, label):
        """Rows of (class, moments, scaled CPU ms, text, result), whole
        cycles.  Each query is scaled by the host speed sampled right
        before and after it: the speed drifts within a run too."""
        nonlocal pending
        rows = []
        raw, walls = [], []
        speed = Speed()
        for _ in range(max(1, round(seconds / COLD_SECONDS_PER_CYCLE))):
            cycle = pending[0]
            while pending[0] == cycle:
                _, cls, k, text = pending
                # every query starts from a collected heap, so the
                # collections it pays for are those its own garbage causes
                gc.collect()
                local = Speed()
                local.sample(2)
                out.attempted += 1
                try:
                    result, cpu_ms, wall_ms = timed_query(warehouse, text)
                except Exception as exc:
                    out.failed += 1
                    out.report.append(f"query failed: {exc!r}")
                else:
                    local.sample(2)
                    rows.append((cls, k, cpu_ms * local.scale, text, result))
                    raw.append(cpu_ms)
                    walls.append(wall_ms)
                speed.extend(local)
                pending = next(stream)
        out.report.append(
            f"{label} region: {len(rows)} queries, CPU p50 {median(raw):.1f} ms, "
            f"wall p50 {median(walls):.1f} ms (unscaled); {speed.describe()} "
            "(per query: by its own samples)"
        )
        return rows

    samples = region(ctx.seconds, "untraced")
    latencies = [ms for _, _, ms, _, _ in samples]
    out.metrics.update(
        out.latency_metrics(latencies),
        throughput_qps=len(latencies) / (sum(latencies) / 1000.0),
    )
    if ctx.trace:
        inst = Instrument(workforce)
        traced = region(ctx.seconds, "traced")
        inst.uninstall()
        out.layers = inst.layer_metrics(out)
        traced_ms = [ms for _, _, ms, _, _ in traced]
        overhead_line(out, latencies, traced_ms)
        stats = layer_stats(inst.tracer.spans, since=inst.start)
        blocking = sum(
            stats.get(name, {}).get("total_ms", 0.0)
            for name in ("core.scenario_apply", "perf.rollup_index.build")
        )
        share = blocking / sum(traced_ms) if traced_ms else 0.0
        out.report.append(
            f"apply + index build: {share:.1%} of traced query time ({blocking:.0f} ms)"
        )
        expect(
            out,
            "perf.scenario_cache.hit_ratio = 0 and evictions > 0",
            out.layers["perf.scenario_cache.hit_ratio"] == 0
            and out.layers["perf.scenario_cache.evictions"] > 0,
        )
        expect(out, "scenario apply + index build are most of the query time", share > 0.5)
        baseline_table(out, warehouse, samples + traced)
        fresh = {}
        while len(fresh) < 2:
            _, cls, _, text = next(stream)
            if "CHANGES" not in cls:
                fresh.setdefault(cls.split("/")[1].lower().replace("_", "-"), text)
        out.layers.update(memory_layers(out, warehouse, fresh))
        out.report.append(
            f"baseline: RollupIndex.build {out.layers['perf.rollup_index.build.ms']:.0f} ms, "
            f"changed fraction {out.layers['core.scenario_apply.changed_fraction']:.1%}"
        )
    out.metrics["peak_rss_mib"] = self_peak_mib()
    checked = set()
    for cls, _, _, text, result in samples:
        if cls not in checked:
            checked.add(cls)
            naive_check(out, warehouse, cls, text, result)
    return out


def baseline_table(out: Outcome, warehouse, rows) -> None:
    """The ROADMAP baseline figures, from this run's cold samples."""
    by_class: dict = {}
    by_k: dict = {}
    for cls, k, ms, _, _ in rows:
        by_class.setdefault(cls, []).append(ms)
        if "CHANGES" not in cls:
            by_k.setdefault(k, []).append(ms)
    out.report.append(
        "baseline: cold latency by semantics x mode (CPU ms at reference speed, median)"
    )
    for cls in sorted(by_class):
        values = by_class[cls]
        out.report.append(f"  {cls:40} {median(values):9.1f}  (n={len(values)})")
    out.report.append("baseline: cold latency by perspective count (Fig. 11 axis)")
    for k in sorted(by_k):
        out.report.append(f"  k={k:2d} {median(by_k[k]):9.1f} ms  (n={len(by_k[k])})")
    # warm: the most recent texts are still cached
    warm = []
    for _, _, _, text, _ in rows[-COLD_CACHE_ENTRIES:]:
        t0 = time.perf_counter()
        warehouse.query(text)
        warm.append((time.perf_counter() - t0) * 1000.0)
    out.report.append(
        f"baseline: same queries warm (cache hit): median {median(warm):.2f} ms "
        f"(n={len(warm)})"
    )


# -- mixed_writes -------------------------------------------------------------


def mixed_writes(ctx: Context) -> Outcome:
    from repro.service import QueryService

    out = Outcome("mixed_writes")
    pin_to_one_cpu()
    setup_speed = Speed()
    workforce, build_s = set_up(ctx, setup_speed)
    warehouse = workforce.warehouse
    read = Q.mixed_read(workforce, ctx.rng(3))
    changing = set(workforce.changing_employees)
    dim = workforce.schema.dim_index("Department")
    leaves = ([], [])
    for addr, _ in workforce.cube.leaf_cells():
        leaves[addr[dim].rsplit("/", 1)[-1] not in changing].append(addr)
    size = min(WRITE_CELLS, len(leaves[0]), len(leaves[1]))
    _, warm_up_ms, _ = timed_query(warehouse, read["text"])
    setup_speed.sample(4)
    out.metrics["setup_s"] = (build_s + warm_up_ms / 1000.0) * setup_speed.scale
    grids: dict = {}  # version -> (grid, result)
    snapshots: dict = {}  # "first"/"last" -> (version, snapshot) read

    def region(seconds, stream_base):
        """Episodes of one seeded write followed by READS_PER_EPISODE
        reads through the service, from one client.  Each operation is
        timed in process CPU: the service's worker does the work while the
        client waits, so the process's CPU is the operation's."""
        read_ms, write_ms, raw_reads = [], [], []
        mismatches = 0
        writes = 0
        rng = ctx.rng(stream_base)
        speed = Speed()
        with QueryService(warehouse, workers=2) as svc:
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                gc.collect()  # as in cold_scenarios: each episode from a collected heap
                # the episode's operations are scaled by the host speed
                # sampled right before and after it
                local = Speed()
                local.sample(2)
                episode_reads, episode_writes = [], []
                batch = Q.write_batch(workforce, leaves, rng, size)
                c0 = time.process_time()
                try:
                    warehouse.cube.apply_overrides(batch)
                except Exception as exc:
                    out.failed += 1
                    out.report.append(f"write failed: {exc!r}")
                episode_writes.append((time.process_time() - c0) * 1000.0)
                writes += 1
                for _ in range(READS_PER_EPISODE):
                    c0 = time.process_time()
                    try:
                        ticket = svc.submit(read["text"])
                        result = ticket.result()
                    except Exception as exc:
                        out.failed += 1
                        out.report.append(f"read failed: {exc!r}")
                        continue
                    episode_reads.append((time.process_time() - c0) * 1000.0)
                    grid = grid_of(result.cells)
                    version = ticket.snapshot_version
                    if grids.setdefault(version, (grid, result))[0] != grid:
                        mismatches += 1
                    first = snapshots.setdefault("first", (version, ticket.snapshot))
                    if version > snapshots.get("last", first)[0]:
                        snapshots["last"] = (version, ticket.snapshot)
                local.sample(2)
                speed.extend(local)
                raw_reads.extend(episode_reads)
                read_ms.extend(ms * local.scale for ms in episode_reads)
                write_ms.extend(ms * local.scale for ms in episode_writes)
            metrics = warehouse.metrics.snapshot()
            queue_wait = metrics.get("service_queue_wait_ms", {})
            shed = sum(v for k, v in metrics.items() if k.startswith("service_shed_total"))
        out.attempted += writes + READS_PER_EPISODE * writes
        out.check(
            "repeats at one cube version equal their first grid",
            mismatches == 0,
            f"{mismatches} differ",
        )
        out.report.append(
            f"region: {writes} writes, {len(read_ms)} reads, read CPU p50 "
            f"{median(raw_reads):.3f} ms (unscaled); {speed.describe()} "
            "(per episode: by its own samples)"
        )
        return read_ms, write_ms, writes, queue_wait, shed

    read_ms, write_ms, writes, _, _ = region(ctx.seconds, 10)
    out.metrics.update(
        out.latency_metrics(read_ms),
        throughput_qps=(len(read_ms) + len(write_ms))
        / ((sum(read_ms) + sum(write_ms)) / 1000.0),
    )
    write_tail = tail(write_ms)
    out.report.append(
        f"writes: n={len(write_ms)} write_p50_ms={median(write_ms):.3f} "
        f"write_tail_ms=p{write_tail['p']:g} {write_tail['value']:.3f} "
        f"({write_tail['beyond']} beyond)"
    )
    if ctx.trace:
        inst = Instrument(workforce)
        before = warehouse.metrics.snapshot().get("service_queue_wait_ms", {})
        traced_ms, _, traced_writes, after, shed = region(ctx.seconds, 20)
        inst.uninstall()
        out.layers = inst.layer_metrics(out)
        waits = after.get("count", 0) - before.get("count", 0)
        out.layers["service.queue_wait_ms"] = (
            (after.get("sum", 0.0) - before.get("sum", 0.0)) / waits if waits else 0.0
        )
        out.layers["service.shed"] = shed
        overhead_line(out, read_ms, traced_ms)
        expect(
            out,
            f"olap.apply_overrides.calls = writes issued ({traced_writes}) "
            "and invalidations > 0",
            out.layers["olap.apply_overrides.calls"] == traced_writes
            and out.layers["perf.scenario_cache.invalidations"] > 0,
        )
        out.layers.update(memory_layers(out, warehouse, {"non-visual": read["text"]}))
    out.metrics["peak_rss_mib"] = self_peak_mib()
    # oracle: the sub-grids at the first and the latest version read
    for version, snapshot in snapshots.values():
        naive_check(out, snapshot, f"read @v{version}", read["sub"], grids[version][1])
    out.check("writes were issued", writes > 0, f"{writes} writes")
    return out


WORKLOADS = {
    "warm_grid": warm_grid,
    "cold_scenarios": cold_scenarios,
    "mixed_writes": mixed_writes,
}
