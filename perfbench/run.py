"""Layered what-if benchmark over the 96,000-leaf workforce cube.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--smoke]

Workloads: warm_grid, cold_scenarios, mixed_writes, http_serve (see
perfbench/SPEC.md for why each exists and which layers it stresses);
``all`` runs them one after another.
The cube and every query are generated from ``--seed``.  Each run sets
up, measures for ``--seconds`` seconds, checks the program's outputs
outside the timed region and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run measures once untraced and once with spans around every layer
and reports the per-layer metrics (spans go to perfbench/out/).
``--smoke`` shrinks the cube to ~2k leaves for the benchmark's own tests.
Exit status: 0 after a result line (even an incorrect one), 1 when the
run could not complete, 2 when the program under test cannot be found;
with ``all``, also 1 when any workload's outputs were incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: end-to-end metrics (every workload reports each) and their units
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_qps": "1/s",
    "peak_rss_mib": "MiB",
}

#: per-layer metrics of the traced run and their units
PER_LAYER = {
    "mdx.query.ms": "ms",
    "mdx.query.self_ms": "ms",
    "mdx.parse.ms": "ms",
    "mdx.parse.self_ms": "ms",
    "mdx.evaluate.ms": "ms",
    "mdx.evaluate.self_ms": "ms",
    "analysis.analyze.ms": "ms",
    "analysis.analyze.self_ms": "ms",
    "core.scenario_apply.ms": "ms",
    "core.scenario_apply.self_ms": "ms",
    "core.scenario_apply.calls": "count",
    "core.scenario_apply.changed_fraction": "ratio",
    "perf.rollup_index.build.ms": "ms",
    "perf.rollup_index.build.self_ms": "ms",
    "perf.rollup_index.build.calls": "count",
    "perf.rollup_index.bytes_per_build": "bytes",
    "perf.rollup_index.memo_hit_ratio": "ratio",
    "perf.evaluate_grid.ms": "ms",
    "perf.evaluate_grid.self_ms": "ms",
    "perf.evaluate_grid.cells_per_ms": "1/ms",
    "perf.scenario_cache.hit_ratio": "ratio",
    "perf.scenario_cache.evictions": "count",
    "perf.scenario_cache.invalidations": "count",
    "perf.scenario_cache.bytes_per_entry": "bytes",
    "olap.apply_overrides.ms": "ms",
    "olap.apply_overrides.calls": "count",
    "olap.frozen_copy.ms": "ms",
    "olap.frozen_copy.calls": "count",
    "service.queue_wait_ms": "ms",
    "service.shed": "count",
    "service.sharded_execute.ms": "ms",
    "service.sharded_execute.self_ms": "ms",
    "service.shard_rpc.ms": "ms",
    "service.shard.owned_fraction": "ratio",
    "service.shard.retries": "count",
    "service.shard.hedges": "count",
    "service.shard.local_fallback": "count",
    "http.handle.ms": "ms",
    "http.overhead_ms": "ms",
    "http.response_bytes": "bytes",
    "http.rejected": "count",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    # the program under test is the checkout's own src/, never an installed copy
    source = os.path.join(ROOT, "src", "repro")
    if not os.path.isfile(os.path.join(source, "__init__.py")):
        print(f"perfbench: no program under test at {source}", file=sys.stderr)
        return 2
    from http_load import http_serve
    from workloads import WORKLOADS, Context

    workloads = dict(WORKLOADS, http_serve=http_serve)
    names = list(workloads) if args.workload == "all" else [args.workload]
    if names[0] not in workloads:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads)} or all")
    out_dir = os.path.join(HERE, "out")
    if args.trace:
        os.makedirs(out_dir, exist_ok=True)
    ctx = Context(args.seed, args.seconds, args.smoke, bool(args.trace), out_dir)
    all_correct = True
    for name in names:
        try:
            outcome = workloads[name](ctx)
        except Exception:
            traceback.print_exc()
            return 1
        print_result(name, args, outcome)
        all_correct = all_correct and outcome.correct
    return 0 if all_correct or len(names) == 1 else 1


def print_result(name: str, args, outcome) -> None:
    print(f"== {name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in outcome.report:
        print(line)
    for check, ok, detail in outcome.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {check}" + (f": {detail}" if detail and not ok else ""))
    chosen = PER_LAYER if args.trace else END_TO_END
    source = outcome.layers if args.trace else outcome.metrics
    metrics = {}
    for metric, unit in chosen.items():
        value = float(source.get(metric, 0.0))
        metrics[metric] = {"value": value, "unit": unit}
        note = f" ({outcome.tail_rung})" if metric == "latency_tail_ms" else ""
        print(f"metric {metric} = {value:.6g} {unit}{note}")
    if args.trace:
        for metric, unit in END_TO_END.items():
            print(f"(untraced) {metric} = {outcome.metrics.get(metric, 0.0):.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    sys.exit(main())
