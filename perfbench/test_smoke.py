"""Smoke tests of the benchmark itself: every workload at the ~2k-leaf
smoke size, untraced and traced, must finish with correct outputs and
print the metrics BENCHMARK.json declares.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm_grid", "cold_scenarios", "mixed_writes", "http_serve")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload: str, trace: int, seed: int = 5) -> tuple[dict, str]:
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1]), completed.stdout


def test_workloads_match_the_spec():
    assert tuple(w["name"] for w in _spec()["workloads"]) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run(workload, trace):
    result, stdout = _run(workload, trace)
    assert result["correct"], stdout
    assert result["attempted"] >= 1
    assert result["failed"] == 0, stdout
    declared = _spec()["per_layer" if trace else "end_to_end"]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    if trace:
        assert "layer mix:" in stdout and "tracing overhead:" in stdout
    else:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"]), stdout


def test_same_seed_same_inputs():
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import queries
    from workloads import Context

    from repro.workload.workforce import WorkforceConfig, build_workforce

    def texts(seed):
        ctx = Context(seed, 1, True, False, "")
        workforce = build_workforce(WorkforceConfig(**ctx.params))
        warm = [t["text"] for t in queries.warm_texts(workforce, ctx.rng(1))]
        stream = queries.cold_stream(workforce, ctx.rng(2))
        return warm + [next(stream)[3] for _ in range(30)]

    assert texts(7) == texts(7)
    assert texts(7) != texts(8)


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
