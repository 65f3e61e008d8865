"""http_serve: a closed loop against the sharded HTTP tier.

A launcher subprocess (perfbench/server.py) serves the run's cube
through ``ShardedQueryService(n_shards=2)`` + ``serve_http``.  One
client sends ``POST /v1/query`` over one keep-alive connection and waits
for each answer before the next request: one text in
``FIRST_SEEN_EVERY`` is first-seen, the others rotate the repeat texts.
Latency is wall clock at the client, unscaled: a repeat request's
latency is mostly a fixed ~40 ms network-stack timer (see SPEC.md), which
does not follow the host's speed.  Throughput is requests per CPU-second
of the server and its shards, scaled to the reference speed with samples
the client takes between requests, while the server is idle.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time

import queries as Q
from common import Speed, build_cube, grid_of, median, process_peak_mib
from tracing import layer_stats, load_spans
from workloads import Context, Outcome, expect, overhead_line

__all__ = ["http_serve"]

N_REPEATS = 3
#: one request in this many is first-seen (a cold apply on both shards):
#: few enough that p50 and p90 both fall among the repeats, whose wall
#: time is steady, while the first-seen work still weighs in the CPU
#: behind throughput_qps.  A run ends on a whole block, so every run has
#: the same share of first-seen requests.
FIRST_SEEN_EVERY = 20
READY_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 30.0


# -- the server process -------------------------------------------------------


class Server:
    def __init__(self, ctx: Context, trace_out: str) -> None:
        command = [
            sys.executable,
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "server.py"),
            "--params",
            json.dumps(ctx.params),
        ]
        if trace_out:
            command += ["--trace-out", trace_out]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        line = self.process.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("server launcher exited before binding a port")
        info = json.loads(line)
        self.port = info["port"]
        self.pids = [info["pid"]] + list(info["shard_pids"])

    def connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def wait_ready(self, speed: Speed) -> float:
        """Wall seconds from launch until ``/readyz`` answers 200; samples
        the host speed while it waits."""
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            speed.sample()
            if self.process.poll() is not None:
                raise RuntimeError("server launcher exited during start-up")
            try:
                conn = self.connect()
                conn.request("GET", "/readyz")
                response = conn.getresponse()
                response.read()
                conn.close()
                if response.status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            time.sleep(0.05)
        raise RuntimeError("server not ready in time")

    def get(self, path: str) -> str:
        conn = self.connect()
        conn.request("GET", path)
        body = conn.getresponse().read().decode("utf-8")
        conn.close()
        return body

    def cpu_seconds(self) -> float:
        """User + system CPU seconds of the launcher and its shards so far."""
        ticks = os.sysconf("SC_CLK_TCK")
        total = 0.0
        for pid in self.pids:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / ticks
        return total

    def peak_mib(self) -> list:
        """VmHWM of the launcher and each shard, in MiB (0 for a process
        that is gone)."""
        peaks = []
        for pid in self.pids:
            try:
                peaks.append(process_peak_mib(pid))
            except OSError:
                peaks.append(0.0)
        return peaks

    def stop(self) -> None:
        """SIGTERM the launcher (it closes its shards), wait for every
        process, then kill whatever is left of its process group."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        for pid in getattr(self, "pids", [])[1:]:
            while os.path.exists(f"/proc/{pid}") and time.perf_counter() < deadline:
                time.sleep(0.05)
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except OSError:
            pass
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def post(conn, text: str, rid: str):
    body = json.dumps({"query": text}).encode("utf-8")
    conn.request(
        "POST",
        "/v1/query",
        body=body,
        headers={"Content-Type": "application/json", "X-Request-Id": rid},
    )
    response = conn.getresponse()
    return response.status, response.read()


# -- the load generator -------------------------------------------------------


def closed_loop(server: Server, seconds: float, repeats, first_seen, rid_base: int, speed: Speed):
    """Send requests one after another for ``seconds``; returns one record
    per request."""
    conn = server.connect()
    records = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i % FIRST_SEEN_EVERY or time.perf_counter() < deadline:
        if i % FIRST_SEEN_EVERY == FIRST_SEEN_EVERY - 1:
            kind, text = "first-seen", next(first_seen)
        else:
            kind, text = "repeat", repeats[i % len(repeats)]
        speed.sample()
        started = time.perf_counter()
        try:
            status, body = post(conn, text, str(rid_base + i))
        except (OSError, http.client.HTTPException) as exc:
            status, body = -1, repr(exc).encode()
            conn.close()
            conn = server.connect()
        records.append(
            {
                "kind": kind,
                "text": text,
                "rid": str(rid_base + i),
                "latency_ms": (time.perf_counter() - started) * 1000.0,
                "status": status,
                "body": body,
            }
        )
        i += 1
    conn.close()
    return records


def kind_summary(out: Outcome, label: str, records) -> None:
    """Per request kind: sent, ok, failed, rejected and wall latencies."""
    for kind in ("repeat", "first-seen"):
        rows = [r for r in records if r["kind"] == kind]
        ok = sum(1 for r in rows if r["status"] == 200)
        rejected = sum(1 for r in rows if r["status"] in (429, 503))
        out.report.append(
            f"{label} {kind:10}: sent={len(rows)} ok={ok} failed={len(rows) - ok - rejected} "
            f"rejected={rejected} wall p50={median([r['latency_ms'] for r in rows]):.1f} ms "
            "(unscaled)"
        )


def prometheus_sum(text: str, name: str, **labels: str) -> float:
    total = 0.0
    for line in text.splitlines():
        match = re.match(r"^(\w+)(\{[^}]*\})? (\S+)$", line)
        if not match or match.group(1) != name:
            continue
        tags = match.group(2) or ""
        if all(f'{k}="{v}"' in tags for k, v in labels.items()):
            total += float(match.group(3))
    return total


def http_layers(out: Outcome, records, spans, metrics_before: str, metrics_after: str) -> dict:
    stats = layer_stats(spans)
    execute_ms = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.name == "service.sharded_execute":
            root = by_id.get(s.parent)
            if root is not None:
                execute_ms[root.rid] = (s.end - s.start) * 1000.0
    overhead = [
        r["latency_ms"] - execute_ms[r["rid"]] for r in records if r["rid"] in execute_ms
    ]
    owned = total = 0
    for r in records:
        if r["status"] == 200:
            st = json.loads(r["body"]).get("stats", {})
            owned += st.get("owned_cells", 0)
            total += st.get("owned_cells", 0) + st.get("spanning_cells", 0) + st.get("local_cells", 0)

    def delta(name, **labels):
        return prometheus_sum(metrics_after, name, **labels) - prometheus_sum(
            metrics_before, name, **labels
        )

    empty = {"ms": 0.0, "self_ms": 0.0}
    rejected = sum(
        delta("serve_http_requests_total", status=code) for code in ("429", "503")
    )
    layers = {
        "service.sharded_execute.ms": stats.get("service.sharded_execute", empty)["ms"],
        "service.sharded_execute.self_ms": stats.get("service.sharded_execute", empty)["self_ms"],
        "service.shard_rpc.ms": stats.get("service.shard_rpc", empty)["ms"],
        "service.shard.owned_fraction": owned / total if total else 0.0,
        "service.shard.retries": delta("serve_shard_retries_total"),
        "service.shard.hedges": delta("serve_hedge_total"),
        "service.shard.local_fallback": delta("serve_local_fallback_total")
        + delta("serve_fallback_cells_total"),
        "http.handle.ms": stats.get("http.handle", empty)["ms"],
        "http.overhead_ms": median(overhead),
        "http.response_bytes": median([len(r["body"]) for r in records]),
        "http.rejected": rejected,
    }
    out.report.append("layer spans (launcher; median per call):")
    for name, s in sorted(stats.items()):
        out.report.append(
            f"  {name:28} {s['calls']:7d} {s['ms']:10.3f} ms  self {s['self_ms']:10.3f} ms"
        )
    return layers


# -- the workload ---------------------------------------------------------------


def http_serve(ctx: Context) -> Outcome:
    out = Outcome("http_serve")
    trace_out = os.path.join(ctx.out_dir, f"http_serve-seed{ctx.seed}-spans.jsonl") if ctx.trace else ""
    # the single-process reference: query texts now, expected grids later
    workforce, _ = build_cube(ctx.params)
    rng = ctx.rng(4)
    repeats = Q.http_repeats(workforce, rng, N_REPEATS)
    first_seen = Q.http_first_seen(workforce, rng)
    setup_speed = Speed()
    server = Server(ctx, trace_out)
    try:
        ready_s = server.wait_ready(setup_speed)
        conn = server.connect()
        started = time.perf_counter()
        for i, text in enumerate(repeats):
            status, _ = post(conn, text, f"warmup-{i}")
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}")
        conn.close()
        warm_up_s = time.perf_counter() - started
        # CPU, not wall: three processes starting on a few shared cores
        # finish in an order the scheduler picks
        setup_cpu_s = server.cpu_seconds()
        setup_speed.sample(4)
        out.metrics["setup_s"] = setup_cpu_s * setup_speed.scale
        out.report.append(
            f"set-up: ready after {ready_s:.2f} s, warm-up {warm_up_s:.2f} s wall, "
            f"server + shards {setup_cpu_s:.2f} s CPU (unscaled); {setup_speed.describe()}"
        )

        speed = Speed()
        cpu_before = server.cpu_seconds()
        records = closed_loop(server, ctx.seconds, repeats, first_seen, 0, speed)
        cpu_s = server.cpu_seconds() - cpu_before
        kind_summary(out, "untraced", records)
        out.report.append(
            f"untraced region: {len(records)} requests, server + shards {cpu_s:.2f} s CPU "
            f"(unscaled); {speed.describe()}"
        )
        latencies = [r["latency_ms"] for r in records]
        out.metrics.update(
            out.latency_metrics(latencies),
            throughput_qps=len(records) / (cpu_s * speed.scale),
        )
        all_records = list(records)
        traced = []
        if ctx.trace:
            before = server.get("/metrics")
            server.process.send_signal(signal.SIGUSR1)
            time.sleep(0.5)
            traced = closed_loop(server, ctx.seconds, repeats, first_seen, len(records), Speed())
            kind_summary(out, "traced", traced)
            after = server.get("/metrics")
            all_records += traced
        peaks = server.peak_mib()
        out.metrics["peak_rss_mib"] = sum(peaks)
        counters = server.get("/metrics")
        out.report.append(
            f"peak RSS (MiB): server {peaks[0]:.0f}, shards "
            + ", ".join(f"{p:.0f}" for p in peaks[1:])
            + f"; hedges {prometheus_sum(counters, 'serve_hedge_total'):g}, "
            f"cells recomputed on the coordinator "
            f"{prometheus_sum(counters, 'serve_fallback_cells_total'):g}"
        )
    finally:
        server.stop()

    out.attempted = len(all_records)
    out.failed = sum(1 for r in all_records if r["status"] != 200)

    if ctx.trace:
        out.layers = http_layers(out, traced, load_spans(trace_out), before, after)
        overhead_line(out, latencies, [r["latency_ms"] for r in traced])
        expect(
            out,
            "service.shard.local_fallback = 0 on a healthy pool",
            out.layers["service.shard.local_fallback"] == 0,
        )

    # every grid must equal single-process Warehouse.query
    reference = {}
    mismatches = 0
    for r in all_records:
        if r["status"] != 200:
            continue
        if r["text"] not in reference:
            reference[r["text"]] = grid_of(workforce.warehouse.query(r["text"]).cells)
        if json.loads(r["body"])["cells"] != reference[r["text"]]:
            mismatches += 1
    out.check(
        "every HTTP grid equals single-process Warehouse.query",
        mismatches == 0,
        f"{mismatches} of {len(all_records)} differ",
    )
    return out
