"""HTTP server launcher for the ``http_serve`` workload.

Builds ``ShardedQueryService(n_shards=2, hedge_ms=5000)`` over the run's
workforce cube and serves it with ``serve_http`` on a free localhost
port.  Prints one JSON line ``{"port", "pid", "shard_pids"}`` once the
socket is bound, then serves until SIGTERM, when it closes the shard
pool and (with ``--trace-out``) writes its spans.

    python3 perfbench/server.py --params '<WorkforceConfig JSON>' [--trace-out FILE]

With ``--trace-out``, SIGUSR1 switches on spans around the HTTP handler,
``ShardedQueryService.execute`` and ``ShardClient.gather``; the handler
span takes its request id from the client's ``X-Request-Id`` header.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

SHARDS = 2
#: shard-plan chunk of the committed serving baseline (bench/serve.py)
CHUNK = 4
#: hedge a shard only when it is far slower than a cold apply here.  With
#: the default 1 s, a first-seen apply (0.3–1.2 s per shard on a 2-core
#: host) was hedged in about half the runs, and the coordinator's
#: recomputation added ~110 MiB to its peak memory in those runs only.
HEDGE_MS = 5_000.0


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _install_tracing(tracer):
    from tracing import Patcher

    from repro.service import http_api
    from repro.service.service import ShardedQueryService
    from repro.service.shard import ShardClient

    patcher = Patcher(tracer)
    patcher.wrap(
        http_api._Handler,
        "do_POST",
        "http.handle",
        rid_of=lambda args: args[0].headers.get("X-Request-Id"),
    )
    patcher.wrap(ShardedQueryService, "execute", "service.sharded_execute")
    patcher.wrap(ShardClient, "gather", "service.shard_rpc")
    return patcher


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--params", required=True)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)

    from repro.service import ShardedQueryService
    from repro.service.http_api import serve_http

    def stop(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, stop)
    patchers = []
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
        signal.signal(
            signal.SIGUSR1,
            lambda signum, frame: patchers or patchers.append(_install_tracing(tracer)),
        )
    params = tuple(sorted(json.loads(args.params).items()))
    service = ShardedQueryService(
        "workforce", n_shards=SHARDS, chunk=CHUNK, workload_params=params, hedge_ms=HEDGE_MS
    )
    try:
        port = _free_port()
        print(
            json.dumps(
                {
                    "port": port,
                    "pid": os.getpid(),
                    "shard_pids": [c.process.pid for c in service.clients],
                }
            ),
            flush=True,
        )
        serve_http(service, port=port)
    except SystemExit:
        pass
    finally:
        service.close()
        for patcher in patchers:
            patcher.__exit__()
        if args.trace_out:
            tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
