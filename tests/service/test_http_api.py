"""HTTP front end: endpoint contracts, status mapping, quotas, shedding."""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.errors import ServiceError, ShardError
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, MetricsRegistry
from repro.olap.missing import is_missing
from repro.service import (
    CircuitBreaker,
    ShardedQueryService,
    TenantQuotas,
    make_server,
)

QUERY = (
    "SELECT {Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]} ON COLUMNS, "
    "{[Organization].Members} ON ROWS "
    "FROM Warehouse WHERE ([NY], [Salary])"
)
SPANNING = (
    "SELECT {Time.[Jan]} ON COLUMNS, {[FTE]} ON ROWS "
    "FROM Warehouse WHERE ([NY], [Salary])"
)


@pytest.fixture(scope="module")
def service():
    with ShardedQueryService("running", n_shards=2, chunk=2) as svc:
        yield svc


@pytest.fixture(scope="module")
def base_url(service):
    server = make_server(
        service, port=0, quotas=TenantQuotas(limits={"blocked": 0})
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _request(base_url, path, payload=None, headers=None):
    """Return (status, headers, parsed body) without raising on 4xx/5xx."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(base_url + path, data=data)
    for key, value in (headers or {}).items():
        request.add_header(key, value)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            status, info, raw = response.status, response.headers, response.read()
    except urllib.error.HTTPError as error:
        status, info, raw = error.code, error.headers, error.read()
    content_type = info.get("Content-Type", "")
    body = json.loads(raw) if content_type.startswith("application/json") else raw
    return status, info, body


class TestQueryEndpoint:
    def test_grid_matches_local_evaluation(self, service, base_url):
        status, _, body = _request(base_url, "/v1/query", {"query": QUERY})
        assert status == 200
        local = service.warehouse.query(QUERY)
        expected = [
            [None if is_missing(v) else float(v) for v in row]
            for row in local.cells
        ]
        assert body["cells"] == expected
        assert [t["labels"] for t in body["rows"]] == [
            list(t.labels) for t in local.rows
        ]
        assert body["stats"]["sharded"] == 2

    def test_axis_tuples_carry_coordinates(self, base_url):
        _, _, body = _request(base_url, "/v1/query", {"query": QUERY})
        first = body["columns"][0]
        assert first["coordinates"] == [["Time", "Jan"]]

    def test_explain_returns_plan_text(self, base_url):
        status, _, body = _request(base_url, "/v1/explain", {"query": QUERY})
        assert status == 200
        assert body["explain"].startswith("EXPLAIN")
        assert "cube=Warehouse" in body["explain"]

    def test_bad_mdx_is_client_error(self, base_url):
        status, _, body = _request(
            base_url, "/v1/query", {"query": "SELECT nonsense FROM nowhere"}
        )
        assert status == 400
        assert body["error"].endswith("Error")

    def test_unknown_member_is_client_error(self, base_url):
        status, _, body = _request(
            base_url,
            "/v1/query",
            {"query": QUERY.replace("[Organization].Members", "{[Nobody]}")},
        )
        assert status == 400

    def test_missing_query_field_is_client_error(self, base_url):
        status, _, body = _request(base_url, "/v1/query", {"analyze": True})
        assert status == 400
        assert "query" in body["message"]

    def test_invalid_json_body_is_client_error(self, base_url):
        request = urllib.request.Request(
            base_url + "/v1/query", data=b"not json"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unknown_paths_are_404(self, base_url):
        for path, payload in (("/v1/nope", {"query": QUERY}), ("/nope", None)):
            status, _, body = _request(base_url, path, payload)
            assert status == 404
            assert body["error"] == "NotFound"


class TestObservability:
    def test_metrics_exposition(self, base_url):
        _request(base_url, "/v1/query", {"query": QUERY})
        status, info, body = _request(base_url, "/metrics")
        assert status == 200
        assert info.get("Content-Type") == PROMETHEUS_CONTENT_TYPE
        text = body.decode("utf-8")
        assert 'serve_http_requests_total{endpoint="/v1/query",status="200"}' in text
        assert "serve_queries_total" in text
        assert "serve_breaker_state" in text

    def test_healthz_is_200_while_shards_live(self, base_url):
        status, _, body = _request(base_url, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert len(body["shards"]) == 2


class TestAdmission:
    def test_blocked_tenant_is_shed_with_429(self, base_url):
        status, _, body = _request(
            base_url,
            "/v1/query",
            {"query": QUERY},
            headers={"X-Tenant": "blocked"},
        )
        assert status == 429
        assert body["error"] == "ServiceOverloadedError"

    def test_tenant_from_body_field(self, base_url):
        status, _, _ = _request(
            base_url, "/v1/query", {"query": QUERY, "tenant": "blocked"}
        )
        assert status == 429

    def test_open_breaker_maps_to_503_under_fail_policy(
        self, service, base_url
    ):
        originals = list(service.breakers)
        try:
            for _ in range(service.breakers[0].failure_threshold):
                service.breakers[0].record_failure(ShardError("boom"))
            status, headers, body = _request(
                base_url, "/v1/query", {"query": SPANNING, "degrade": "fail"}
            )
            assert status == 503
            assert body["error"] == "CircuitOpenError"
            assert int(headers["Retry-After"]) >= 1
        finally:
            for i, old in enumerate(originals):
                fresh = CircuitBreaker()
                fresh._on_state_change = old._on_state_change
                service.breakers[i] = fresh

    def test_open_breaker_serves_fallback_by_default(self, service, base_url):
        reference_status, _, reference = _request(
            base_url, "/v1/query", {"query": SPANNING}
        )
        assert reference_status == 200
        originals = list(service.breakers)
        try:
            for _ in range(service.breakers[0].failure_threshold):
                service.breakers[0].record_failure(ShardError("boom"))
            status, _, body = _request(
                base_url, "/v1/query", {"query": SPANNING}
            )
            assert status == 200
            assert body["partial"] is False
            assert body["cells"] == reference["cells"]
        finally:
            for i, old in enumerate(originals):
                fresh = CircuitBreaker()
                fresh._on_state_change = old._on_state_change
                service.breakers[i] = fresh

    def test_open_breaker_partial_policy_returns_bottom_cells(
        self, service, base_url
    ):
        originals = list(service.breakers)
        try:
            for _ in range(service.breakers[0].failure_threshold):
                service.breakers[0].record_failure(ShardError("boom"))
            status, _, body = _request(
                base_url,
                "/v1/query",
                {"query": SPANNING, "degrade": "partial"},
            )
            assert status == 200
            assert body["partial"] is True
            assert body["degradations"]
            assert body["degradations"][0]["reason"] == "shard-down"
            assert any(
                cell is None for row in body["cells"] for cell in row
            )
        finally:
            for i, old in enumerate(originals):
                fresh = CircuitBreaker()
                fresh._on_state_change = old._on_state_change
                service.breakers[i] = fresh


class TestTenantQuotas:
    def test_acquire_release_roundtrip(self):
        quotas = TenantQuotas(max_inflight=2)
        assert quotas.acquire("t") and quotas.acquire("t")
        assert not quotas.acquire("t")
        assert quotas.inflight("t") == 2
        quotas.release("t")
        assert quotas.acquire("t")
        quotas.release("t")
        quotas.release("t")
        assert quotas.inflight("t") == 0

    def test_per_tenant_limits_override_default(self):
        quotas = TenantQuotas(max_inflight=4, limits={"small": 1})
        assert quotas.limit_for("small") == 1
        assert quotas.limit_for("other") == 4
        assert quotas.acquire("small")
        assert not quotas.acquire("small")

    def test_negative_default_rejected(self):
        with pytest.raises(ServiceError):
            TenantQuotas(max_inflight=-1)


class TestKeepAlive:
    def test_back_to_back_posts_do_not_stall(self):
        """Headers and body go out in two writes; with Nagle on, the
        client's delayed ACK holds the body back ~40 ms per response on a
        reused connection."""
        result = SimpleNamespace(
            columns=[], rows=[], cells=[], is_partial=False, stats={},
            degradations=[],
        )
        stub = SimpleNamespace(
            warehouse=SimpleNamespace(metrics=MetricsRegistry()),
            execute=lambda text, **_: result,
        )
        server = make_server(stub, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        connection = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
        try:
            body = json.dumps({"query": QUERY})
            elapsed = []
            for _ in range(10):
                started = time.perf_counter()
                connection.request("POST", "/v1/query", body)
                response = connection.getresponse()
                assert response.status == 200, response.read()
                response.read()
                elapsed.append(time.perf_counter() - started)
        finally:
            connection.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert statistics.median(elapsed) < 0.020, elapsed
