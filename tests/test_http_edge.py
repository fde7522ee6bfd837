"""The HTTP edge contract both server kinds share.

``StatisticsServer`` and ``ClusterServer`` serve the plumbing, the error
map, the observability routes, the estimate routes and the lifecycle from
one edge (``repro.service.server``); every test here runs against both.
"""

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro import HistogramStore, StatisticsClient, StatisticsServer
from repro.cluster import ClusterCoordinator, ClusterServer, LocalShard
from repro.obs.trace import TRACE_HEADER


def make_server(kind, **options):
    if kind == "service":
        return StatisticsServer(HistogramStore(), **options)
    coordinator = ClusterCoordinator([LocalShard(f"shard-{i}") for i in range(2)])
    return ClusterServer(coordinator, **options)


@pytest.fixture(params=["service", "cluster"])
def kind(request):
    return request.param


@pytest.fixture
def server(kind):
    with make_server(kind) as running:
        yield running


def http_call(server, method, path, body=None, headers=None):
    """One urllib request; returns ``(status, headers, raw body)``."""
    host, port = server.address
    call = urllib.request.Request(
        f"http://{host}:{port}{path}", data=body, method=method, headers=headers or {}
    )
    try:
        with urllib.request.urlopen(call, timeout=10) as response:
            return response.status, response.headers, response.read()
    except urllib.error.HTTPError as error:
        with error:
            return error.code, error.headers, error.read()


def raw_exchange(server, head):
    """Send raw request bytes; read until the server closes (or 5 s pass)."""
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(head)
        received = b""
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                break
            if not chunk:
                return received, True
            received += chunk
        return received, False


class TestSharedEdgeContract:
    def test_health_body_per_backend(self, server, kind):
        status, _headers, body = http_call(server, "GET", "/health")
        assert status == 200
        payload = json.loads(body)
        if kind == "service":
            assert payload == {"status": "ok", "attributes": 0}
        else:
            assert payload == {"status": "ok", "shards": 2, "attributes": 0}

    @pytest.mark.parametrize("body", [b"{not json", b"[1, 2]"])
    def test_bad_json_is_400(self, server, body):
        status, _headers, raw = http_call(server, "POST", "/attributes", body=body)
        assert status == 400
        assert json.loads(raw)["error"].startswith("invalid JSON body")

    @pytest.mark.parametrize(
        "method, path",
        [("GET", "/nope"), ("DELETE", "/health"), ("GET", "/attributes/age/mystery")],
    )
    def test_unknown_route_is_404(self, server, method, path):
        status, _headers, raw = http_call(server, method, path)
        assert status == 404
        assert json.loads(raw)["error"] == f"no route for {method} {path}"

    def test_unknown_attribute_is_404_with_name(self, server):
        for method, path, body in [
            ("GET", "/attributes/missing/estimate?op=total", None),
            ("POST", "/attributes/missing/estimate", b'{"queries": [{"op": "total"}]}'),
            ("POST", "/attributes/missing/ingest", b'{"insert": [1.0]}'),
        ]:
            status, _headers, raw = http_call(server, method, path, body=body)
            assert status == 404, path
            assert json.loads(raw)["name"] == "missing"

    @pytest.mark.parametrize(
        "path, error",
        [
            ("/metrics", "metrics are not enabled on this server"),
            ("/profile", "profiling is not enabled on this server"),
        ],
    )
    def test_observability_routes_are_404_when_disabled(self, server, path, error):
        status, _headers, raw = http_call(server, "GET", path)
        assert status == 404
        assert json.loads(raw) == {"error": error}

    def test_trace_id_is_echoed_and_logged_under_the_server_label(self, kind):
        entries = []
        with make_server(
            kind, trace=True, slow_request_ms=0.0, trace_sink=entries.append
        ) as running:
            status, headers, _raw = http_call(
                running, "GET", "/health", headers={TRACE_HEADER: "edge-trace-7"}
            )
            assert status == 200
            assert headers[TRACE_HEADER] == "edge-trace-7"
            status, _headers, raw = http_call(running, "GET", "/metrics")
            assert status == 200
            assert "repro_http_requests_total" in raw.decode()
        traced = [entry for entry in entries if entry.get("trace_id") == "edge-trace-7"]
        assert [entry["server"] for entry in traced] == [kind]

    def test_get_estimate_is_the_first_answer_of_a_one_query_batch(self, server):
        with StatisticsClient(*server.address) as client:
            client.create("age", "dc", memory_kb=0.5)
            client.ingest("age", insert=[float(v % 30) for v in range(900)])
            batch = client.query("age", [{"op": "range", "low": 0.0, "high": 12.5}])
        status, _headers, raw = http_call(
            server, "GET", "/attributes/age/estimate?op=range&low=0&high=12.5"
        )
        assert status == 200
        assert json.loads(raw) == {
            "generation": batch["generation"],
            "result": batch["results"][0],
        }

    def test_stop_twice(self, kind):
        running = make_server(kind).start()
        with StatisticsClient(*running.address) as client:
            assert client.health()["status"] == "ok"
        running.stop()
        running.stop()
        assert running._thread is None

    def test_stop_on_never_started_server_twice(self, kind):
        idle = make_server(kind)
        idle.stop()  # must not wait for a serve loop that never ran
        idle.stop()
        # The bound socket is closed: the same port can be bound again.
        with socket.socket() as probe:
            probe.bind(idle.address)

    @pytest.mark.parametrize("length", [b"-1", b"abc"])
    def test_bad_content_length_is_400_and_closes(self, server, length):
        """Regression: ``Content-Length: -1`` reached ``rfile.read(-1)``,
        which blocks until the client hangs up, so no reply ever came."""
        received, closed = raw_exchange(
            server,
            b"POST /attributes HTTP/1.1\r\nHost: edge\r\nContent-Length: "
            + length
            + b"\r\n\r\n{}",
        )
        assert received.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close\r\n" in received
        assert b"Content-Length must be a non-negative integer" in received
        assert closed
