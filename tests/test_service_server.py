"""End-to-end tests for the JSON HTTP statistics server and its client."""

import json
import socket
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import suppress
from http.client import HTTPException

import pytest

from repro import (
    HistogramStore,
    IngestPipeline,
    ServiceError,
    StatisticsClient,
    StatisticsServer,
    UnknownAttributeError,
)
from repro.obs import MetricsRegistry
from repro.service.client import POOL_SIZE


@pytest.fixture
def server():
    with StatisticsServer(HistogramStore()) as running:
        yield running


@pytest.fixture
def client(server):
    host, port = server.address
    with StatisticsClient(host, port) as pooled:
        yield pooled


class TestLifecycleRoutes:
    def test_health(self, client):
        response = client.health()
        assert response["status"] == "ok"
        assert response["attributes"] == 0

    def test_create_ingest_estimate_round_trip(self, client):
        created = client.create("age", "dc", memory_kb=0.5)
        assert created["name"] == "age"
        assert created["total_count"] == 0

        response = client.ingest("age", insert=[float(v % 90) for v in range(2000)])
        assert response["buffered"] is False
        assert response["inserted"] == 2000

        assert client.total_count("age") == pytest.approx(2000.0)
        full = client.estimate_range("age", 0, 89)
        assert full == pytest.approx(2000.0, rel=0.01)
        assert client.estimate_equal("age", 42.0) > 0
        cdf = client.cdf("age", [0.0, 45.0, 89.0])
        assert cdf[-1] == pytest.approx(1.0)
        assert cdf == sorted(cdf)

    def test_ingest_deletes(self, client):
        client.create("age", "dc", memory_kb=0.5)
        client.ingest("age", insert=[float(v % 70) for v in range(1000)])
        response = client.ingest("age", delete=[10.0, 11.0])
        assert response["deleted"] == 2
        assert client.total_count("age") == pytest.approx(998.0)

    def test_consistent_query_batch(self, client):
        client.create("age", "dado", memory_kb=0.5)
        client.ingest("age", insert=[float(v % 50) for v in range(1500)])
        response = client.query(
            "age", [{"op": "total"}, {"op": "range", "low": -1e18, "high": 1e18}]
        )
        total, full_range = response["results"]
        assert total == pytest.approx(full_range)
        assert "generation" in response

    def test_stats_routes(self, client):
        client.create("a1", "dc", memory_kb=0.5)
        client.create("a2", "dvo", memory_kb=0.5)
        everything = client.stats()
        assert [entry["name"] for entry in everything["attributes"]] == ["a1", "a2"]
        single = client.stats("a2")
        assert single["kind"] == "dvo"

    def test_drop(self, client):
        client.create("gone", "dc")
        client.drop("gone")
        with pytest.raises(UnknownAttributeError):
            client.stats("gone")

    def test_snapshot_restore_over_http(self, client):
        client.create("age", "dado", memory_kb=0.5)
        client.ingest("age", insert=[float(v % 40) for v in range(1200)])
        snapshot = client.snapshot("age")
        before = client.estimate_range("age", 5, 25)

        client.ingest("age", insert=[0.0] * 400)
        assert client.total_count("age") == pytest.approx(1600.0)

        restored = client.restore("age", snapshot)
        assert restored["total_count"] == pytest.approx(1200.0)
        assert client.estimate_range("age", 5, 25) == pytest.approx(before)

    def test_snapshot_survives_server_restart(self, client, server):
        client.create("age", "dc", memory_kb=0.5)
        client.ingest("age", insert=[float(v % 60) for v in range(1500)])
        snapshot = client.snapshot("age")

        with StatisticsServer(HistogramStore()) as second:
            host, port = second.address
            with StatisticsClient(host, port) as fresh_client:
                fresh_client.restore("age", snapshot)
                assert fresh_client.total_count("age") == pytest.approx(1500.0)


class TestErrorHandling:
    def test_unknown_attribute_404(self, client):
        with pytest.raises(UnknownAttributeError):
            client.estimate_range("missing", 0, 1)
        with pytest.raises(UnknownAttributeError):
            client.ingest("missing", insert=[1.0])

    def test_duplicate_create_conflict(self, client):
        client.create("dup", "dc")
        with pytest.raises(ServiceError, match="409"):
            client.create("dup", "dc")

    def test_duplicate_create_exist_ok(self, client):
        client.create("dup", "dc")
        stats = client.create("dup", "dc", exist_ok=True)
        assert stats["name"] == "dup"

    def test_bad_kind_400(self, client):
        with pytest.raises(ServiceError, match="400"):
            client.create("odd", "mystery")

    def test_unknown_route_404(self, server):
        host, port = server.address
        request = urllib.request.Request(f"http://{host}:{port}/nope")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 404

    def test_invalid_json_400(self, server):
        host, port = server.address
        request = urllib.request.Request(
            f"http://{host}:{port}/attributes",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_estimate_bad_query_400(self, client):
        client.create("age", "dc")
        with pytest.raises(ServiceError, match="400"):
            client.query("age", [{"op": "mystery"}])


class Test404BodyParsing:
    """The client must never trust the 404 body's quoting.

    Regression: the old parse was ``message.split("'")[1]``, which raised
    ``IndexError`` on any body that contained the phrase ``unknown
    attribute`` without a quoted name -- an old server, a proxy error page,
    or a hostile upstream.  The structured ``name`` field wins, the quoted
    token is the fallback, and the worst case degrades to the whole message.
    """

    @staticmethod
    def _client_returning(status, body):
        client = StatisticsClient("127.0.0.1", 1)
        client._raw_request = lambda *args, **kwargs: (status, body)
        return client

    def test_server_sends_structured_name(self, client):
        with pytest.raises(UnknownAttributeError) as excinfo:
            client.estimate_range("missing", 0, 1)
        assert excinfo.value.name == "missing"

    def test_hostile_body_without_quotes_does_not_crash(self):
        hostile = self._client_returning(
            404, b'{"error": "unknown attribute but no quotes anywhere"}'
        )
        with pytest.raises(UnknownAttributeError) as excinfo:
            hostile.total_count("whatever")
        assert excinfo.value.name == "unknown attribute but no quotes anywhere"

    def test_non_json_proxy_page_does_not_crash(self):
        hostile = self._client_returning(
            404, b"<html>unknown attribute -- gateway says no</html>"
        )
        with pytest.raises(UnknownAttributeError):
            hostile.total_count("whatever")

    def test_structured_name_beats_message_quoting(self):
        body = json.dumps(
            {"error": "unknown attribute 'decoy'", "name": "real'name"}
        ).encode("utf-8")
        hostile = self._client_returning(404, body)
        with pytest.raises(UnknownAttributeError) as excinfo:
            hostile.total_count("whatever")
        assert excinfo.value.name == "real'name"

    def test_legacy_body_falls_back_to_quoted_token(self):
        body = json.dumps(
            {"error": "unknown attribute 'age'; create it first"}
        ).encode("utf-8")
        legacy = self._client_returning(404, body)
        with pytest.raises(UnknownAttributeError) as excinfo:
            legacy.total_count("whatever")
        assert excinfo.value.name == "age"


class TestRawHttpSurface:
    def test_get_estimate_via_query_string(self, server):
        host, port = server.address
        with StatisticsClient(host, port) as client:
            client.create("age", "dc", memory_kb=0.5)
            client.ingest("age", insert=[float(v % 30) for v in range(900)])
        url = f"http://{host}:{port}/attributes/age/estimate?op=range&low=0&high=29"
        with urllib.request.urlopen(url) as response:
            payload = json.loads(response.read())
        assert payload["result"] == pytest.approx(900.0, rel=0.01)


class TestBufferedIngest:
    def test_pipeline_backed_server_buffers_and_flushes(self):
        store = HistogramStore()
        pipeline = IngestPipeline(store, max_batch=10_000, auto_flush_interval=0.02)
        with StatisticsServer(store, pipeline=pipeline) as running:
            host, port = running.address
            client = StatisticsClient(host, port)
            client.create("age", "dc", memory_kb=0.5)
            response = client.ingest("age", insert=[float(v) for v in range(100)])
            assert response["buffered"] is True
            deadline = time.time() + 5.0
            while client.total_count("age") < 100 and time.time() < deadline:
                time.sleep(0.01)
            assert client.total_count("age") == pytest.approx(100.0)
            client.close()


class TestPartialApply:
    def test_sync_ingest_partial_failure_reports_inserted(self, client):
        client.create("age", "dc", memory_kb=0.5)
        # The insert half commits before the delete half underflows.
        with pytest.raises(ServiceError, match="400") as excinfo:
            client.ingest("age", insert=[1.0], delete=[1.0, 2.0])
        payload = excinfo.value.payload
        assert payload["partial"] is True
        assert payload["inserted"] == 1
        assert "generation" in payload


class TestStopWithoutStart:
    def test_stop_on_never_started_server_returns(self):
        server = StatisticsServer(HistogramStore())
        server.stop()  # must not hang waiting for a serve loop that never ran
        # The socket is closed: a fresh server can bind the same port.
        assert server._thread is None


class TestAttributeNameEscaping:
    """Names containing URL-hostile characters must route correctly."""

    @pytest.mark.parametrize(
        "name",
        ["orders/amount", "unit price", "discount%", "a/b c%d", "100%/total share"],
    )
    def test_hostile_names_round_trip(self, client, name):
        client.create(name, "dc", memory_kb=0.5)
        client.ingest(name, insert=[1.0, 2.0, 3.0])
        assert client.total_count(name) == pytest.approx(3.0)
        assert client.stats(name)["name"] == name
        snapshot = client.snapshot(name)
        assert snapshot["name"] == name
        client.drop(name)
        with pytest.raises(UnknownAttributeError):
            client.total_count(name)

    def test_slash_name_does_not_shadow_another_route(self, client):
        # If "age/ingest" were not escaped it would route to the ingest action
        # of attribute "age" instead of the stats of attribute "age/ingest".
        client.create("age", "dc", memory_kb=0.5)
        client.create("age/ingest", "dc", memory_kb=0.5)
        client.ingest("age/ingest", insert=[1.0])
        assert client.total_count("age") == 0.0
        assert client.total_count("age/ingest") == pytest.approx(1.0)


class _FlakySocket:
    """Accepts TCP connections and immediately closes them (N times)."""

    def __init__(self):
        import socket as socket_module

        self.socket = socket_module.socket()
        self.socket.bind(("127.0.0.1", 0))
        self.socket.listen(8)
        self.socket.settimeout(0.1)
        self.port = self.socket.getsockname()[1]
        self.accepted = 0
        self._stop = False
        self._thread = None

    def _loop(self):
        import socket as socket_module

        while not self._stop:
            try:
                connection, _ = self.socket.accept()
            except socket_module.timeout:
                continue
            except OSError:
                break
            self.accepted += 1
            connection.close()

    def __enter__(self):
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._stop = True
        self._thread.join()
        self.socket.close()


class TestClientRetries:
    def test_connect_failures_retry_with_backoff_then_raise(self, monkeypatch):
        import socket as socket_module

        # Reserve a port and close it so nothing listens there.
        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()

        sleeps = []
        monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
        flaky = StatisticsClient("127.0.0.1", dead_port, retries=2, retry_backoff=0.05)
        with pytest.raises(OSError):
            flaky.health()
        # Two retries -> two backoff sleeps, exponentially growing.
        assert sleeps == [0.05, 0.1]

    def test_get_after_connect_is_retried(self):
        with _FlakySocket() as flaky_server:
            flaky = StatisticsClient(
                "127.0.0.1", flaky_server.port, retries=2, retry_backoff=0.01
            )
            with pytest.raises(Exception):
                flaky.health()
        # One initial attempt plus two retries, all reached the socket.
        assert flaky_server.accepted == 3

    def test_post_after_connect_is_never_retried(self):
        # A POST whose fate is unknown must not be re-sent (double-apply risk).
        with _FlakySocket() as flaky_server:
            flaky = StatisticsClient(
                "127.0.0.1", flaky_server.port, retries=2, retry_backoff=0.01
            )
            with pytest.raises(Exception):
                flaky.ingest("age", insert=[1.0])
        assert flaky_server.accepted == 1

    def test_zero_retries_fails_fast(self, monkeypatch):
        import socket as socket_module

        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()

        sleeps = []
        monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
        client = StatisticsClient("127.0.0.1", dead_port, retries=0)
        with pytest.raises(OSError):
            client.health()
        assert sleeps == []

    def test_retry_recovers_when_server_appears(self, server):
        # Against a live server the retrying client behaves identically.
        host, port = server.address
        with StatisticsClient(host, port, retries=3, retry_backoff=0.01) as patient:
            assert patient.health()["status"] == "ok"


def handler_threads():
    """Live request-handler threads of every ThreadingHTTPServer in the process."""
    return {
        thread
        for thread in threading.enumerate()
        if "process_request_thread" in thread.name
    }


def assert_stop_ends_keep_alive_handler(server, client_class):
    """A pooled connection's idle handler thread must exit when the server stops."""
    baseline = handler_threads()
    with client_class(*server.address) as pooled:
        pooled.health()
        # The handler keeps waiting for the pooled connection's next request.
        (handler,) = handler_threads() - baseline
        server.stop()
        handler.join(timeout=5.0)
        assert not handler.is_alive()


def sequential_estimate_latencies(client, name, count=50):
    latencies = []
    for index in range(count):
        start = time.perf_counter()
        client.estimate_range(name, index % 20, 40)
        latencies.append(time.perf_counter() - start)
    return latencies


class _ScriptedHttpServer:
    """A one-connection-at-a-time HTTP/1.1 server that follows a script.

    Each request it reads takes the next action: ``"ok"`` answers with a
    keep-alive 200, ``"close"`` answers with ``Connection: close`` and hangs
    up, and ``"drop"`` hangs up without answering -- a connection that died
    after the request reached the server.  ``received`` lists the method of
    every request that arrived.
    """

    def __init__(self, script):
        self.script = list(script)
        self.received = []
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.listener.settimeout(0.1)
        self.port = self.listener.getsockname()[1]
        self._stop = False
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop:
            try:
                connection, _ = self.listener.accept()
            except TimeoutError:
                continue
            except OSError:
                break
            # A client that keeps its connection idle must not hang __exit__.
            connection.settimeout(2.0)
            with connection, connection.makefile("rb") as reader, suppress(TimeoutError):
                self._serve(connection, reader)

    def _serve(self, connection, reader):
        while True:
            request_line = reader.readline()
            if not request_line:
                return
            length = 0
            while (line := reader.readline()) not in (b"\r\n", b""):
                key, _, value = line.decode("latin-1").partition(":")
                if key.strip().lower() == "content-length":
                    length = int(value)
            reader.read(length)
            self.received.append(request_line.split()[0].decode("ascii"))
            action = self.script.pop(0) if self.script else "drop"
            if action == "drop":
                return
            body = b'{"status": "ok"}'
            head = f"HTTP/1.1 200 OK\r\nContent-Length: {len(body)}\r\n"
            if action == "close":
                head += "Connection: close\r\n"
            connection.sendall(head.encode("ascii") + b"\r\n" + body)
            if action == "close":
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._stop = True
        self._thread.join()
        self.listener.close()


class TestKeepAlive:
    def test_sequential_estimates_reuse_one_connection_without_stall(self, client):
        # Regression: headers and body leave in two writes, so a handler
        # without TCP_NODELAY stalls every reused connection ~40 ms on the
        # client's delayed ACK.
        client.create("age", "dado", memory_kb=0.5)
        client.ingest("age", insert=[float(v % 50) for v in range(1000)])
        latencies = sequential_estimate_latencies(client, "age")
        assert client.transport_stats["connections_opened"] == 1
        assert client.transport_stats["connections_reused"] == 51
        assert statistics.median(latencies) < 0.010

    def test_connection_counters_are_mirrored_into_metrics(self, server):
        registry = MetricsRegistry()
        with StatisticsClient(*server.address) as pooled:
            pooled.bind_metrics(registry)
            for _ in range(3):
                pooled.health()
        counter = registry.get("repro_client_connections_total")
        host, port = server.address
        endpoint = f"{host}:{port}"
        assert counter.value(endpoint=endpoint, outcome="opened") == 1
        assert counter.value(endpoint=endpoint, outcome="reused") == 2

    def test_concurrent_callers_share_a_bounded_pool(self, client):
        client.create("age", "dc", memory_kb=0.5)
        client.ingest("age", insert=[float(v % 50) for v in range(500)])
        errors = []

        def reader():
            try:
                for _ in range(20):
                    assert client.total_count("age") == pytest.approx(500.0)
            except Exception as error:  # surfaced below
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(POOL_SIZE + 4)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave checkouts and check-ins
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(client._idle) <= POOL_SIZE
        # Every request took exactly one connection: a lost update in the
        # pool or its counters breaks the sum.
        stats = client.transport_stats
        assert stats["connections_opened"] + stats["connections_reused"] == 2 + 20 * len(threads)

    def test_get_reconnects_after_a_server_restart(self):
        with StatisticsServer(HistogramStore()) as first:
            host, port = first.address
            pooled = StatisticsClient(host, port, retries=0)
            assert pooled.health()["status"] == "ok"
        with StatisticsServer(HistogramStore(), host=host, port=port):
            # The idle connection died with the first server; the checkout
            # probe notices and reconnects without spending a retry.
            assert pooled.health()["status"] == "ok"
        assert pooled.transport_stats["connections_opened"] == 2
        assert pooled.transport_stats["connect_retries"] == 0
        pooled.close()

    def test_post_on_a_connection_that_died_after_send_raises(self):
        with _ScriptedHttpServer(["ok", "drop"]) as scripted:
            pooled = StatisticsClient("127.0.0.1", scripted.port, retries=2, retry_backoff=0.01)
            pooled.health()
            with pytest.raises((OSError, HTTPException)):
                pooled.ingest("age", insert=[1.0])
            pooled.close()
        # The POST reached the server once and was never resent.
        assert scripted.received == ["GET", "POST"]

    def test_get_on_a_connection_that_died_after_send_is_retried(self):
        with _ScriptedHttpServer(["ok", "drop", "ok"]) as scripted:
            pooled = StatisticsClient("127.0.0.1", scripted.port, retries=2, retry_backoff=0.01)
            pooled.health()
            assert pooled.health()["status"] == "ok"
            pooled.close()
        assert scripted.received == ["GET", "GET", "GET"]
        assert pooled.transport_stats["connections_opened"] == 2

    def test_connection_close_response_is_not_pooled(self):
        with _ScriptedHttpServer(["close", "ok"]) as scripted:
            pooled = StatisticsClient("127.0.0.1", scripted.port)
            pooled.health()
            pooled.health()
            pooled.close()
        assert pooled.transport_stats["connections_opened"] == 2
        assert pooled.transport_stats["connections_reused"] == 0

    def test_stop_ends_idle_keep_alive_handler_threads(self):
        server = StatisticsServer(HistogramStore()).start()
        assert_stop_ends_keep_alive_handler(server, StatisticsClient)

    def test_close_and_context_manager(self, server):
        with StatisticsClient(*server.address) as pooled:
            pooled.health()
            assert len(pooled._idle) == 1
        assert pooled._idle == []
        with pytest.raises(ServiceError, match="closed"):
            pooled.health()
        pooled.close()  # idempotent
