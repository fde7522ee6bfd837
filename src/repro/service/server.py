"""Stdlib-only JSON HTTP server for the statistics service.

Exposes a :class:`~repro.service.store.HistogramStore` over HTTP using
``http.server.ThreadingHTTPServer`` -- one thread per connection, which is
exactly the concurrency shape the store's per-attribute locking is built for.
No third-party dependencies.

Routes (all payloads JSON):

====== ================================== ===========================================
Method Path                               Meaning
====== ================================== ===========================================
GET    /health                            liveness + attribute count
GET    /metrics                           Prometheus text exposition (when enabled)
GET    /stats                             stats of every attribute (+ pipeline counters)
GET    /attributes                        same as /stats
POST   /attributes                        create an attribute
GET    /attributes/<name>                 stats of one attribute
DELETE /attributes/<name>                 drop an attribute
POST   /attributes/<name>/ingest          {"insert": [..], "delete": [..]}
POST   /attributes/<name>/estimate        {"queries": [{"op": ...}, ...]}
GET    /attributes/<name>/estimate        single query via query string
GET    /attributes/<name>/snapshot        full serialised state
POST   /attributes/<name>/restore         restore from a snapshot payload
====== ================================== ===========================================

Estimate batches are evaluated under one store lock acquisition
(:meth:`HistogramStore.query`), so one response is always internally
consistent.  When the server is constructed with an
:class:`~repro.service.ingest.IngestPipeline`, ingest requests are buffered
through it (the response reports ``"buffered": true``); otherwise they are
applied synchronously before the response is sent.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, unquote, urlparse

from ..exceptions import (
    ConfigurationError,
    DuplicateAttributeError,
    HistogramError,
    UnknownAttributeError,
)
from ..obs.process import ProcessTelemetry
from ..obs.profile import DEFAULT_SAMPLE_INTERVAL_S, SamplingProfiler
from ..obs.registry import MetricsRegistry
from ..obs.trace import TRACE_HEADER, RequestObserver, route_label, use_trace
from .ingest import IngestPipeline
from .store import HistogramStore

__all__ = ["StatisticsServer"]

#: The exposition content type Prometheus scrapers expect.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class KeepAliveHTTPServer(ThreadingHTTPServer):
    """A thread-per-connection server that can close its open connections.

    A keep-alive handler thread blocks reading the next request line until
    its client hangs up.  The server remembers every accepted socket until
    its handler finishes, so :meth:`close_connections` can shut the idle
    ones down on stop and let their threads exit.
    """

    daemon_threads = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut down every accepted socket whose handler is still running."""
        # Copy under the lock, shut down outside it: socket calls never run
        # while a lock is held.
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            with contextlib.suppress(OSError):  # its handler closed it already
                connection.shutdown(socket.SHUT_RDWR)


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the owning server's store."""

    server_version = "repro-statistics/1.0"
    protocol_version = "HTTP/1.1"
    # Headers and body leave in two writes; without TCP_NODELAY a keep-alive
    # client's delayed ACK stalls the second one for about 40 ms.
    disable_nagle_algorithm = True

    # Set by StatisticsServer when building the handler class.
    store: HistogramStore
    pipeline: IngestPipeline | None = None
    quiet: bool = True
    metrics: MetricsRegistry | None = None
    observer: RequestObserver | None = None
    process_telemetry: ProcessTelemetry | None = None
    profiler: SamplingProfiler | None = None

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.quiet:  # pragma: no cover - debugging aid
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_body(status, body, "application/json")

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_body(status, text.encode("utf-8"), content_type)

    def _send_body(self, status: int, body: bytes, content_type: str) -> None:
        self._status_sent = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        trace_id = getattr(self, "_trace_id", None)
        if trace_id is not None:
            # Echo the request's trace id so callers can correlate responses
            # with the slow-request log.
            self.send_header(TRACE_HEADER, trace_id)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _route(self) -> tuple[str, ...]:
        parsed = urlparse(self.path)
        parts = tuple(unquote(part) for part in parsed.path.split("/") if part)
        return parts

    def _query_params(self) -> dict[str, str]:
        parsed = urlparse(self.path)
        return {key: values[-1] for key, values in parse_qs(parsed.query).items()}

    def _handle(self, method: str) -> None:
        observer = self.observer
        trace = None
        start = 0.0
        self._status_sent = 0
        self._trace_id = None
        if observer is not None:
            trace = observer.begin(self.headers.get(TRACE_HEADER))
            if trace is not None:
                self._trace_id = trace.trace_id
            start = time.perf_counter()
        # use_trace(None) is a no-op context, so the untraced path pays only
        # one threading.local store/restore.
        with use_trace(trace):
            self._handle_inner(method)
        if observer is not None:
            observer.finish(
                trace,
                method=method,
                route=route_label(self._route()),
                status=self._status_sent,
                elapsed_s=time.perf_counter() - start,
            )

    def _handle_inner(self, method: str) -> None:
        try:
            payload = self._read_json() if method in ("POST", "PUT") else {}
        except (ValueError, json.JSONDecodeError) as error:
            self._send_json(400, {"error": f"invalid JSON body: {error}"})
            return
        try:
            self._dispatch(method, self._route(), payload)
        except UnknownAttributeError as error:
            # `name` is the structured field clients parse; the message is
            # for humans (its quoting is not a stable contract).
            self._send_json(404, {"error": str(error), "name": error.name})
        except DuplicateAttributeError as error:
            self._send_json(409, {"error": str(error)})
        except (HistogramError, KeyError, TypeError, ValueError) as error:
            self._send_json(400, {"error": f"{type(error).__name__}: {error}"})
        except Exception as error:  # pragma: no cover - defensive
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})

    def do_GET(self) -> None:  # noqa: N802
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _dispatch(self, method: str, route: tuple[str, ...], payload: dict[str, Any]) -> None:
        store = self.store
        if route == ("health",) and method == "GET":
            self._send_json(200, {"status": "ok", "attributes": len(store)})
            return
        if route == ("metrics",) and method == "GET":
            if self.metrics is None:
                self._send_json(404, {"error": "metrics are not enabled on this server"})
            else:
                if self.process_telemetry is not None:
                    # Refresh the process vitals gauges (RSS/GC/threads/
                    # uptime) so every scrape carries current values.
                    self.process_telemetry.update()
                self._send_text(200, self.metrics.render(), METRICS_CONTENT_TYPE)
            return
        if route == ("profile",) and method == "GET":
            if self.profiler is None:
                self._send_json(
                    404, {"error": "profiling is not enabled on this server"}
                )
            else:
                self._send_json(200, self.profiler.attribution())
            return
        if route in (("stats",), ("attributes",)) and method == "GET":
            body: dict[str, Any] = {
                "attributes": [stats.to_dict() for stats in store.stats_all()]
            }
            # /stats is the operator surface: it also reports the ingest
            # pipeline's lifetime counters (requeued/dropped make the
            # bounded-undercount policy visible).
            if route == ("stats",) and self.pipeline is not None:
                body["pipeline"] = self.pipeline.stats
            self._send_json(200, body)
            return
        if route == ("attributes",) and method == "POST":
            stats = store.create(
                payload["name"],
                payload.get("kind", "dc"),
                memory_kb=float(payload.get("memory_kb", 1.0)),
                value_unit=float(payload.get("value_unit", 1.0)),
                disk_factor=float(payload.get("disk_factor", 20.0)),
                seed=int(payload.get("seed", 0)),
                exist_ok=bool(payload.get("exist_ok", False)),
            )
            self._send_json(201, stats.to_dict())
            return
        if len(route) == 2 and route[0] == "attributes":
            name = route[1]
            if method == "GET":
                self._send_json(200, store.stats(name).to_dict())
                return
            if method == "DELETE":
                store.drop(name)
                self._send_json(200, {"dropped": name})
                return
        if len(route) == 3 and route[0] == "attributes":
            name, action = route[1], route[2]
            if action == "ingest" and method == "POST":
                self._ingest(name, payload)
                return
            if action == "estimate":
                if method == "POST":
                    queries = payload.get("queries")
                    if not isinstance(queries, list):
                        raise ValueError('estimate body must contain a "queries" list')
                    self._send_json(200, store.query(name, queries))
                    return
                if method == "GET":
                    query = {
                        key: (value if key == "op" else float(value))
                        for key, value in self._query_params().items()
                    }
                    response = store.query(name, [query])
                    self._send_json(
                        200,
                        {"generation": response["generation"],
                         "result": response["results"][0]},
                    )
                    return
            if action == "snapshot" and method == "GET":
                self._send_json(200, store.snapshot(name))
                return
            if action == "restore" and method == "POST":
                snapshot = payload.get("snapshot", payload)
                self._send_json(200, store.restore(name, snapshot).to_dict())
                return
        self._send_json(404, {"error": f"no route for {method} {self.path}"})

    def _ingest(self, name: str, payload: dict[str, Any]) -> None:
        inserts = payload.get("insert") or []
        deletes = payload.get("delete") or []
        if not isinstance(inserts, list) or not isinstance(deletes, list):
            raise ValueError('"insert" and "delete" must be JSON arrays of numbers')
        if name not in self.store:
            raise UnknownAttributeError(name)
        if self.pipeline is not None:
            self.pipeline.submit(name, inserts)
            self.pipeline.submit_delete(name, deletes)
            self._send_json(
                202,
                {
                    "buffered": True,
                    "inserted": len(inserts),
                    "deleted": len(deletes),
                    "pending": self.pipeline.pending_count(name),
                },
            )
            return
        try:
            inserted = self.store.insert(name, inserts)
        except ConfigurationError:
            # Boundary validation rejects the batch before any mutation, so
            # the generic 400 handler is accurate here.
            raise
        except HistogramError as error:
            # insert_many cannot report how much of the batch was applied;
            # flag the partial apply and return the new generation so clients
            # know not to blindly retry.
            self._send_json(
                400,
                {
                    "error": f"{type(error).__name__}: {error}",
                    "partial": True,
                    "generation": self.store.stats(name).generation,
                },
            )
            return
        try:
            deleted = self.store.delete(name, deletes)
        except HistogramError as error:
            # The insert half is already committed; a plain 400 would invite
            # the client to retry the whole batch and double-insert, so the
            # error response reports what was applied.
            self._send_json(
                400,
                {
                    "error": f"{type(error).__name__}: {error}",
                    "partial": True,
                    "inserted": inserted,
                    "generation": self.store.stats(name).generation,
                },
            )
            return
        self._send_json(
            200,
            {
                "buffered": False,
                "inserted": inserted,
                "deleted": deleted,
                "generation": self.store.stats(name).generation,
            },
        )


class StatisticsServer:
    """A threaded HTTP façade over a :class:`HistogramStore`.

    ``port=0`` binds an ephemeral port (the default, right for tests); the
    bound address is available as :attr:`address` after :meth:`start`.  The
    server runs in a daemon thread, so it never blocks interpreter exit; use
    :meth:`serve_forever` to run it in the foreground instead (the CLI does).

    Also usable as a context manager: entering starts the server, leaving
    stops it and closes the ingest pipeline (when one was supplied).
    """

    def __init__(
        self,
        store: HistogramStore | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        pipeline: IngestPipeline | None = None,
        quiet: bool = True,
        metrics: MetricsRegistry | None = None,
        slow_request_ms: float | None = None,
        trace: bool = False,
        trace_sink: Any | None = None,
        profile: bool | float = False,
    ) -> None:
        self.store = store if store is not None else HistogramStore()
        self.pipeline = pipeline
        # The server reports into the store's registry by default, so one
        # scrape covers HTTP, store, WAL and pipeline metrics; tracing or a
        # slow-request threshold forces a registry into existence.
        registry = metrics if metrics is not None else self.store.metrics
        if registry is None and (trace or slow_request_ms is not None):
            registry = MetricsRegistry()
        self.metrics = registry
        observer = None
        if registry is not None:
            observer = RequestObserver(
                registry,
                server_label="service",
                slow_request_ms=slow_request_ms,
                trace=trace,
                sink=trace_sink,
            )
        # profile=True samples at the default interval; a float is an
        # explicit sampling interval in seconds.  The profiler runs for the
        # server's whole lifetime and GET /profile reports the collapsed
        # hot-path attribution so far.
        self.profiler: SamplingProfiler | None = None
        if profile:
            interval = (
                DEFAULT_SAMPLE_INTERVAL_S if profile is True else float(profile)
            )
            self.profiler = SamplingProfiler(interval)
        telemetry = ProcessTelemetry(registry) if registry is not None else None
        handler = type(
            "_BoundServiceRequestHandler",
            (_ServiceRequestHandler,),
            {
                "store": self.store,
                "pipeline": pipeline,
                "quiet": quiet,
                "metrics": registry,
                "observer": observer,
                "process_telemetry": telemetry,
                "profiler": self.profiler,
            },
        )
        self._httpd = KeepAliveHTTPServer((host, port), handler)
        self._thread: threading.Thread | None = None
        self._started = False

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` pair."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def start(self) -> StatisticsServer:
        """Serve requests from a background daemon thread."""
        if self._thread is None:
            if self.pipeline is not None:
                self.pipeline.start()
            if self.profiler is not None:
                self.profiler.start()
            self._started = True
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-statistics-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve requests on the calling thread until interrupted."""
        if self.pipeline is not None:
            self.pipeline.start()
        if self.profiler is not None:
            self.profiler.start()
        self._started = True
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Stop serving, close the sockets and drain the ingest pipeline.

        Open keep-alive connections are shut down too, so their handler
        threads exit instead of waiting for a next request.  Safe to call on
        a server that was constructed but never started:
        ``BaseServer.shutdown`` would block forever waiting for a
        ``serve_forever`` loop that never ran, so it is only invoked after a
        start, while the bound socket is always closed.
        """
        if self._started:
            self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.close_connections()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self.profiler is not None:
            self.profiler.stop()
        if self.pipeline is not None:
            self.pipeline.close()

    def __enter__(self) -> StatisticsServer:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
