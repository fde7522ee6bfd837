"""Stdlib-only JSON HTTP edge of the statistics service and the cluster.

:class:`HTTPEdge` (server lifecycle) and :class:`EdgeRequestHandler` (JSON
plumbing, tracing, the error map and the shared routes) run on
``http.server.ThreadingHTTPServer``: one thread per connection, the
concurrency shape the store's lock-free reads and per-attribute write locks
are built for.  :class:`StatisticsServer` serves a
:class:`~repro.service.store.HistogramStore` through the edge and
:class:`~repro.cluster.server.ClusterServer` a
:class:`~repro.cluster.coordinator.ClusterCoordinator`.

Routes (all payloads JSON).  ``edge`` routes are served alike for both
backends, ``backend`` routes by each backend's handler, ``cluster`` routes
by the cluster only:

====== ================================ ======= ========================================
Method Path                             Served  Meaning
====== ================================ ======= ========================================
GET    /health                          edge    liveness + attribute (and shard) counts
GET    /metrics                         edge    Prometheus text exposition (when enabled)
GET    /profile                         edge    hot-path attribution (when enabled)
POST   /attributes/<name>/estimate      edge    {"queries": [{"op": ...}, ...]}
GET    /attributes/<name>/estimate      edge    single query via query string
GET    /attributes/<name>/snapshot      edge    serialised state (unpartitioned only)
GET    /stats                           backend all stats (+ pipeline counters / per shard)
GET    /attributes                      backend same as /stats, without pipeline counters
POST   /attributes                      backend create (cluster: ``partition_boundaries``)
GET    /attributes/<name>               backend stats of one attribute
DELETE /attributes/<name>               backend drop (cluster: from every owning shard)
POST   /attributes/<name>/ingest        backend {"insert": [..], "delete": [..]}
POST   /attributes/<name>/restore       backend restore from a snapshot payload
GET    /cluster/stats                   cluster per-shard stats, placement, merge cache
POST   /cluster/ingest                  cluster {"items": {name: values or insert/delete}}
POST   /attributes/<name>/rebalance     cluster {"shard": <id>} -- move the attribute
POST   /shards/<id>/drain               cluster move everything off one shard
POST   /shards/<id>/resync              cluster re-seed a recovered shard's replicas
====== ================================ ======= ========================================

A read-only estimate batch is answered from one published snapshot per
attribute without taking a lock (:meth:`HistogramStore.query`), so one
response is always internally consistent.  When the service is constructed
with an :class:`~repro.service.ingest.IngestPipeline`, ingest requests are
buffered through it (the response reports ``"buffered": true``); otherwise
they are applied synchronously before the response is sent.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, TypeVar
from urllib.parse import parse_qs, unquote, urlparse

from ..exceptions import (
    ClusterError,
    ConfigurationError,
    DuplicateAttributeError,
    HistogramError,
    ShardUnavailableError,
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

_EdgeT = TypeVar("_EdgeT", bound="HTTPEdge")


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


class EdgeRequestHandler(BaseHTTPRequestHandler):
    """JSON plumbing, tracing, the error map and the routes both backends share.

    A backend handler subclasses this directly and supplies
    :meth:`_health` and :meth:`_dispatch_backend`.  The service and cluster
    handlers stay siblings, never parent and child: the benchmark's span
    recorder (``perfbench/tracer``) wraps each one's ``parse_request`` and
    ``_handle`` by name, and a subclass of the other would be wrapped twice.
    """

    protocol_version = "HTTP/1.1"
    # Headers and body leave in two writes; without TCP_NODELAY a keep-alive
    # client's delayed ACK stalls the second one for about 40 ms.
    disable_nagle_algorithm = True

    # Set by HTTPEdge when building the bound handler class.  The backend
    # is a HistogramStore or a ClusterCoordinator; the shared routes need
    # only its query(name, queries) and snapshot(name).
    backend: Any
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
        self._send_body(status, json.dumps(payload).encode("utf-8"), "application/json")

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
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict[str, Any]:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would block until the client hangs up, and
            # with the body's framing unknown the connection cannot carry
            # another request: answer, then close it.
            self.close_connection = True
            raise ValueError(f"Content-Length must be a non-negative integer, got {header!r}")
        if length == 0:
            return {}
        payload = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _route(self) -> tuple[str, ...]:
        parsed = urlparse(self.path)
        return tuple(unquote(part) for part in parsed.path.split("/") if part)

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
        # one threading.local store/restore.  The trace is active for the
        # whole dispatch, so coordinator fan-out legs (which capture it
        # before crossing into the thread pool) carry the same id down to
        # every shard request.
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
        except ValueError as error:  # json.JSONDecodeError is a ValueError
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
        except ShardUnavailableError as error:  # cluster only, like ClusterError
            self._send_json(503, {"error": str(error), "shard": error.shard_id})
        except (ClusterError, HistogramError, KeyError, TypeError, ValueError) as error:
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
        if len(route) == 3 and route[0] == "attributes":
            name, action = route[1], route[2]
            if action == "estimate" and method == "POST":
                queries = payload.get("queries")
                if not isinstance(queries, list):
                    raise ValueError('estimate body must contain a "queries" list')
                self._send_json(200, self.backend.query(name, queries))
                return
            if action == "estimate" and method == "GET":
                query = {
                    key: (values[-1] if key == "op" else float(values[-1]))
                    for key, values in parse_qs(urlparse(self.path).query).items()
                }
                response = self.backend.query(name, [query])
                result = {"generation": response["generation"], "result": response["results"][0]}
                self._send_json(200, result)
                return
            if action == "snapshot" and method == "GET":
                self._send_json(200, self.backend.snapshot(name))
                return
        elif method == "GET" and route == ("health",):
            self._send_json(200, {"status": "ok", **self._health()})
            return
        elif method == "GET" and route == ("metrics",):
            if self.metrics is None:
                self._send_json(404, {"error": "metrics are not enabled on this server"})
                return
            if self.process_telemetry is not None:
                # Refresh the process vitals gauges (RSS/GC/threads/uptime)
                # so every scrape carries current values.
                self.process_telemetry.update()
            self._send_body(200, self.metrics.render().encode("utf-8"), METRICS_CONTENT_TYPE)
            return
        elif method == "GET" and route == ("profile",):
            if self.profiler is None:
                self._send_json(404, {"error": "profiling is not enabled on this server"})
            else:
                self._send_json(200, self.profiler.attribution())
            return
        if not self._dispatch_backend(method, route, payload):
            self._send_json(404, {"error": f"no route for {method} {self.path}"})

    @staticmethod
    def _create_options(payload: dict[str, Any]) -> dict[str, Any]:
        """The histogram options of a ``POST /attributes`` body."""
        return {
            "memory_kb": float(payload.get("memory_kb", 1.0)),
            "value_unit": float(payload.get("value_unit", 1.0)),
            "disk_factor": float(payload.get("disk_factor", 20.0)),
            "seed": int(payload.get("seed", 0)),
            "exist_ok": bool(payload.get("exist_ok", False)),
        }

    @staticmethod
    def _write_batch(payload: dict[str, Any]) -> tuple[list[Any], list[Any]]:
        """The ``insert`` and ``delete`` lists of an ingest body."""
        inserts = payload.get("insert") or []
        deletes = payload.get("delete") or []
        if not isinstance(inserts, list) or not isinstance(deletes, list):
            raise ValueError('"insert" and "delete" must be JSON arrays of numbers')
        return inserts, deletes

    def _health(self) -> dict[str, Any]:
        """The backend's fields of the ``GET /health`` body."""
        raise NotImplementedError

    def _dispatch_backend(
        self, method: str, route: tuple[str, ...], payload: dict[str, Any]
    ) -> bool:
        """Serve a backend-specific route; ``False`` when none matches."""
        raise NotImplementedError


class HTTPEdge:
    """The lifecycle both servers share around one bound handler class.

    ``port=0`` binds an ephemeral port (the default, right for tests); the
    bound address is available as :attr:`address`.  :meth:`start` serves
    from a daemon thread, so it never blocks interpreter exit;
    :meth:`serve_forever` serves in the foreground instead (the CLI does).
    Also usable as a context manager: entering starts the server, leaving
    stops it.  Subclasses set the class attributes below and may override
    :meth:`_on_start` / :meth:`_on_stop`.
    """

    handler_class: type[EdgeRequestHandler]
    server_label: str  # the `server` label of the HTTP metrics
    thread_name: str

    def __init__(
        self, backend: Any, *, host: str, port: int, quiet: bool,
        metrics: MetricsRegistry | None, slow_request_ms: float | None, trace: bool,
        trace_sink: Any | None, profile: bool | float, **handler_attributes: Any,
    ) -> None:
        # The server reports into the backend's registry by default, so one
        # scrape covers HTTP and everything the backend records (store, WAL
        # and pipeline; or fan-out and replication).  Tracing or a
        # slow-request threshold forces a registry into existence.
        registry = metrics if metrics is not None else backend.metrics
        if registry is None and (trace or slow_request_ms is not None):
            registry = MetricsRegistry()
        self.metrics = registry
        observer = None
        if registry is not None:
            observer = RequestObserver(
                registry,
                server_label=self.server_label,
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
            interval = DEFAULT_SAMPLE_INTERVAL_S if profile is True else float(profile)
            self.profiler = SamplingProfiler(interval)
        handler = type(
            "_Bound" + self.handler_class.__name__.lstrip("_"),
            (self.handler_class,),
            {
                "backend": backend,
                "quiet": quiet,
                "metrics": registry,
                "observer": observer,
                "process_telemetry": ProcessTelemetry(registry) if registry is not None else None,
                "profiler": self.profiler,
                **handler_attributes,
            },
        )
        self._httpd = KeepAliveHTTPServer((host, port), handler)
        self._thread: threading.Thread | None = None
        self._started = False
        self._stopped = False

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` pair."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def _on_start(self) -> None:
        """Start what the backend needs running while requests are served."""

    def _on_stop(self) -> None:
        """Close what the backend holds once serving has ended."""

    def _begin(self) -> None:
        self._on_start()
        if self.profiler is not None:
            self.profiler.start()
        self._started = True

    def start(self: _EdgeT) -> _EdgeT:
        """Serve requests from a background daemon thread."""
        if self._thread is None:
            self._begin()
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, name=self.thread_name, daemon=True
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve requests on the calling thread until interrupted."""
        self._begin()
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Stop serving, close the sockets, then run :meth:`_on_stop`.

        Open keep-alive connections are shut down too, so their handler
        threads exit instead of waiting for a next request.  Idempotent: a
        second call (e.g. a signal handler racing the ``--duration``
        teardown) returns at once.  Safe on a server that was constructed
        but never started: ``BaseServer.shutdown`` would block forever
        waiting for a ``serve_forever`` loop that never ran, so it is only
        invoked after a start, while the bound socket is always closed.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._started:
            self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.close_connections()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self.profiler is not None:
            self.profiler.stop()
        self._on_stop()

    def __enter__(self: _EdgeT) -> _EdgeT:
        return self.start()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.stop()


class _ServiceRequestHandler(EdgeRequestHandler):
    """Serves the store routes of the single-node service."""

    server_version = "repro-statistics/1.0"

    backend: HistogramStore
    pipeline: IngestPipeline | None = None

    def _health(self) -> dict[str, Any]:
        return {"attributes": len(self.backend)}

    def _dispatch_backend(
        self, method: str, route: tuple[str, ...], payload: dict[str, Any]
    ) -> bool:
        store = self.backend
        if len(route) == 3 and route[0] == "attributes":
            name, action = route[1], route[2]
            if action == "ingest" and method == "POST":
                self._ingest(name, payload)
                return True
            if action == "restore" and method == "POST":
                snapshot = payload.get("snapshot", payload)
                self._send_json(200, store.restore(name, snapshot).to_dict())
                return True
        elif len(route) == 2 and route[0] == "attributes":
            if method == "GET":
                self._send_json(200, store.stats(route[1]).to_dict())
                return True
            if method == "DELETE":
                store.drop(route[1])
                self._send_json(200, {"dropped": route[1]})
                return True
        elif route in (("stats",), ("attributes",)) and method == "GET":
            body: dict[str, Any] = {
                "attributes": [stats.to_dict() for stats in store.stats_all()]
            }
            # /stats is the operator surface: it also reports the ingest
            # pipeline's lifetime counters (requeued/dropped make the
            # bounded-undercount policy visible).
            if route == ("stats",) and self.pipeline is not None:
                body["pipeline"] = self.pipeline.stats
            self._send_json(200, body)
            return True
        elif route == ("attributes",) and method == "POST":
            stats = store.create(
                payload["name"], payload.get("kind", "dc"), **self._create_options(payload)
            )
            self._send_json(201, stats.to_dict())
            return True
        return False

    def _ingest(self, name: str, payload: dict[str, Any]) -> None:
        inserts, deletes = self._write_batch(payload)
        store = self.backend
        if name not in store:
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
            inserted = store.insert(name, inserts)
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
                    "generation": store.stats(name).generation,
                },
            )
            return
        try:
            deleted = store.delete(name, deletes)
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
                    "generation": store.stats(name).generation,
                },
            )
            return
        self._send_json(
            200,
            {
                "buffered": False,
                "inserted": inserted,
                "deleted": deleted,
                "generation": store.stats(name).generation,
            },
        )


class StatisticsServer(HTTPEdge):
    """A threaded HTTP façade over a :class:`HistogramStore`.

    Lifecycle as :class:`HTTPEdge`; starting also starts the ingest
    pipeline (when one was supplied) and stopping closes it.
    """

    handler_class = _ServiceRequestHandler
    server_label = "service"
    thread_name = "repro-statistics-server"

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
        super().__init__(
            self.store, host=host, port=port, quiet=quiet, metrics=metrics,
            slow_request_ms=slow_request_ms, trace=trace, trace_sink=trace_sink,
            profile=profile, pipeline=pipeline,
        )

    def _on_start(self) -> None:
        if self.pipeline is not None:
            self.pipeline.start()

    def _on_stop(self) -> None:
        if self.pipeline is not None:
            self.pipeline.close()
