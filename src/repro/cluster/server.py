"""HTTP front-end for the cluster: one JSON API over many shards.

The :class:`ClusterServer` exposes a
:class:`~repro.cluster.coordinator.ClusterCoordinator` over the same
stdlib-only JSON HTTP surface the single-node
:class:`~repro.service.server.StatisticsServer` speaks: every service route
exists here (ingest / estimate / stats / snapshot / restore / drop), so an
existing :class:`StatisticsClient` -- and the ``store-stats`` CLI -- keeps
working against a cluster; response *payloads* carry extra cluster fields
(``per_shard``, ``merged``, ``partitioned``), and per-attribute stats /
snapshot bodies differ in shape for partitioned attributes.  On top it adds
the cluster-only routes:

====== ================================== ===========================================
Method Path                               Meaning
====== ================================== ===========================================
GET    /health                            liveness + shard / attribute counts
GET    /metrics                           Prometheus text exposition (when enabled)
GET    /cluster/stats                     per-shard stats, placement, merge cache
GET    /stats (or /attributes)            flat per-shard attribute stats list
POST   /attributes                        create (supports ``partition_boundaries``)
GET    /attributes/<name>                 cluster-level stats of one attribute
DELETE /attributes/<name>                 drop from every owning shard
POST   /attributes/<name>/ingest          scatter write batch
POST   /attributes/<name>/estimate        consistent query batch (merged when partitioned)
GET    /attributes/<name>/estimate        single query via query string
GET    /attributes/<name>/snapshot        serialised state (unpartitioned attributes)
POST   /attributes/<name>/restore         restore onto the routed home shard
POST   /attributes/<name>/rebalance       ``{"shard": <id>}`` -- move the attribute
POST   /shards/<id>/drain                 move everything off one shard
POST   /shards/<id>/resync                re-seed a recovered shard's replicas
====== ================================== ===========================================

:class:`ClusterClient` extends :class:`StatisticsClient` (create / ingest /
estimate / stats / drop are byte-identical routes) with the cluster verbs.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler
from collections.abc import Mapping, Sequence
from typing import Any

from ..exceptions import (
    ClusterError,
    DuplicateAttributeError,
    HistogramError,
    ShardUnavailableError,
    UnknownAttributeError,
)
from ..obs.process import ProcessTelemetry
from ..obs.profile import DEFAULT_SAMPLE_INTERVAL_S, SamplingProfiler
from ..obs.registry import MetricsRegistry
from ..obs.trace import TRACE_HEADER, RequestObserver, route_label, use_trace
from ..service.client import StatisticsClient
from ..service.server import METRICS_CONTENT_TYPE, KeepAliveHTTPServer
from .coordinator import ClusterCoordinator

__all__ = ["ClusterServer", "ClusterClient"]


class _ClusterRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the owning server's coordinator."""

    server_version = "repro-statistics-cluster/1.0"
    protocol_version = "HTTP/1.1"
    # Two writes per response (headers, body): see the service handler.
    disable_nagle_algorithm = True

    # Set by ClusterServer when building the handler class.
    coordinator: ClusterCoordinator
    quiet: bool = True
    metrics: MetricsRegistry | None = None
    observer: RequestObserver | None = None
    process_telemetry: ProcessTelemetry | None = None
    profiler: SamplingProfiler | None = None

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.quiet:  # pragma: no cover - debugging aid
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # plumbing (mirrors the service handler)
    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        self._send_body(status, json.dumps(payload).encode("utf-8"), "application/json")

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_body(status, text.encode("utf-8"), content_type)

    def _send_body(self, status: int, body: bytes, content_type: str) -> None:
        self._status_sent = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        trace_id = getattr(self, "_trace_id", None)
        if trace_id is not None:
            self.send_header(TRACE_HEADER, trace_id)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        payload = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _route(self) -> tuple[str, ...]:
        from urllib.parse import unquote, urlparse

        parsed = urlparse(self.path)
        return tuple(unquote(part) for part in parsed.path.split("/") if part)

    def _query_params(self) -> dict[str, str]:
        from urllib.parse import parse_qs, urlparse

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
        # The trace is active for the whole dispatch, so coordinator fan-out
        # legs (which capture it before crossing into the thread pool) carry
        # the same id down to every shard request.
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
            # Mirror the single-node service: `name` is the structured field
            # clients parse, the message is for humans.
            self._send_json(404, {"error": str(error), "name": error.name})
        except DuplicateAttributeError as error:
            self._send_json(409, {"error": str(error)})
        except ShardUnavailableError as error:
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
        coordinator = self.coordinator
        if route == ("health",) and method == "GET":
            self._send_json(
                200,
                {
                    "status": "ok",
                    "shards": len(coordinator.shard_ids),
                    "attributes": len(coordinator.names()),
                },
            )
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
        if route == ("cluster", "stats") and method == "GET":
            self._send_json(200, coordinator.stats())
            return
        if route == ("cluster", "ingest") and method == "POST":
            items = payload.get("items")
            if not isinstance(items, dict):
                raise ValueError('"items" must be a JSON object mapping attribute names')
            for values in items.values():
                if isinstance(values, dict):
                    if not all(
                        isinstance(values.get(key, []), list)
                        for key in ("insert", "delete")
                    ):
                        raise ValueError('"insert" and "delete" must be JSON arrays')
                elif not isinstance(values, list):
                    raise ValueError("batch values must be arrays or insert/delete objects")
            self._send_json(200, coordinator.ingest_batch(items))
            return
        if route in (("stats",), ("attributes",)) and method == "GET":
            # Service-compatible flat listing (what `store-stats` consumes):
            # one row per (shard, attribute), tagged with the shard id.
            attributes = [
                {**stats, "shard": shard["shard_id"]}
                for shard in coordinator.stats()["shards"]
                for stats in shard["attributes"]
            ]
            self._send_json(200, {"attributes": attributes})
            return
        if route == ("attributes",) and method == "POST":
            result = coordinator.create(
                payload["name"],
                payload.get("kind", "dc"),
                memory_kb=float(payload.get("memory_kb", 1.0)),
                value_unit=float(payload.get("value_unit", 1.0)),
                disk_factor=float(payload.get("disk_factor", 20.0)),
                seed=int(payload.get("seed", 0)),
                exist_ok=bool(payload.get("exist_ok", False)),
                partition_boundaries=payload.get("partition_boundaries"),
                partition_shards=payload.get("partition_shards"),
            )
            self._send_json(201, result)
            return
        if len(route) == 2 and route[0] == "attributes":
            name = route[1]
            if method == "GET":
                self._send_json(200, coordinator.attribute_stats(name))
                return
            if method == "DELETE":
                self._send_json(200, coordinator.drop(name))
                return
        if len(route) == 3 and route[0] == "attributes":
            name, action = route[1], route[2]
            if action == "ingest" and method == "POST":
                inserts = payload.get("insert") or []
                deletes = payload.get("delete") or []
                if not isinstance(inserts, list) or not isinstance(deletes, list):
                    raise ValueError('"insert" and "delete" must be JSON arrays of numbers')
                self._send_json(200, coordinator.ingest(name, insert=inserts, delete=deletes))
                return
            if action == "estimate":
                if method == "POST":
                    queries = payload.get("queries")
                    if not isinstance(queries, list):
                        raise ValueError('estimate body must contain a "queries" list')
                    self._send_json(200, coordinator.query(name, queries))
                    return
                if method == "GET":
                    query = {
                        key: (value if key == "op" else float(value))
                        for key, value in self._query_params().items()
                    }
                    response = coordinator.query(name, [query])
                    self._send_json(
                        200,
                        {"generation": response["generation"],
                         "result": response["results"][0]},
                    )
                    return
            if action == "snapshot" and method == "GET":
                self._send_json(200, coordinator.snapshot(name))
                return
            if action == "restore" and method == "POST":
                snapshot = payload.get("snapshot", payload)
                self._send_json(200, coordinator.restore(name, snapshot))
                return
            if action == "rebalance" and method == "POST":
                self._send_json(200, coordinator.rebalance(name, payload["shard"]))
                return
        if len(route) == 3 and route[0] == "shards" and route[2] == "drain" and method == "POST":
            self._send_json(200, coordinator.drain(route[1]))
            return
        if len(route) == 3 and route[0] == "shards" and route[2] == "resync" and method == "POST":
            self._send_json(200, coordinator.resync(route[1]))
            return
        self._send_json(404, {"error": f"no route for {method} {self.path}"})


class ClusterServer:
    """A threaded HTTP façade over a :class:`ClusterCoordinator`.

    Same lifecycle contract as the single-node server: ``port=0`` binds an
    ephemeral port, :meth:`start` serves from a daemon thread,
    :meth:`serve_forever` serves in the foreground, and the context manager
    starts / stops around the block (closing the coordinator's fan-out pool
    on exit).
    """

    def __init__(
        self,
        coordinator: ClusterCoordinator,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
        metrics: MetricsRegistry | None = None,
        slow_request_ms: float | None = None,
        trace: bool = False,
        trace_sink: Any | None = None,
        profile: bool | float = False,
    ) -> None:
        self.coordinator = coordinator
        # Default to the coordinator's registry so one scrape covers HTTP,
        # fan-out and replication metrics; tracing or a slow-request
        # threshold forces a registry into existence.
        registry = metrics if metrics is not None else coordinator.metrics
        if registry is None and (trace or slow_request_ms is not None):
            registry = MetricsRegistry()
        self.metrics = registry
        observer = None
        if registry is not None:
            observer = RequestObserver(
                registry,
                server_label="cluster",
                slow_request_ms=slow_request_ms,
                trace=trace,
                sink=trace_sink,
            )
        # profile=True samples at the default interval; a float is an
        # explicit sampling interval in seconds (same knob as the service
        # server -- GET /profile reports collapsed hot-path attribution).
        self.profiler: SamplingProfiler | None = None
        if profile:
            interval = (
                DEFAULT_SAMPLE_INTERVAL_S if profile is True else float(profile)
            )
            self.profiler = SamplingProfiler(interval)
        telemetry = ProcessTelemetry(registry) if registry is not None else None
        handler = type(
            "_BoundClusterRequestHandler",
            (_ClusterRequestHandler,),
            {
                "coordinator": coordinator,
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
        self._stopped = False

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` pair."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def start(self) -> ClusterServer:
        """Serve requests from a background daemon thread."""
        if self._thread is None:
            if self.profiler is not None:
                self.profiler.start()
            self._started = True
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-cluster-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve requests on the calling thread until interrupted."""
        if self.profiler is not None:
            self.profiler.start()
        self._started = True
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Stop serving, close the sockets and the coordinator's fan-out pool.

        Open keep-alive connections are shut down too, so their handler
        threads exit.  Idempotent: a second call (e.g. a signal handler
        racing the ``--duration`` teardown) returns without touching the
        closed socket.
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
        self.coordinator.close()

    def __enter__(self) -> ClusterServer:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


class ClusterClient(StatisticsClient):
    """Cluster-aware client: the service client plus the cluster verbs.

    The inherited per-attribute surface (``ingest`` / ``query`` /
    ``estimate_*`` / ``stats(name)`` / ``drop`` / ``total_count``) hits the
    identical routes on a :class:`ClusterServer`.
    """

    def create(
        self,
        name: str,
        kind: str = "dc",
        *,
        memory_kb: float = 1.0,
        value_unit: float = 1.0,
        disk_factor: float = 20.0,
        seed: int = 0,
        exist_ok: bool = False,
        partition_boundaries: Sequence[float] | None = None,
        partition_shards: Sequence[str] | None = None,
    ) -> dict[str, Any]:
        """Create an attribute; pass ``partition_boundaries`` to range-partition it."""
        payload: dict[str, Any] = {
            "name": name,
            "kind": kind,
            "memory_kb": memory_kb,
            "value_unit": value_unit,
            "disk_factor": disk_factor,
            "seed": seed,
            "exist_ok": exist_ok,
        }
        if partition_boundaries is not None:
            payload["partition_boundaries"] = list(partition_boundaries)
        if partition_shards is not None:
            payload["partition_shards"] = list(partition_shards)
        return self._request("POST", "/attributes", payload)

    def cluster_stats(self) -> dict[str, Any]:
        """Per-shard stats, placement rules and the merge-cache state."""
        return self._request("GET", "/cluster/stats")

    def ingest_batch(self, items: Mapping[str, Any]) -> dict[str, Any]:
        """Apply a multi-attribute write batch in one round trip.

        Each entry maps an attribute name to either a list of values to
        insert or an object with ``insert`` / ``delete`` value lists; the
        coordinator groups the whole batch per shard and applies one
        concurrent stream per shard.
        """
        return self._request("POST", "/cluster/ingest", {"items": dict(items)})

    def rebalance(self, name: str, shard_id: str) -> dict[str, Any]:
        """Move an unpartitioned attribute to ``shard_id``."""
        return self._request(
            "POST", self._attribute_path(name, "rebalance"), {"shard": shard_id}
        )

    def drain(self, shard_id: str) -> dict[str, Any]:
        """Move every attribute off ``shard_id``."""
        from urllib.parse import quote

        return self._request("POST", f"/shards/{quote(shard_id, safe='')}/drain", {})

    def resync(self, shard_id: str) -> dict[str, Any]:
        """Heal a recovered shard: re-seed every replica it should hold."""
        from urllib.parse import quote

        return self._request("POST", f"/shards/{quote(shard_id, safe='')}/resync", {})
