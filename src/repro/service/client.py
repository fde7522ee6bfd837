"""Stdlib HTTP client for the statistics service.

A thin JSON wrapper over :mod:`http.client` mirroring every server route, so
tests (and the CLI's ``store-stats`` command) can drive an in-process
:class:`~repro.service.server.StatisticsServer` without third-party
dependencies.

Connections are persistent (HTTP/1.1 keep-alive).  The client keeps a small
lock-guarded LIFO pool of idle connections, so it is safe to share between
threads: each request checks one connection out, uses it alone and checks it
back in.  Concurrent requests beyond the pool's capacity open extra
connections, which are closed again on check-in.  :meth:`StatisticsClient.close`
(or leaving a ``with`` block) closes the idle ones.

Attribute names are URL-escaped with :func:`urllib.parse.quote` (``safe=''``),
so names containing ``/``, spaces or ``%`` route correctly; the server
unquotes each path segment on the way in.

Dead connections and retries
----------------------------

A pooled connection can die while idle, for example when the server restarts.
Checkout therefore probes an idle socket before reusing it: a readable idle
socket means the server closed it (or sent bytes nobody asked for), so it is
closed and the next idle one is probed, or a new connection is opened.  The
probe and the connect belong to the *connect phase*: nothing of the request
has reached the server yet, so failures there are retried with bounded
exponential backoff (the cluster coordinator's scatter-gather fan-out hits
shards that may still be binding or briefly restarting).

Once the request was handed to the transport its fate is unknown.  Any failure
from then on closes that connection, and only an idempotent ``GET`` may be
retried; a ``POST`` whose fate is unknown is raised immediately so the caller
decides -- resending it could double-apply a write (REP007).  A response that
announces ``Connection: close`` is read to the end and its connection is not
returned to the pool.
"""

from __future__ import annotations

import json
import re
import select
import socket
import threading
import time
from http.client import HTTPConnection, HTTPException, HTTPResponse
from collections.abc import Mapping, Sequence
from typing import Any
from urllib.parse import quote

from .._validation import require_positive_float
from ..exceptions import ServiceError, UnknownAttributeError
from ..obs.trace import TRACE_HEADER, current_trace_id

__all__ = ["StatisticsClient"]

#: Idle keep-alive connections a client keeps per server.  Concurrent
#: requests beyond it still run; their extra connections close on check-in.
POOL_SIZE = 8


def _peer_closed(sock: socket.socket) -> bool:
    """True when an idle keep-alive socket is readable.

    Nothing is owed on an idle connection, so readability means EOF (the
    server closed it), a reset, or stray bytes -- none of which a new request
    can safely follow.
    """
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    readable, _, _ = select.select([sock], [], [], 0)  # pragma: no cover
    return bool(readable)


class StatisticsClient:
    """Client for a running :class:`StatisticsServer` at ``host:port``.

    Parameters
    ----------
    retries:
        Additional attempts after a retriable transport failure (0 disables
        retrying; default 2, i.e. up to 3 connection attempts).
    retry_backoff:
        Sleep before the first retry, doubled on each subsequent one.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 10.0,
        retries: int = 2,
        retry_backoff: float = 0.05,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retries:
            require_positive_float(retry_backoff, "retry_backoff")
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)
        # Transport telemetry: connect-retry attempts, total backoff time and
        # how many connections were opened versus reused from the pool.
        # Always kept as a client-side stat; additionally mirrored into a
        # metrics registry after bind_metrics() (RemoteShard does this so the
        # coordinator's registry sees per-endpoint transport behaviour).
        self.transport_stats: dict[str, float] = {
            "connect_retries": 0,
            "backoff_seconds": 0.0,
            "connections_opened": 0,
            "connections_reused": 0,
        }
        self._stats_lock = threading.Lock()
        self._m_connect_retries: Any | None = None
        self._m_backoff_seconds: Any | None = None
        self._m_connections: Any | None = None
        self._endpoint = f"{host}:{port}"
        self._idle: list[HTTPConnection] = []
        self._pool_lock = threading.Lock()
        self._closed = False

    def bind_metrics(self, metrics: Any) -> None:
        """Mirror transport stats into ``metrics`` with an endpoint label."""
        self._m_connect_retries = metrics.counter(
            "repro_client_connect_retries_total",
            "Connection attempts that failed and were retried, per endpoint",
            labelnames=("endpoint",),
        )
        self._m_backoff_seconds = metrics.counter(
            "repro_client_retry_backoff_seconds_total",
            "Total time slept in retry backoff, per endpoint",
            labelnames=("endpoint",),
        )
        self._m_connections = metrics.counter(
            "repro_client_connections_total",
            "Connections a request used, per endpoint, by whether it was "
            "opened for the request or reused from the keep-alive pool",
            labelnames=("endpoint", "outcome"),
        )

    def _record_connection(self, outcome: str) -> None:
        with self._stats_lock:
            self.transport_stats[f"connections_{outcome}"] += 1
        if self._m_connections is not None:
            self._m_connections.inc(1, endpoint=self._endpoint, outcome=outcome)

    def _record_connect_failure(self) -> None:
        with self._stats_lock:
            self.transport_stats["connect_retries"] += 1
        if self._m_connect_retries is not None:
            self._m_connect_retries.inc(1, endpoint=self._endpoint)

    def _record_backoff(self, pause: float) -> None:
        with self._stats_lock:
            self.transport_stats["backoff_seconds"] += pause
        if self._m_backoff_seconds is not None:
            self._m_backoff_seconds.inc(pause, endpoint=self._endpoint)

    # ------------------------------------------------------------------
    # keep-alive pool
    # ------------------------------------------------------------------
    def _checkout(self) -> HTTPConnection:
        """A live pooled connection, or a newly opened one (connect phase).

        Idle connections are probed first; one the server closed is dropped
        and the next is tried.  Connect errors propagate as :class:`OSError`:
        nothing has reached the server, so the caller may always retry.
        """
        while True:
            with self._pool_lock:
                if self._closed:
                    raise ServiceError("client is closed")
                connection = self._idle.pop() if self._idle else None
            if connection is None:
                break
            if not _peer_closed(connection.sock):
                self._record_connection("reused")
                return connection
            connection.close()
        # Connect OUTSIDE the pool lock: socket I/O under a held lock would
        # stall every concurrent checkout.
        connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            connection.connect()
        except OSError:
            connection.close()
            raise
        self._record_connection("opened")
        return connection

    def _checkin(self, connection: HTTPConnection, response: HTTPResponse) -> None:
        """Return a connection to the pool unless the server is closing it."""
        if not response.will_close and connection.sock is not None:
            with self._pool_lock:
                if not self._closed and len(self._idle) < POOL_SIZE:
                    self._idle.append(connection)
                    return
        connection.close()

    def close(self) -> None:
        """Close every pooled connection; later requests raise (idempotent)."""
        with self._pool_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> StatisticsClient:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _raw_request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, bytes]:
        headers = dict(headers or {})
        # Propagate the active trace so one id follows the request through
        # coordinator fan-out legs down to each shard's request log.
        trace_id = current_trace_id()
        if trace_id is not None:
            headers[TRACE_HEADER] = trace_id
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                pause = self.retry_backoff * (2 ** (attempt - 1))
                self._record_backoff(pause)
                time.sleep(pause)
            try:
                # Probing idle connections and connecting cannot have reached
                # the server, so a failure here is always safe to retry.
                connection = self._checkout()
            except OSError as error:
                self._record_connect_failure()
                last_error = error
                continue
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except (OSError, HTTPException) as error:
                connection.close()
                # The request may or may not have been processed; only an
                # idempotent GET can be retried without double-applying.
                if method != "GET":
                    raise
                last_error = error
                continue
            self._checkin(connection, response)
            return response.status, raw
        assert last_error is not None
        raise last_error

    def _request(
        self, method: str, path: str, payload: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        status, raw = self._raw_request(method, path, body, headers)
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except json.JSONDecodeError:
            decoded = {"error": raw.decode("utf-8", "replace")}
        if status >= 400:
            message = decoded.get("error", f"HTTP {status}")
            if status == 404 and "unknown attribute" in str(message):
                raise UnknownAttributeError(
                    self._unknown_attribute_name(decoded, str(message))
                )
            error = ServiceError(f"HTTP {status}: {message}")
            # Expose the structured body (e.g. partial-apply reports from
            # /ingest) to callers that need more than the message.
            error.payload = decoded
            raise error
        return decoded

    @staticmethod
    def _unknown_attribute_name(decoded: Mapping[str, Any], message: str) -> str:
        """Best-effort attribute name from a 404 body.

        Prefers the server's structured ``name`` field; falls back to the
        first quoted token of the human-readable message.  A body without
        either (an old server, a proxy error page that happens to contain
        the trigger phrase) yields the whole message rather than crashing
        the client on a parse assumption.
        """
        name = decoded.get("name")
        if isinstance(name, str) and name:
            return name
        match = re.search(r"'([^']*)'", message)
        if match is not None:
            return match.group(1)
        return message

    @staticmethod
    def _attribute_path(name: str, action: str = "") -> str:
        path = f"/attributes/{quote(name, safe='')}"
        return f"{path}/{action}" if action else path

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        """Liveness probe."""
        return self._request("GET", "/health")

    def metrics_text(self) -> str:
        """Fetch the Prometheus text exposition (``GET /metrics``) verbatim."""
        status, raw = self._raw_request("GET", "/metrics")
        text = raw.decode("utf-8")
        if status >= 400:
            raise ServiceError(f"HTTP {status}: {text.strip()}")
        return text

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
    ) -> dict[str, Any]:
        """Create an attribute on the server; returns its stats."""
        return self._request(
            "POST",
            "/attributes",
            {
                "name": name,
                "kind": kind,
                "memory_kb": memory_kb,
                "value_unit": value_unit,
                "disk_factor": disk_factor,
                "seed": seed,
                "exist_ok": exist_ok,
            },
        )

    def drop(self, name: str) -> dict[str, Any]:
        """Drop an attribute."""
        return self._request("DELETE", self._attribute_path(name))

    def stats(self, name: str | None = None) -> dict[str, Any]:
        """Stats of one attribute, or of every attribute when ``name`` is None."""
        if name is None:
            return self._request("GET", "/stats")
        return self._request("GET", self._attribute_path(name))

    def ingest(
        self,
        name: str,
        insert: Sequence[float] = (),
        delete: Sequence[float] = (),
    ) -> dict[str, Any]:
        """Send a batch of inserts and/or deletes for one attribute."""
        return self._request(
            "POST",
            self._attribute_path(name, "ingest"),
            {"insert": list(insert), "delete": list(delete)},
        )

    def query(self, name: str, queries: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
        """Evaluate a consistent batch of estimate queries (one lock on the server)."""
        return self._request(
            "POST", self._attribute_path(name, "estimate"), {"queries": list(queries)}
        )

    def estimate_range(self, name: str, low: float, high: float) -> float:
        """Estimated number of values in the closed range [low, high]."""
        response = self.query(name, [{"op": "range", "low": low, "high": high}])
        return float(response["results"][0])

    def estimate_equal(self, name: str, value: float) -> float:
        """Estimated number of values equal to ``value``."""
        response = self.query(name, [{"op": "equal", "value": value}])
        return float(response["results"][0])

    def cdf(self, name: str, xs: Sequence[float]) -> list[float]:
        """Approximate CDF evaluated at each point of ``xs``."""
        response = self.query(name, [{"op": "cdf", "xs": list(xs)}])
        return [float(v) for v in response["results"][0]]

    def total_count(self, name: str) -> float:
        """Total number of values represented for ``name``."""
        response = self.query(name, [{"op": "total"}])
        return float(response["results"][0])

    def snapshot(self, name: str) -> dict[str, Any]:
        """Fetch the full serialised state of one attribute."""
        return self._request("GET", self._attribute_path(name, "snapshot"))

    def restore(self, name: str, snapshot: Mapping[str, Any]) -> dict[str, Any]:
        """Restore an attribute from a :meth:`snapshot` payload."""
        return self._request(
            "POST", self._attribute_path(name, "restore"), {"snapshot": dict(snapshot)}
        )
