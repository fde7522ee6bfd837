"""Binary shard transport: persistent connections + length-prefixed frames.

The HTTP path (:class:`~repro.cluster.protocol.RemoteShard` over
:class:`~repro.service.client.StatisticsClient`) pays HTTP head parsing on
both sides of every request.  Spawned shard processes
(:mod:`repro.cluster.supervisor`) instead speak this binary protocol over a
small pool of **persistent** connections.

Frame format
------------

Every request and response is one self-framing binary record -- the WAL's
framing discipline (see "Record format" in :mod:`repro.service.wal`) with its
own magic::

    MAGIC (2 bytes, b"SB") | length (4 bytes, big-endian) |
    crc32 (4 bytes, big-endian, over the payload) | payload (UTF-8 JSON)

The request payload is an envelope ``{"id": <int>, "op": <name>,
"args": {...}, "trace": <trace id or absent>}``; the response echoes the id:
``{"id": <int>, "ok": true, "result": ...}`` on success or ``{"id": <int>,
"ok": false, "error": {"type": ..., "message": ..., "name": ...}}`` on an
application error, where ``type`` is the exception class name from
:mod:`repro.exceptions` (reconstructed on the client from a whitelist -- an
unknown type degrades to :class:`~repro.exceptions.ServiceError`).

Retry discipline (REP007 / REP011)
----------------------------------

:meth:`BinaryShardClient.call` separates the *connect phase* from the *send*:
a connect failure cannot have reached the shard and is always retried with
bounded exponential backoff, but once a frame reached the wire the op's fate
is unknown -- only ops in :data:`IDEMPOTENT_OPS` (reads) may re-enter the
retry loop.  Resending a write over a fresh connection could double-apply it
on a shard that processed the request and lost only the reply.  The analysis
rule REP011 machine-checks this file for that shape.

Non-blocking fan-out
--------------------

:func:`try_pipelined_scatter` is the coordinator's fast path: when every
target shard is a :class:`ProcessShard` and the per-shard call is a single
backend method, the calling thread writes every request frame back-to-back
and then multiplexes the replies with :mod:`selectors` -- one coordinator
thread drives N shard processes, with no executor thread per shard per
request.
"""

from __future__ import annotations

import itertools
import json
import selectors
import socket
import struct
import threading
import time
import zlib
from collections.abc import Mapping
from typing import Any, Callable

from ..exceptions import (
    ClusterError,
    ConfigurationError,
    DeletionError,
    DomainError,
    DuplicateAttributeError,
    EmptyHistogramError,
    HistogramError,
    InsufficientDataError,
    ServiceError,
    ShardUnavailableError,
    UnknownAttributeError,
)
from ..obs.trace import Trace, current_trace_id, use_trace
from .protocol import ShardBackend

__all__ = [
    "FrameError",
    "IDEMPOTENT_OPS",
    "READY_PREFIX",
    "BinaryShardClient",
    "BinaryShardServer",
    "ProcessShard",
    "encode_frame",
    "try_pipelined_scatter",
]

#: Same header discipline as the WAL record format (``repro/service/wal.py``):
#: 2-byte magic + payload length + payload crc32, all big-endian.
_MAGIC = b"SB"
_HEADER = struct.Struct(">2sII")

#: First token of the one readiness line a shard worker process prints on
#: stdout (``REPRO-SHARD-READY shard=<id> port=<port> pid=<pid>``).  Lives
#: here -- not in :mod:`repro.cluster.worker` -- so the supervisor never
#: imports the worker module the child re-executes with ``-m``.
READY_PREFIX = "REPRO-SHARD-READY"

#: Upper bound on one frame's payload: large enough for any snapshot the
#: cluster ships around, small enough that a corrupt length field cannot make
#: the receiver try to buffer gigabytes.
MAX_PAYLOAD_BYTES = 1 << 28

#: Ops whose replies are safe to re-request after an unknown-fate transport
#: failure: pure reads.  Everything else (create/drop/ingest/restore) may
#: have been applied by a shard that lost only its reply -- REP011.
IDEMPOTENT_OPS = frozenset(
    {"names", "query", "stats", "stats_all", "snapshot", "health", "generation", "ping"}
)

#: Positional parameter names per op, for normalising a recorded
#: ``method(*args, **kwargs)`` into the wire's ``args`` mapping.
_OP_POSITIONAL: dict[str, tuple[str, ...]] = {
    "create": ("name", "kind"),
    "drop": ("name",),
    "names": (),
    "ingest": ("name", "insert", "delete"),
    "query": ("name", "queries"),
    "stats": ("name",),
    "stats_all": (),
    "snapshot": ("name",),
    "restore": ("name", "snapshot"),
    "health": (),
    "generation": ("name",),
}

#: Exception classes the wire protocol transports by name.
_EXCEPTION_TYPES: dict[str, type[Exception]] = {
    cls.__name__: cls
    for cls in (
        HistogramError,
        ConfigurationError,
        EmptyHistogramError,
        DomainError,
        DeletionError,
        InsufficientDataError,
        ServiceError,
        UnknownAttributeError,
        DuplicateAttributeError,
        ClusterError,
    )
}


class FrameError(ConnectionError):
    """A frame failed validation (magic/length/crc) or the peer closed.

    Subclasses :class:`ConnectionError` (hence :class:`OSError`) so every
    existing transport-failure path -- ``RemoteShard``-style wrapping, the
    retry loops, ``ShardUnavailableError`` classification -- treats a torn or
    corrupt frame exactly like a dead connection, which is what it means.
    """


def _json_default(value: Any) -> Any:
    # Callers hand the coordinator numpy scalars/arrays; the wire is JSON.
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return tolist()
    raise TypeError(f"cannot serialise {type(value).__name__} on the shard wire")


def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """Encode one envelope as ``magic | length | crc32 | JSON payload``."""
    body = json.dumps(payload, separators=(",", ":"), default=_json_default).encode(
        "utf-8"
    )
    if len(body) > MAX_PAYLOAD_BYTES:
        raise FrameError(f"frame payload of {len(body)} bytes exceeds the protocol cap")
    return _HEADER.pack(_MAGIC, len(body), zlib.crc32(body) & 0xFFFFFFFF) + body


class _FrameParser:
    """Incremental frame decoder over an append-only byte buffer."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def pop(self) -> dict[str, Any] | None:
        """Decode and remove one complete frame, or return None."""
        if len(self._buffer) < _HEADER.size:
            return None
        magic, length, crc = _HEADER.unpack_from(self._buffer)
        if magic != _MAGIC:
            raise FrameError(f"bad frame magic {bytes(magic)!r}")
        if length > MAX_PAYLOAD_BYTES:
            raise FrameError(f"frame length {length} exceeds the protocol cap")
        end = _HEADER.size + length
        if len(self._buffer) < end:
            return None
        body = bytes(self._buffer[_HEADER.size : end])
        del self._buffer[:end]
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            raise FrameError("frame payload failed its crc32 check")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise FrameError(f"frame payload is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise FrameError("frame payload must be a JSON object")
        return payload


def describe_exception(error: Exception) -> dict[str, Any]:
    """The wire form of an application error raised by a shard op."""
    info: dict[str, Any] = {"type": type(error).__name__, "message": str(error)}
    name = getattr(error, "name", None)
    if isinstance(name, str):
        info["name"] = name
    return info


def build_exception(info: Mapping[str, Any]) -> Exception:
    """Reconstruct a shard-side application error from its wire form."""
    type_name = str(info.get("type", "ServiceError"))
    message = str(info.get("message", type_name))
    cls = _EXCEPTION_TYPES.get(type_name)
    name = info.get("name")
    if cls in (UnknownAttributeError, DuplicateAttributeError) and isinstance(name, str):
        return cls(name)
    if cls is not None:
        try:
            return cls(message)
        except Exception:  # pragma: no cover - exotic constructor signature
            pass
    return ServiceError(f"{type_name}: {message}")


class ShardConnection:
    """One persistent connection with its incremental frame parser."""

    _CHUNK = 65536

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._parser = _FrameParser()
        self._ids = itertools.count(1)

    def next_request_id(self) -> int:
        return next(self._ids)

    def fileno(self) -> int:
        return self._sock.fileno()

    def set_blocking(self, blocking: bool, timeout: float | None = None) -> None:
        if blocking:
            self._sock.settimeout(timeout)
        else:
            self._sock.setblocking(False)

    def send(self, frame: bytes) -> None:
        self._sock.sendall(frame)

    def receive(self, timeout: float) -> dict[str, Any]:
        """Block until one complete frame arrives (or ``timeout`` elapses)."""
        deadline = time.monotonic() + timeout
        while True:
            payload = self._parser.pop()
            if payload is not None:
                return payload
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise socket.timeout(f"no reply frame within {timeout:g}s")
            self._sock.settimeout(remaining)
            chunk = self._sock.recv(self._CHUNK)
            if not chunk:
                raise FrameError("connection closed before a complete reply frame")
            self._parser.feed(chunk)

    def receive_step(self) -> dict[str, Any] | None:
        """One non-blocking read step; a complete frame, or None for 'not yet'."""
        payload = self._parser.pop()
        if payload is not None:
            return payload
        try:
            chunk = self._sock.recv(self._CHUNK)
        except (BlockingIOError, InterruptedError):
            return None
        if not chunk:
            raise FrameError("connection closed before a complete reply frame")
        self._parser.feed(chunk)
        return self._parser.pop()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


class BinaryShardClient:
    """Client for one :class:`BinaryShardServer`, pooling persistent connections.

    Parameters mirror :class:`~repro.service.client.StatisticsClient`:
    ``retries`` extra attempts after a retriable transport failure, backoff
    doubling from ``retry_backoff``.  The pool keeps up to ``pool_size`` idle
    connections; a scatter can check out more (they are closed on check-in
    once the pool is full).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 10.0,
        retries: int = 2,
        retry_backoff: float = 0.05,
        pool_size: int = 4,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)
        self._pool_size = int(pool_size)
        self._idle: list[ShardConnection] = []
        self._pool_lock = threading.Lock()
        self._closed = False
        self.transport_stats = {"connect_retries": 0, "backoff_seconds": 0.0}
        self._stats_lock = threading.Lock()
        self._m_connect_retries: Any | None = None
        self._m_backoff_seconds: Any | None = None
        self._endpoint = f"{host}:{port}"

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

    # -- pool ----------------------------------------------------------
    def checkout(self) -> ShardConnection:
        """A pooled connection, or a freshly connected one (connect phase).

        Connect errors propagate as :class:`OSError`: nothing has reached the
        shard, so the caller's retry loop may always re-enter.
        """
        with self._pool_lock:
            if self._closed:
                raise FrameError("client is closed")
            if self._idle:
                return self._idle.pop()
        # Connect OUTSIDE the pool lock: socket I/O under a held lock would
        # stall every concurrent checkout (and trips the lockcheck monitor).
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        return ShardConnection(sock)

    def checkout_with_retry(self) -> ShardConnection:
        """Connect-phase checkout with the client's bounded backoff retries."""
        last_error: OSError | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                pause = self.retry_backoff * (2 ** (attempt - 1))
                self._record_backoff(pause)
                time.sleep(pause)
            try:
                return self.checkout()
            except OSError as error:
                self._record_connect_failure()
                last_error = error
        assert last_error is not None
        raise last_error

    def checkin(self, connection: ShardConnection) -> None:
        connection.set_blocking(True, self.timeout)
        with self._pool_lock:
            if not self._closed and len(self._idle) < self._pool_size:
                self._idle.append(connection)
                return
        connection.close()

    def discard(self, connection: ShardConnection) -> None:
        connection.close()

    def close(self) -> None:
        """Close every pooled connection (idempotent)."""
        with self._pool_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    # -- request/response ----------------------------------------------
    def _envelope(self, connection: ShardConnection, op: str, args: Mapping[str, Any]) -> tuple[int, bytes]:
        request_id = connection.next_request_id()
        payload: dict[str, Any] = {"id": request_id, "op": op, "args": dict(args)}
        trace_id = current_trace_id()
        if trace_id is not None:
            payload["trace"] = trace_id
        return request_id, encode_frame(payload)

    @staticmethod
    def _decode_reply(reply: Mapping[str, Any], request_id: int) -> Any:
        if reply.get("id") != request_id:
            raise FrameError(
                f"reply id {reply.get('id')!r} does not match request {request_id}"
            )
        if reply.get("ok"):
            return reply.get("result")
        error_info = reply.get("error")
        raise build_exception(error_info if isinstance(error_info, Mapping) else {})

    def call(self, op: str, args: Mapping[str, Any] | None = None) -> Any:
        """One request/response round trip on a pooled connection.

        Connect-phase failures retry with backoff; a failure after the frame
        reached the wire re-enters the loop only for ops in
        :data:`IDEMPOTENT_OPS` -- resending anything else could double-apply
        a write whose reply was lost (REP011).
        """
        args = args or {}
        idempotent = op in IDEMPOTENT_OPS
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                pause = self.retry_backoff * (2 ** (attempt - 1))
                self._record_backoff(pause)
                time.sleep(pause)
            try:
                connection = self.checkout()
            except OSError as error:
                self._record_connect_failure()
                last_error = error
                continue
            request_id, frame = self._envelope(connection, op, args)
            try:
                connection.send(frame)
                reply = connection.receive(self.timeout)
            except OSError as error:
                self.discard(connection)
                # Post-wire failure: the shard may have applied the op and
                # lost only the reply.  Only an idempotent read may re-enter
                # the retry loop; a resent write could double-apply.
                if not idempotent:
                    raise
                last_error = error
                continue
            self.checkin(connection)
            return self._decode_reply(reply, request_id)
        assert last_error is not None
        raise last_error


class ProcessShard(ShardBackend):
    """A shard served by a spawned process over the binary transport.

    The scatter fast path (:func:`try_pipelined_scatter`) recognises this
    backend and multiplexes its persistent connections; individual method
    calls fall back to one blocking round trip.  Transport failures (after
    the client's bounded retries) are wrapped into
    :class:`~repro.exceptions.ShardUnavailableError`, exactly like
    :class:`~repro.cluster.protocol.RemoteShard`.
    """

    def __init__(self, shard_id: str, client: BinaryShardClient) -> None:
        super().__init__(shard_id)
        self.client = client

    def bind_metrics(self, metrics: Any) -> None:
        self.client.bind_metrics(metrics)

    def _unavailable(self, error: Exception) -> ShardUnavailableError:
        return ShardUnavailableError(self.shard_id, error)

    def _call(self, op: str, args: Mapping[str, Any]) -> Any:
        try:
            return self.client.call(op, args)
        except OSError as error:
            raise self._unavailable(error) from error

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
        return self._call(
            "create",
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

    def drop(self, name: str) -> None:
        self._call("drop", {"name": name})

    def names(self) -> list[str]:
        return list(self._call("names", {}))

    def ingest(self, name, insert=(), delete=()):
        return self._call(
            "ingest", {"name": name, "insert": list(insert), "delete": list(delete)}
        )

    def query(self, name, queries):
        return self._call("query", {"name": name, "queries": list(queries)})

    def stats(self, name: str) -> dict[str, Any]:
        return self._call("stats", {"name": name})

    def stats_all(self) -> list[dict[str, Any]]:
        return list(self._call("stats_all", {}))

    def snapshot(self, name: str) -> dict[str, Any]:
        return self._call("snapshot", {"name": name})

    def restore(self, name, snapshot):
        return self._call("restore", {"name": name, "snapshot": dict(snapshot)})

    def health(self) -> dict[str, Any]:
        return self._call("health", {})

    def generation(self, name: str) -> int:
        return int(self._call("generation", {"name": name}))


# ----------------------------------------------------------------------
# server side
# ----------------------------------------------------------------------
class BinaryShardServer:
    """Serve one :class:`ShardBackend` over the binary frame protocol.

    One daemon thread accepts; each persistent connection gets its own daemon
    thread (a coordinator holds a handful of connections per shard, not one
    per request, so the thread count is bounded by peers, not load).
    """

    def __init__(
        self, backend: ShardBackend, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.backend = backend
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._stopping = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._conn_lock = threading.Lock()
        self._connections: set[socket.socket] = set()

    def start(self) -> BinaryShardServer:
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-shard-accept", daemon=True
            )
            self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            with self._conn_lock:
                if self._stopping.is_set():
                    sock.close()
                    break
                self._connections.add(sock)
            threading.Thread(
                target=self._serve_connection,
                args=(sock,),
                name="repro-shard-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, sock: socket.socket) -> None:
        parser = _FrameParser()
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._stopping.is_set():
                try:
                    payload = parser.pop()
                except FrameError:
                    return  # corrupt stream: drop the connection
                if payload is None:
                    chunk = sock.recv(65536)
                    if not chunk:
                        return
                    parser.feed(chunk)
                    continue
                sock.sendall(encode_frame(self._respond(payload)))
        except OSError:
            pass  # peer went away mid-read/write
        finally:
            sock.close()
            with self._conn_lock:
                self._connections.discard(sock)

    def _respond(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        request_id = payload.get("id")
        op = payload.get("op")
        args = payload.get("args") or {}
        trace_id = payload.get("trace")
        try:
            if op == "ping":
                result: Any = {"status": "ok", "shard": self.backend.shard_id}
            elif not isinstance(op, str) or op not in _OP_POSITIONAL:
                raise ServiceError(f"unknown shard op {op!r}")
            elif not isinstance(args, Mapping):
                raise ServiceError("shard op args must be a JSON object")
            else:
                method = getattr(self.backend, op)
                # Re-activate the caller's trace so shard-side spans and logs
                # carry the same id the coordinator stamped on the request.
                with use_trace(Trace(trace_id) if isinstance(trace_id, str) else None):
                    result = method(**{str(key): value for key, value in args.items()})
            return {"id": request_id, "ok": True, "result": result}
        except Exception as error:
            return {"id": request_id, "ok": False, "error": describe_exception(error)}

    def stop(self) -> None:
        """Close the listener and every open connection (idempotent)."""
        self._stopping.set()
        # A thread blocked in accept() is not reliably woken by close() on
        # Linux; a throwaway self-connection guarantees the accept returns
        # and the loop observes the stop flag.
        try:
            with socket.create_connection(self.address, timeout=1.0):
                pass
        except OSError:
            pass
        self._listener.close()
        with self._conn_lock:
            connections = list(self._connections)
            self._connections.clear()
        for sock in connections:
            sock.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None

    def __enter__(self) -> BinaryShardServer:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


# ----------------------------------------------------------------------
# non-blocking scatter (coordinator fast path)
# ----------------------------------------------------------------------
class _NotSimpleCall(Exception):
    """The recorded closure did more than one plain backend method call."""


class _RecordedResult:
    """Inert sentinel a recorded call returns; any use means 'not simple'."""

    __slots__ = ()

    def __getattr__(self, name: str) -> Any:
        raise _NotSimpleCall()

    def __getitem__(self, key: Any) -> Any:
        raise _NotSimpleCall()

    def __iter__(self) -> Any:
        raise _NotSimpleCall()

    def __bool__(self) -> bool:
        raise _NotSimpleCall()


class _CallRecorder:
    """Duck-types a :class:`ShardBackend` to capture one method invocation."""

    def __init__(self, shard_id: str) -> None:
        self.shard_id = shard_id
        self.spec: tuple[str, dict[str, Any]] | None = None
        self.result: _RecordedResult | None = None

    def __getattr__(self, name: str) -> Callable[..., Any]:
        if name not in _OP_POSITIONAL:
            raise _NotSimpleCall()

        def record(*args: Any, **kwargs: Any) -> Any:
            if self.spec is not None:
                raise _NotSimpleCall()  # a second backend call in one leg
            merged = dict(kwargs)
            positional = _OP_POSITIONAL[name]
            if len(args) > len(positional):
                raise _NotSimpleCall()
            for param, value in zip(positional, args):
                merged[param] = value
            self.spec = (name, merged)
            self.result = _RecordedResult()
            return self.result

        return record


def try_pipelined_scatter(
    shards: Mapping[str, ShardBackend], call: Callable[[ShardBackend], Any]
) -> dict[str, tuple[bool, Any, float]] | None:
    """Scatter ``call`` over process shards without executor threads.

    Returns ``{shard_id: (ok, value, elapsed_s)}`` -- ``value`` is the call's
    result when ``ok`` and an exception otherwise (transport failures already
    wrapped as :class:`ShardUnavailableError`, application errors
    reconstructed) -- or ``None`` when the fast path does not apply: a
    non-:class:`ProcessShard` member, or a per-shard closure that is more
    than one plain backend method call (the caller then uses its regular
    executor fan-out, with identical semantics).
    """
    if not shards or not all(
        isinstance(shard, ProcessShard) for shard in shards.values()
    ):
        return None
    specs: dict[str, tuple[str, dict[str, Any]]] = {}
    try:
        for shard_id in shards:
            recorder = _CallRecorder(shard_id)
            outcome = call(recorder)  # type: ignore[arg-type]
            if recorder.spec is None or outcome is not recorder.result:
                return None
            specs[shard_id] = recorder.spec
    except _NotSimpleCall:
        return None
    except Exception:
        # The closure itself failed during recording (e.g. a lookup bug).
        # Fall back so the executor path surfaces it exactly as before.
        return None
    return _execute_scatter({sid: (shards[sid], specs[sid]) for sid in shards})  # type: ignore[dict-item]


def _execute_scatter(
    legs: Mapping[str, tuple[ProcessShard, tuple[str, dict[str, Any]]]],
) -> dict[str, tuple[bool, Any, float]]:
    outcomes: dict[str, tuple[bool, Any, float]] = {}
    pending: dict[str, dict[str, Any]] = {}
    fallback: list[str] = []
    start = time.perf_counter()

    def finish(shard_id: str, ok: bool, value: Any) -> None:
        outcomes[shard_id] = (ok, value, time.perf_counter() - start)

    # Phase 1: connect (retriable) + send every request back-to-back.  The
    # frame either reaches the wire or the leg fails here; REP011 applies
    # from the send onward.
    for shard_id, (shard, (op, args)) in legs.items():
        client = shard.client
        try:
            connection = client.checkout_with_retry()
        except OSError as error:
            finish(shard_id, False, shard._unavailable(error))
            continue
        request_id, frame = client._envelope(connection, op, args)
        try:
            connection.send(frame)
        # repro-verify: ignore[REP011] this `continue` moves to the NEXT leg, never re-sends this one: idempotent ops are re-asked once in phase 3, non-idempotent ones finish as unavailable here
        except OSError as error:
            client.discard(connection)
            # Nothing guarantees the frame left this host, but its fate is
            # unknown: only an idempotent read may be re-asked (REP011).
            if op in IDEMPOTENT_OPS:
                fallback.append(shard_id)
            else:
                finish(shard_id, False, shard._unavailable(error))
            continue
        connection.set_blocking(False)
        pending[shard_id] = {
            "shard": shard,
            "connection": connection,
            "request_id": request_id,
            "op": op,
            "args": args,
        }

    # Phase 2: multiplex the replies on the calling thread.
    if pending:
        deadline = start + max(
            leg["shard"].client.timeout for leg in pending.values()
        )
        selector = selectors.DefaultSelector()
        for shard_id, leg in pending.items():
            selector.register(leg["connection"], selectors.EVENT_READ, shard_id)

        def drop_leg(shard_id: str, error: OSError) -> None:
            leg = pending.pop(shard_id)
            selector.unregister(leg["connection"])
            leg["shard"].client.discard(leg["connection"])
            if leg["op"] in IDEMPOTENT_OPS:
                fallback.append(shard_id)
            else:
                finish(shard_id, False, leg["shard"]._unavailable(error))

        try:
            while pending:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    for shard_id in list(pending):
                        drop_leg(shard_id, socket.timeout("scatter reply timed out"))
                    break
                for key, _events in selector.select(remaining):
                    shard_id = key.data
                    leg = pending.get(shard_id)
                    if leg is None:
                        continue
                    try:
                        reply = leg["connection"].receive_step()
                    except OSError as error:
                        drop_leg(shard_id, error)
                        continue
                    if reply is None:
                        continue
                    del pending[shard_id]
                    selector.unregister(leg["connection"])
                    leg["shard"].client.checkin(leg["connection"])
                    try:
                        value = BinaryShardClient._decode_reply(
                            reply, leg["request_id"]
                        )
                    except FrameError as error:
                        # The reply itself was unusable; same classification
                        # as a dead connection.
                        if leg["op"] in IDEMPOTENT_OPS:
                            fallback.append(shard_id)
                        else:
                            finish(shard_id, False, leg["shard"]._unavailable(error))
                        continue
                    except Exception as error:
                        finish(shard_id, False, error)
                        continue
                    finish(shard_id, True, value)
        finally:
            selector.close()

    # Phase 3: idempotent reads that lost their connection re-ask through the
    # blocking client (a fresh retry loop -- legal for reads only).
    for shard_id in fallback:
        shard, (op, args) = legs[shard_id]
        try:
            finish(shard_id, True, shard.client.call(op, args))
        except OSError as error:
            finish(shard_id, False, shard._unavailable(error))
        except Exception as error:
            finish(shard_id, False, error)
    return outcomes
