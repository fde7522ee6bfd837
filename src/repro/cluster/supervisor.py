"""Shard supervisor: spawn, watch and tear down shard worker processes.

``serve-cluster --spawn-shards N`` (and the benchmarks) use this to turn the
in-process shard set into N real OS processes -- each with its own
:class:`~repro.service.store.HistogramStore`, its own WAL directory and its
own binary-transport port -- so CPU-bound ingest scales with cores instead of
serialising on one interpreter's GIL.

Lifecycle
---------

* :meth:`ShardSupervisor.start` launches ``python -m repro.cluster.worker``
  once per shard, waits for each worker's readiness line (which carries the
  ephemeral port it bound), verifies liveness with a transport ``ping`` and
  returns one :class:`~repro.cluster.transport.ProcessShard` per worker.
* A monitor thread polls the fleet.  A worker that dies unexpectedly is
  respawned **on the same port** (so the coordinator's persistent clients
  reconnect transparently), at most ``max_restarts`` times per shard.  A
  restarted worker recovers whatever its WAL holds -- without a WAL it comes
  back empty -- and in a replicated cluster the operator (or a test) then
  heals it with ``resync``; the supervisor never invents data.
* :meth:`close` is idempotent: it stops the monitor, closes every transport
  client, SIGTERMs every worker, and escalates to SIGKILL after
  ``shutdown_timeout``.

The supervisor never retries an op on a worker's behalf; all request-level
retry discipline lives in the transport client (REP007/REP011).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..exceptions import ClusterError, ConfigurationError
from .transport import READY_PREFIX, BinaryShardClient, ProcessShard

__all__ = ["ShardSupervisor"]


@dataclass
class _ShardHandle:
    shard_id: str
    process: subprocess.Popen
    port: int
    wal_dir: Path | None
    restarts: int = 0
    events: list[str] = field(default_factory=list)


def _parse_ready_line(line: str) -> dict[str, str]:
    fields = dict(
        part.split("=", 1) for part in line.split()[1:] if "=" in part
    )
    return fields


class ShardSupervisor:
    """Run ``n_shards`` shard worker processes and keep them alive.

    Parameters
    ----------
    n_shards:
        Number of worker processes to spawn.
    wal_root:
        Optional base directory; shard ``i`` logs under ``wal_root/shard-i``.
        A restarted worker recovers from its own WAL directory.
    restart:
        Respawn workers that exit unexpectedly (on their original port).
    max_restarts:
        Per-shard cap on automatic respawns; afterwards the shard stays down
        (reads fail over, ``resync`` heals it once it is brought back).
    startup_timeout:
        Seconds to wait for one worker's readiness line.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        host: str = "127.0.0.1",
        wal_root: str | Path | None = None,
        wal_fsync: bool = False,
        restart: bool = True,
        max_restarts: int = 3,
        startup_timeout: float = 30.0,
        shutdown_timeout: float = 5.0,
        poll_interval: float = 0.2,
        client_timeout: float = 10.0,
        client_retries: int = 2,
        client_retry_backoff: float = 0.05,
    ) -> None:
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        self._n_shards = int(n_shards)
        self._host = host
        self._wal_root = Path(wal_root) if wal_root is not None else None
        self._wal_fsync = bool(wal_fsync)
        self._restart = bool(restart)
        self._max_restarts = int(max_restarts)
        self._startup_timeout = float(startup_timeout)
        self._shutdown_timeout = float(shutdown_timeout)
        self._poll_interval = float(poll_interval)
        self._client_timeout = float(client_timeout)
        self._client_retries = int(client_retries)
        self._client_retry_backoff = float(client_retry_backoff)
        self._handles: dict[str, _ShardHandle] = {}
        self._clients: dict[str, BinaryShardClient] = {}
        self._lock = threading.Lock()
        self._closing = threading.Event()
        self._monitor: threading.Thread | None = None
        self._started = False

    # ------------------------------------------------------------------
    # spawning
    # ------------------------------------------------------------------
    def _worker_command(self, shard_id: str, port: int, wal_dir: Path | None) -> list[str]:
        command = [
            sys.executable,
            "-m",
            "repro.cluster.worker",
            "--shard-id",
            shard_id,
            "--host",
            self._host,
            "--port",
            str(port),
        ]
        if wal_dir is not None:
            command += ["--wal-dir", str(wal_dir)]
            if self._wal_fsync:
                command.append("--wal-fsync")
        return command

    def _worker_env(self) -> dict[str, str]:
        # The worker must import `repro` exactly as this process does, even
        # when the package is only on sys.path (editable/source checkout).
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        return env

    def _spawn(self, shard_id: str, port: int) -> _ShardHandle:
        wal_dir = self._wal_root / shard_id if self._wal_root is not None else None
        process = subprocess.Popen(
            self._worker_command(shard_id, port, wal_dir),
            stdout=subprocess.PIPE,
            stderr=None,  # workers share the supervisor's stderr for debugging
            env=self._worker_env(),
        )
        try:
            bound_port = self._await_ready(shard_id, process)
        except BaseException:  # an interrupt too: never leak the new worker
            process.kill()
            process.wait()
            raise
        return _ShardHandle(shard_id, process, bound_port, wal_dir)

    def _await_ready(self, shard_id: str, process: subprocess.Popen) -> int:
        assert process.stdout is not None
        deadline = time.monotonic() + self._startup_timeout
        result: dict[str, Any] = {}

        def read_line() -> None:
            try:
                result["line"] = process.stdout.readline()  # type: ignore[union-attr]
            except Exception as error:  # pragma: no cover - pipe teardown race
                result["error"] = error

        reader = threading.Thread(target=read_line, name="repro-shard-ready", daemon=True)
        reader.start()
        reader.join(max(0.0, deadline - time.monotonic()))
        if reader.is_alive() or "line" not in result:
            raise ClusterError(
                f"shard worker {shard_id!r} did not report readiness within "
                f"{self._startup_timeout:g}s"
            )
        line = result["line"].decode("utf-8", "replace").strip()
        if not line.startswith(READY_PREFIX):
            code = process.poll()
            raise ClusterError(
                f"shard worker {shard_id!r} failed to start "
                f"(exit code {code}, first line {line!r})"
            )
        fields = _parse_ready_line(line)
        try:
            return int(fields["port"])
        except (KeyError, ValueError):
            raise ClusterError(
                f"shard worker {shard_id!r} readiness line is malformed: {line!r}"
            ) from None

    def start(self) -> list[ProcessShard]:
        """Spawn the fleet; returns one :class:`ProcessShard` per worker."""
        if self._started:
            raise ClusterError("supervisor already started")
        self._started = True
        shards: list[ProcessShard] = []
        try:
            for index in range(self._n_shards):
                shard_id = f"shard-{index}"
                handle = self._spawn(shard_id, port=0)
                client = BinaryShardClient(
                    self._host,
                    handle.port,
                    timeout=self._client_timeout,
                    retries=self._client_retries,
                    retry_backoff=self._client_retry_backoff,
                )
                # Registered before the ping, so close() reaps this worker
                # whatever interrupts the rest of the start-up.
                with self._lock:
                    self._handles[shard_id] = handle
                    self._clients[shard_id] = client
                client.call("ping")  # liveness fence before the fleet is handed out
                shards.append(ProcessShard(shard_id, client))
        except BaseException:
            self.close()
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-shard-supervisor", daemon=True
        )
        self._monitor.start()
        return shards

    # ------------------------------------------------------------------
    # liveness monitoring
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._closing.wait(self._poll_interval):
            with self._lock:
                handles = list(self._handles.values())
            for handle in handles:
                code = handle.process.poll()
                if code is None or self._closing.is_set():
                    continue
                handle.events.append(f"exited with code {code}")
                if not self._restart or handle.restarts >= self._max_restarts:
                    continue
                handle.restarts += 1
                try:
                    # Same port: the coordinator's pooled connections died
                    # with the old process, and its connect-phase retries
                    # land on the respawned worker transparently.
                    replacement = self._spawn(handle.shard_id, port=handle.port)
                except Exception as error:
                    handle.events.append(f"restart failed: {error}")
                    continue
                replacement.restarts = handle.restarts
                replacement.events = handle.events + ["restarted"]
                with self._lock:
                    if self._closing.is_set():
                        replacement.process.kill()
                        replacement.process.wait()
                        return
                    self._handles[handle.shard_id] = replacement

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def shard_ids(self) -> list[str]:
        with self._lock:
            return list(self._handles)

    def pid(self, shard_id: str) -> int:
        with self._lock:
            return self._handles[shard_id].process.pid

    def port(self, shard_id: str) -> int:
        with self._lock:
            return self._handles[shard_id].port

    def describe(self) -> dict[str, Any]:
        """Operator-facing fleet state (pids, ports, restart history)."""
        with self._lock:
            return {
                handle.shard_id: {
                    "pid": handle.process.pid,
                    "port": handle.port,
                    "alive": handle.process.poll() is None,
                    "restarts": handle.restarts,
                    "wal_dir": str(handle.wal_dir) if handle.wal_dir else None,
                    "events": list(handle.events),
                }
                for handle in self._handles.values()
            }

    def wait_until_alive(self, shard_id: str, timeout: float = 30.0) -> None:
        """Block until ``shard_id`` answers a transport ping (post-restart)."""
        deadline = time.monotonic() + timeout
        with self._lock:
            client = self._clients[shard_id]
        while True:
            try:
                client.call("ping")
                return
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.1)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear the fleet down (idempotent): clients, SIGTERM, then SIGKILL."""
        if self._closing.is_set():
            return
        self._closing.set()
        if self._monitor is not None:
            self._monitor.join(timeout=self._shutdown_timeout)
            self._monitor = None
        with self._lock:
            clients = list(self._clients.values())
            handles = list(self._handles.values())
            self._clients.clear()
            self._handles.clear()
        for client in clients:
            client.close()
        for handle in handles:
            if handle.process.poll() is None:
                handle.process.terminate()
        deadline = time.monotonic() + self._shutdown_timeout
        for handle in handles:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                handle.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                handle.process.kill()
                handle.process.wait()
            if handle.process.stdout is not None:
                handle.process.stdout.close()

    def __enter__(self) -> ShardSupervisor:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
