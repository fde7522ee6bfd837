"""HTTP front-end for the cluster: one JSON API over many shards.

The :class:`ClusterServer` puts a
:class:`~repro.cluster.coordinator.ClusterCoordinator` behind the shared
HTTP edge of :mod:`repro.service.server`, whose docstring holds the route
table of both servers.  Every service route exists here (ingest / estimate
/ stats / snapshot / restore / drop), so an existing
:class:`StatisticsClient` -- and the ``store-stats`` CLI -- keeps working
against a cluster; response *payloads* carry extra cluster fields
(``per_shard``, ``merged``, ``partitioned``), and per-attribute stats /
snapshot bodies differ in shape for partitioned attributes.  On top it adds
the cluster-only routes: ``/cluster/*``, rebalance, drain and resync.

:class:`ClusterClient` extends :class:`StatisticsClient` (create / ingest /
estimate / stats / drop are byte-identical routes) with the cluster verbs.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from ..obs.registry import MetricsRegistry
from ..service.client import StatisticsClient
from ..service.server import EdgeRequestHandler, HTTPEdge
from .coordinator import ClusterCoordinator

__all__ = ["ClusterServer", "ClusterClient"]


class _ClusterRequestHandler(EdgeRequestHandler):
    """Serves the coordinator routes of the cluster."""

    server_version = "repro-statistics-cluster/1.0"

    backend: ClusterCoordinator

    def _health(self) -> dict[str, Any]:
        coordinator = self.backend
        return {"shards": len(coordinator.shard_ids), "attributes": len(coordinator.names())}

    def _dispatch_backend(
        self, method: str, route: tuple[str, ...], payload: dict[str, Any]
    ) -> bool:
        coordinator = self.backend
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
            return True
        elif len(route) == 3 and route[0] == "attributes" and method == "POST":
            name, action = route[1], route[2]
            if action == "ingest":
                inserts, deletes = self._write_batch(payload)
                self._send_json(200, coordinator.ingest(name, insert=inserts, delete=deletes))
                return True
            if action == "restore":
                snapshot = payload.get("snapshot", payload)
                self._send_json(200, coordinator.restore(name, snapshot))
                return True
            if action == "rebalance":
                self._send_json(200, coordinator.rebalance(name, payload["shard"]))
                return True
        elif len(route) == 3 and route[0] == "shards" and method == "POST":
            if route[2] == "drain":
                self._send_json(200, coordinator.drain(route[1]))
                return True
            if route[2] == "resync":
                self._send_json(200, coordinator.resync(route[1]))
                return True
        elif len(route) == 2 and route[0] == "attributes":
            if method == "GET":
                self._send_json(200, coordinator.attribute_stats(route[1]))
                return True
            if method == "DELETE":
                self._send_json(200, coordinator.drop(route[1]))
                return True
        elif route == ("cluster", "stats") and method == "GET":
            self._send_json(200, coordinator.stats())
            return True
        elif route in (("stats",), ("attributes",)) and method == "GET":
            # Service-compatible flat listing (what `store-stats` consumes):
            # one row per (shard, attribute), tagged with the shard id.
            attributes = [
                {**stats, "shard": shard["shard_id"]}
                for shard in coordinator.stats()["shards"]
                for stats in shard["attributes"]
            ]
            self._send_json(200, {"attributes": attributes})
            return True
        elif route == ("attributes",) and method == "POST":
            result = coordinator.create(
                payload["name"],
                payload.get("kind", "dc"),
                **self._create_options(payload),
                partition_boundaries=payload.get("partition_boundaries"),
                partition_shards=payload.get("partition_shards"),
            )
            self._send_json(201, result)
            return True
        return False


class ClusterServer(HTTPEdge):
    """A threaded HTTP façade over a :class:`ClusterCoordinator`.

    Lifecycle as :class:`~repro.service.server.HTTPEdge`; stopping also
    closes the coordinator's fan-out pool.
    """

    handler_class = _ClusterRequestHandler
    server_label = "cluster"
    thread_name = "repro-cluster-server"

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
        super().__init__(
            coordinator, host=host, port=port, quiet=quiet, metrics=metrics,
            slow_request_ms=slow_request_ms, trace=trace, trace_sink=trace_sink,
            profile=profile,
        )

    def _on_stop(self) -> None:
        self.coordinator.close()


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
