"""Scatter-gather coordinator over the cluster's backing shards.

The :class:`ClusterCoordinator` is the single entry point a cluster client
talks to.  It owns a :class:`~repro.cluster.router.ShardRouter` (placement)
and a set of :class:`~repro.cluster.protocol.ShardBackend` members, and it
implements the three cluster-level behaviours no single shard can provide:

**Scatter-gather ingest.**  Writes for an unpartitioned attribute go to its
home shard; writes for a range-partitioned attribute are split per value
(one ``searchsorted`` pass) and fanned out to the piece shards concurrently
through a thread pool.  :meth:`ingest_batch` groups a whole multi-attribute
batch by shard first, so each shard receives exactly one concurrent stream.
Per-shard application is independent: a failing piece never rolls back the
others (the same partial-apply semantics as the service layer; the error
names the failing shard).

**Merged global estimates.**  Queries against a partitioned attribute cannot
be answered by any one shard.  The coordinator rebuilds the paper's Section 8
machinery: it snapshots every piece, superimposes the piece histograms
(:func:`~repro.distributed.union.superimpose` -- lossless) and reduces the
union back to the configured bucket budget
(:func:`~repro.distributed.union.reduce_segments`).  The merged histogram is
cached under the *sum of the piece shards' generation counters*: generations
are read **before** the snapshots, so the cache key can only under-state the
data's freshness -- a write racing the rebuild bumps the sum and forces the
next query to rebuild, never the reverse (a stale histogram served under a
fresh key).  Maintenance is *incremental*: the per-piece snapshots are cached
alongside the merge, so a rebuild re-fetches only the pieces whose probed
generation moved and superimposes them with the retained members -- a write
to one piece of an N-piece attribute costs one snapshot, not N.  At rest, the
cached merge is bit-identical to a from-scratch superimpose + reduce (the
property suite asserts this, incremental refresh included).

**Rebalance / drain.**  :meth:`rebalance` moves an attribute between shards
via snapshot/restore without losing writes: writes arriving during the copy
are buffered at the coordinator, replayed onto the target, and the routing
override flips atomically with the final drain, so every buffered operation
lands exactly once.  :meth:`drain` empties a shard by rebalancing every
attribute homed there onto the surviving members (ring walk with the drained
shard excluded).

**Replication / failover / resync.**  With a router built with
``replication_factor=N``, every attribute (and every piece of a partitioned
attribute) lives on N distinct shards.  Writes fan out to all replicas
concurrently; a write succeeds as long as *one* replica of each touched
group applies it, and a replica that fails (before or after applying --
its fate is unknown) is only **marked stale**, never retried: retrying a
write whose fate is unknown could double-apply it, while a stale replica is
healed wholesale by :meth:`resync` (snapshot from a live replica, restore
over the stale one -- a full-state replace, immune to double-apply by
construction).  Reads try the primary first and fail over to the next live,
non-stale replica on :class:`~repro.exceptions.ShardUnavailableError`.  With
``replica_reads=True`` the coordinator instead *rotates* estimate reads
round-robin across the known-fresh replicas of an attribute (every replica
applies every write, so any non-stale replica answers identically), spreading
query load over the whole replica set; known-stale replicas stay demoted to
last-resort exactly as in failover.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Mapping, Sequence
from typing import Any

from ..core.base import Histogram
from ..distributed.union import UnionHistogram, reduce_segments, superimpose
from ..exceptions import (
    ClusterError,
    ConfigurationError,
    ShardUnavailableError,
    UnknownAttributeError,
)
from ..obs.trace import current_trace, maybe_span, use_trace
from ..persistence import histogram_from_dict
from ..service.store import evaluate_queries
from .protocol import ShardBackend
from .router import RangePartition, ShardRouter
from .transport import try_pipelined_scatter

__all__ = ["ClusterCoordinator", "DEFAULT_GLOBAL_BUCKETS"]

#: Default bucket budget of merged global histograms (the reduce target).
DEFAULT_GLOBAL_BUCKETS = 64


class ClusterCoordinator:
    """Routes, fans out and merges across the cluster's shards.

    Parameters
    ----------
    shards:
        The backing members; their ``shard_id``s must be unique.
    router:
        Placement table; built from the shard ids when omitted.
    global_buckets:
        Bucket budget merged global histograms are reduced to.
    value_unit:
        Domain granularity forwarded to the reduction metric.
    max_workers:
        Fan-out thread-pool size (default: two per shard, at least four).
    replica_reads:
        When true, estimate reads rotate round-robin across the known-fresh
        replicas instead of always hitting the primary, spreading query load
        over the replica set (reads only; writes always fan to all replicas).
    """

    def __init__(
        self,
        shards: Sequence[ShardBackend],
        *,
        router: ShardRouter | None = None,
        global_buckets: int = DEFAULT_GLOBAL_BUCKETS,
        value_unit: float = 1.0,
        max_workers: int | None = None,
        metrics: Any | None = None,
        replica_reads: bool = False,
    ) -> None:
        if not shards:
            raise ConfigurationError("the cluster coordinator needs at least one shard")
        if global_buckets < 1:
            raise ConfigurationError(f"global_buckets must be positive, got {global_buckets}")
        self._shards: dict[str, ShardBackend] = {}
        for shard in shards:
            if shard.shard_id in self._shards:
                raise ConfigurationError(f"duplicate shard id {shard.shard_id!r}")
            self._shards[shard.shard_id] = shard
        self._router = router if router is not None else ShardRouter(list(self._shards))
        for shard_id in self._router.shard_ids:
            if shard_id not in self._shards:
                raise ConfigurationError(f"router routes to unknown shard {shard_id!r}")
        self._global_buckets = int(global_buckets)
        self._value_unit = float(value_unit)
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers if max_workers is not None else max(4, 2 * len(shards)),
            thread_name_prefix="repro-cluster",
        )
        self._closed = False
        self._close_lock = threading.Lock()
        # Read-replica mode: estimate reads rotate across fresh replicas.
        # itertools.count.__next__ is a single C call, so the rotation is
        # thread-safe without a lock of its own.
        self._replica_reads = bool(replica_reads)
        self._read_rotation = itertools.count()
        # Merged-histogram cache:
        # name -> (generation_sum, merged histogram, piece_states) where
        # piece_states maps each piece's primary shard id to (the snapshot's
        # own generation, the deserialised member histogram).  The retained
        # members make rebuilds incremental: only pieces whose probed
        # generation differs are re-fetched.
        self._merge_cache: dict[
            str, tuple[int, UnionHistogram, dict[str, tuple[int, Histogram]]]
        ] = {}
        self._merge_locks: dict[str, threading.Lock] = {}
        self._merge_guard = threading.Lock()
        # In-flight rebalances: name -> buffered (op, values) runs, plus a
        # count of applies currently running per attribute.  The condition's
        # lock guards both tables; rebalance registers a move and then waits
        # for the attribute's in-flight applies to drain before snapshotting,
        # so an apply that passed the move check always lands in the snapshot.
        self._moves: dict[str, list[tuple[str, list[float]]]] = {}
        self._inflight: dict[str, int] = {}
        self._moves_cv = threading.Condition()
        # Replicas that missed a write (the fan-out observed a failure whose
        # fate is unknown): reads avoid them until resync heals them.
        self._stale: set = set()
        self._stale_lock = threading.Lock()
        # Acknowledged-then-dropped buffered ops (failure-path compensation
        # could not re-apply them); surfaced by stats() so silent undercount
        # is at least visible to operators.
        self._dropped_buffered_ops = 0
        # Optional observability: per-shard fan-out latency plus the
        # replication health counters.  Metric updates are leaves (repro.obs
        # contract), recorded outside the coordinator's own locks.  Shard
        # backends that carry an HTTP client (RemoteShard) mirror their
        # connect-retry stats into the same registry.
        self.metrics = metrics
        self._m_fanout_seconds = None
        self._m_failovers = None
        self._m_stale_marks = None
        if metrics is not None:
            from ..obs.registry import LATENCY_BUCKETS_S

            self._m_fanout_seconds = metrics.distribution(
                "repro_cluster_fanout_seconds",
                "Latency of one fan-out leg, per shard",
                LATENCY_BUCKETS_S,
                labelnames=("shard",),
            )
            self._m_failovers = metrics.counter(
                "repro_cluster_failovers_total",
                "Read attempts that failed over to another replica",
            )
            self._m_stale_marks = metrics.counter(
                "repro_cluster_stale_marks_total",
                "Replicas marked stale after missing a fan-out write",
            )
            for shard in self._shards.values():
                bind = getattr(shard, "bind_metrics", None)
                if bind is not None:
                    bind(metrics)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def shard_ids(self) -> list[str]:
        return list(self._shards)

    def shard(self, shard_id: str) -> ShardBackend:
        try:
            return self._shards[shard_id]
        except KeyError:
            raise ClusterError(
                f"unknown shard id {shard_id!r}; members: {list(self._shards)}"
            ) from None

    def _scatter_tolerant(
        self,
        shard_ids: Sequence[str],
        call,
        *,
        failure_types: tuple[type, ...] = (ShardUnavailableError,),
    ) -> tuple[dict[str, Any], dict[str, Exception]]:
        """Concurrent ``call(shard)`` per shard, partitioning the outcomes.

        Returns ``(results, errors)`` keyed by shard id: ``failure_types``
        exceptions land in ``errors`` (the caller decides what a tolerable
        failure means -- drop, listing, batch ingest and the replicated
        fan-out all differ), anything else propagates immediately.

        When every target is a :class:`~repro.cluster.transport.ProcessShard`
        and the per-shard call is one plain backend method, the scatter is
        **pipelined**: the calling thread writes every request frame on a
        persistent connection and multiplexes the replies, so no executor
        thread is occupied per shard per request.  Semantics (error
        partitioning, retry discipline, fan-out latency metrics) are
        identical; compound closures fall back to the executor path.
        """
        with maybe_span("fanout:scatter"):
            pipelined = try_pipelined_scatter(
                {shard_id: self.shard(shard_id) for shard_id in shard_ids}, call
            )
        if pipelined is not None:
            results: dict[str, Any] = {}
            errors: dict[str, Exception] = {}
            for shard_id, (ok, value, elapsed) in pipelined.items():
                if self._m_fanout_seconds is not None:
                    self._m_fanout_seconds.observe(elapsed, shard=shard_id)
                if ok:
                    results[shard_id] = value
                elif isinstance(value, failure_types):
                    errors[shard_id] = value
                else:
                    raise value
            return results, errors
        # The active trace is captured BEFORE the executor submits: the pool
        # threads have their own threading.local, so each leg re-activates
        # the request's trace and records its own span.
        trace = current_trace()
        futures = {
            shard_id: self._executor.submit(
                self._traced_leg(shard_id, call, trace), self.shard(shard_id)
            )
            for shard_id in shard_ids
        }
        results: dict[str, Any] = {}
        errors: dict[str, Exception] = {}
        for shard_id, future in futures.items():
            try:
                results[shard_id] = future.result()
            except failure_types as error:
                errors[shard_id] = error
        return results, errors

    def _traced_leg(self, shard_id: str, call, trace):
        """Wrap one fan-out leg with trace propagation and latency metrics."""

        def run(shard: ShardBackend) -> Any:
            start = time.perf_counter()
            try:
                with use_trace(trace), maybe_span(f"fanout:{shard_id}"):
                    return call(shard)
            finally:
                if self._m_fanout_seconds is not None:
                    self._m_fanout_seconds.observe(
                        time.perf_counter() - start, shard=shard_id
                    )

        return run

    # ------------------------------------------------------------------
    # replication plumbing
    # ------------------------------------------------------------------
    @property
    def replication_factor(self) -> int:
        return self._router.replication_factor

    def _mark_stale(self, name: str, shard_id: str) -> None:
        with self._stale_lock:
            self._stale.add((name, shard_id))
        if self._m_stale_marks is not None:
            self._m_stale_marks.inc()

    def _clear_stale(self, name: str, shard_id: str) -> None:
        with self._stale_lock:
            self._stale.discard((name, shard_id))

    def is_stale(self, name: str, shard_id: str) -> bool:
        """True when ``shard_id``'s replica of ``name`` missed a write."""
        with self._stale_lock:
            return (name, shard_id) in self._stale

    def stale_replicas(self) -> list[tuple[str, str]]:
        """The (attribute, shard) pairs currently marked stale, sorted."""
        with self._stale_lock:
            return sorted(self._stale)

    def _failover_order(
        self, name: str, replicas: Sequence[str], *, spread: bool = False
    ) -> list[str]:
        """Read preference: primary first, known-stale replicas demoted last.

        A stale replica is still tried as the last resort -- an estimate
        from a slightly-behind replica beats no estimate at all -- but only
        after every up-to-date candidate proved unreachable.

        With ``spread`` (read-replica mode) the fresh candidates are rotated
        round-robin instead of primary-first: every fresh replica applied
        every acknowledged write (a replica that missed one is marked stale
        and lands in the demoted tail), so any of them answers estimate
        reads identically and the rotation spreads query load evenly.
        """
        with self._stale_lock:
            fresh = [sid for sid in replicas if (name, sid) not in self._stale]
            stale = [sid for sid in replicas if (name, sid) in self._stale]
        if spread and len(fresh) > 1:
            offset = next(self._read_rotation) % len(fresh)
            fresh = fresh[offset:] + fresh[:offset]
        return fresh + stale

    def _call_with_failover(
        self, name: str, replicas: Sequence[str], call, *, spread: bool = False
    ):
        """Run ``call(shard)`` on the first live replica; returns (id, result).

        :class:`ShardUnavailableError` triggers failover.  An application
        error (bad query, unknown attribute) is normally the same on every
        replica and propagates immediately -- with one exception: an
        ``UnknownAttributeError`` from a replica *marked stale* is not an
        answer about the attribute's existence (the replica may simply have
        missed the create), so failover continues; if no fresh replica can
        answer, the unavailability -- the retry/heal signal -- is preferred
        over the misleading "unknown".
        """
        last_unavailable: ShardUnavailableError | None = None
        last_unknown: UnknownAttributeError | None = None
        for shard_id in self._failover_order(name, replicas, spread=spread):
            try:
                start = time.perf_counter()
                try:
                    with maybe_span(f"shard:{shard_id}"):
                        return shard_id, call(self.shard(shard_id))
                finally:
                    if self._m_fanout_seconds is not None:
                        self._m_fanout_seconds.observe(
                            time.perf_counter() - start, shard=shard_id
                        )
            except ShardUnavailableError as error:
                last_unavailable = error
                if self._m_failovers is not None:
                    self._m_failovers.inc()
            except UnknownAttributeError as error:
                if not self.is_stale(name, shard_id):
                    raise
                last_unknown = error
        if last_unavailable is not None:
            raise last_unavailable
        if last_unknown is not None:
            raise last_unknown
        raise ClusterError(  # pragma: no cover - empty replica set
            f"no replicas to serve attribute {name!r}"
        )

    def _fan_out_replicated(
        self,
        name: str,
        groups: Sequence[tuple[tuple[str, ...], Any]],
        *,
        failure_types: tuple[type, ...] = (ShardUnavailableError,),
    ) -> dict[str, Any]:
        """Run one ``call(shard)`` per replica of every group, concurrently.

        ``groups`` holds ``(replica_ids, call)`` pairs.  The shared
        replicated-mutation contract (writes, create, restore): per group,
        success needs at least one replica to apply; a fully-failed group
        raises its first error -- but only after EVERY other group's partial
        failures were marked, or a replica that silently missed this
        mutation would be treated as fresh forever.  A replica that fails
        (``failure_types``) while a sibling succeeds is marked stale for
        ``resync`` to heal and never retried: its fate is unknown, and a
        blind retry could double-apply.  Errors outside ``failure_types``
        (a duplicate create, a bad payload) are the same on every replica
        and propagate immediately.
        """
        call_by_shard = {
            shard_id: call for replicas, call in groups for shard_id in replicas
        }
        results, errors = self._scatter_tolerant(
            list(call_by_shard),
            lambda shard: call_by_shard[shard.shard_id](shard),
            failure_types=failure_types,
        )
        failed: list[str] = []
        fully_failed: Exception | None = None
        for replicas, _ in groups:
            if not any(sid in results for sid in replicas):
                # Nothing applied in this group -- its replicas still agree,
                # so there is nothing to mark; the mutation is lost and raises.
                if fully_failed is None:
                    fully_failed = errors[replicas[0]]
                continue
            for shard_id in replicas:
                if shard_id in errors:
                    self._mark_stale(name, shard_id)
                    failed.append(shard_id)
        if fully_failed is not None:
            raise fully_failed
        return {"results": results, "failed_replicas": sorted(failed)}

    def _first_result(self, applied: Mapping[str, Any], replicas: Sequence[str]):
        """The first replica's result in preference order (primary first)."""
        results = applied["results"]
        return results[next(sid for sid in replicas if sid in results)]

    def _apply_replicated(
        self,
        name: str,
        groups: Sequence[tuple[tuple[str, ...], list[float], list[float]]],
    ) -> dict[str, Any]:
        """Fan one attribute's write out to every replica of every group.

        ``groups`` holds ``(replica_ids, insert, delete)`` triples (one
        group for an unpartitioned attribute, one per piece otherwise).
        ``UnknownAttributeError`` counts as a replica failure: a replica
        that was down during ``create`` does not know the attribute, and
        marking it stale routes it to ``resync`` (whose restore re-creates
        it) instead of poisoning every subsequent write.  When *no* replica
        knows the attribute, the group fully fails and the error still
        propagates as before.
        """
        return self._fan_out_replicated(
            name,
            [
                (
                    replicas,
                    lambda shard, i=insert, d=delete: shard.ingest(
                        name, insert=i, delete=d
                    ),
                )
                for replicas, insert, delete in groups
            ],
            failure_types=(ShardUnavailableError, UnknownAttributeError),
        )

    def _write_groups(
        self, name: str, insert: list[float], delete: list[float]
    ) -> list[tuple[tuple[str, ...], list[float], list[float]]]:
        """Split a write into replica groups (one, or one per touched piece)."""
        partition = self._router.partition_for(name)
        if partition is None:
            return [(self._router.replicas_for(name), insert, delete)]
        insert_groups = partition.split(insert)
        delete_groups = partition.split(delete)
        piece_replicas = self._router.partition_replicas(name)
        return [
            (
                piece_replicas[piece_id],
                insert_groups.get(piece_id, []),
                delete_groups.get(piece_id, []),
            )
            for piece_id in sorted(set(insert_groups) | set(delete_groups))
        ]

    def close(self) -> None:
        """Shut the fan-out pool down (idempotent; pending calls finish first)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=True)

    def __enter__(self) -> ClusterCoordinator:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
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
        """Create an attribute cluster-wide.

        Without ``partition_boundaries`` the attribute lands on its routed
        home shard.  With them, the attribute is registered as range-
        partitioned and one piece histogram (same configuration) is created
        on every piece shard; ``partition_shards`` overrides the default
        round-robin piece placement.
        """
        def create_on(shard: ShardBackend) -> dict[str, Any]:
            return shard.create(
                name,
                kind,
                memory_kb=memory_kb,
                value_unit=value_unit,
                disk_factor=disk_factor,
                seed=seed,
                exist_ok=exist_ok,
            )

        if partition_boundaries is None:
            if partition_shards is not None:
                raise ConfigurationError("partition_shards requires partition_boundaries")
            replicas = self._router.replicas_for(name)
            # The replicated-mutation contract (see _fan_out_replicated): one
            # replica creating suffices; an unreachable replica is marked
            # stale so resync re-seeds it -- its missing attribute is then a
            # recorded gap, not a silent one that poisons later writes.
            created = self._fan_out_replicated(name, [(replicas, create_on)])
            result = {
                "name": name,
                "partitioned": False,
                "shard": replicas[0],
                "stats": self._first_result(created, replicas),
            }
            if len(replicas) > 1:
                result["replicas"] = list(replicas)
            if created["failed_replicas"]:
                result["failed_replicas"] = created["failed_replicas"]
            return result

        partition = self._router.partition(name, partition_boundaries, partition_shards)
        try:
            piece_replicas = self._router.partition_replicas(name)
            created = self._fan_out_replicated(
                name, [(ids, create_on) for ids in piece_replicas.values()]
            )
            pieces = {
                piece_id: self._first_result(created, ids)
                for piece_id, ids in piece_replicas.items()
            }
        except Exception:
            # Creation is not atomic across shards; withdrawing the partition
            # keeps routing consistent with whatever was actually created
            # (retry with exist_ok=True after fixing the failing shard).
            self._router.unpartition(name)
            raise
        result = {
            "name": name,
            "partitioned": True,
            "partition": partition.to_dict(),
            "pieces": pieces,
        }
        if self._router.replication_factor > 1:
            result["replicas"] = {
                piece_id: list(ids) for piece_id, ids in piece_replicas.items()
            }
        if created["failed_replicas"]:
            result["failed_replicas"] = created["failed_replicas"]
        return result

    def drop(self, name: str) -> dict[str, Any]:
        """Drop an attribute from every shard holding state for it.

        Replicated-mutation contract: dropping from at least one replica
        that held the attribute succeeds; a replica that already lacks it
        (it missed the create) counts as dropped.  Unreachable replicas are
        reported as ``unreached`` -- their zombie copy resurfaces in
        ``names()`` when they revive, and *retrying the drop then works*
        (the already-dropped replicas count as dropped).  Only when every
        replica lacked the attribute does ``UnknownAttributeError``
        propagate, preserving the single-node API.
        """
        shard_ids = sorted(
            {sid for replicas in self._router.replica_sets_for(name) for sid in replicas}
        )

        def drop_on(shard: ShardBackend) -> str:
            try:
                shard.drop(name)
            except UnknownAttributeError:
                return "already-absent"
            return "dropped"

        outcomes, errors = self._scatter_tolerant(shard_ids, drop_on)
        unreached = sorted(errors)
        dropped = [sid for sid in shard_ids if outcomes.get(sid) == "dropped"]
        if not dropped:
            if unreached:
                raise errors[unreached[0]]
            raise UnknownAttributeError(name)
        if not unreached:
            # Routing (pin / partition) is withdrawn only on a COMPLETE
            # drop: with an unreached replica the placement must survive,
            # or the retried drop would route via the ring and never reach
            # the revived zombie copy of a pinned/partitioned attribute.
            self._router.unpartition(name)
            self._router.unassign(name)
            with self._merge_guard:
                self._merge_cache.pop(name, None)
                self._merge_locks.pop(name, None)
            with self._stale_lock:
                self._stale = {entry for entry in self._stale if entry[0] != name}
        result = {"dropped": name, "shards": sorted(dropped)}
        if unreached:
            result["unreached"] = sorted(unreached)
        return result

    def names(self) -> list[str]:
        """Every attribute name in the cluster (partitioned ones once).

        Tolerates unreachable shards -- with replication every attribute is
        visible on a surviving replica, and an all-shards-down cluster still
        raises.  The alternative (failing the listing because one member is
        restarting) would take ``/health`` and ``resync`` down exactly when
        they are needed.
        """
        gathered, errors = self._scatter_tolerant(
            list(self._shards), lambda shard: shard.names()
        )
        if not gathered and errors:
            raise next(iter(errors.values()))
        return sorted({name for names in gathered.values() for name in names})

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def ingest(
        self, name: str, insert: Sequence[float] = (), delete: Sequence[float] = ()
    ) -> dict[str, Any]:
        """Apply a write batch, scattering partitioned attributes per value."""
        insert = list(insert)
        delete = list(delete)
        if not self._begin_apply(name, insert, delete):
            return {
                "buffered_for_move": True,
                "inserted": len(insert),
                "deleted": len(delete),
            }
        try:
            groups = self._write_groups(name, insert, delete)
            applied = self._apply_replicated(name, groups)
            response = {
                "inserted": len(insert),
                "deleted": len(delete),
                "per_shard": {
                    shard_id: result.get("inserted", 0)
                    for shard_id, result in applied["results"].items()
                },
            }
            if self._router.is_partitioned(name):
                response["partitioned"] = True
            if applied["failed_replicas"]:
                response["failed_replicas"] = applied["failed_replicas"]
            return response
        finally:
            self._end_apply(name)

    def ingest_batch(self, items: Mapping[str, Any]) -> dict[str, Any]:
        """Fan a multi-attribute write batch out: one concurrent stream per shard.

        ``items`` maps attribute name to either a plain sequence of values
        (an insert run, the historical shape) or a mapping with optional
        ``insert`` / ``delete`` value lists.  Every attribute's values are
        grouped by owning shard (splitting partitioned attributes per value),
        then each shard applies its group in one concurrently-submitted run;
        the shard applies an attribute's inserts before its deletes, and the
        delete side rides the store's vectorised ``delete_many`` path.
        """
        per_shard: dict[str, dict[str, tuple[list[float], list[float]]]] = {}
        # One entry per replica group: (name, replica ids, insert, delete);
        # success needs >= 1 live replica per group.
        group_index: list[tuple[str, tuple[str, ...], list[float], list[float]]] = []
        applying: list[str] = []
        buffered = 0
        buffered_deletes = 0
        try:
            for name, values in items.items():
                if isinstance(values, Mapping):
                    insert = list(values.get("insert", ()))
                    delete = list(values.get("delete", ()))
                else:
                    insert = list(values)
                    delete = []
                if not insert and not delete:
                    continue
                if not self._begin_apply(name, insert, delete):
                    buffered += len(insert)
                    buffered_deletes += len(delete)
                    continue
                applying.append(name)
                for replicas, group_insert, group_delete in self._write_groups(
                    name, insert, delete
                ):
                    group_index.append((name, replicas, group_insert, group_delete))
                    for shard_id in replicas:
                        shard_items = per_shard.setdefault(shard_id, {})
                        shard_items[name] = (group_insert, group_delete)

            def apply_group(shard: ShardBackend) -> dict[str, int]:
                applied = {"inserted": 0, "deleted": 0}
                for name, (shard_insert, shard_delete) in per_shard[
                    shard.shard_id
                ].items():
                    result = shard.ingest(name, insert=shard_insert, delete=shard_delete)
                    applied["inserted"] += result.get("inserted", len(shard_insert))
                    applied["deleted"] += result.get("deleted", len(shard_delete))
                return applied

            # A failing shard's whole stream is suspect: some attributes in
            # its group may have applied before the failure, so every one of
            # them is conservatively marked stale below (resync heals by
            # full-state replace).
            gathered, shard_errors = self._scatter_tolerant(
                sorted(per_shard),
                apply_group,
                failure_types=(ShardUnavailableError, UnknownAttributeError),
            )
            failed_replicas: list[str] = []
            # As in _fan_out_replicated: finish the stale-marking sweep over
            # every group before raising for a fully-failed one.
            fully_failed: Exception | None = None
            for name, replicas, _, _ in group_index:
                alive = [sid for sid in replicas if sid not in shard_errors]
                if not alive:
                    if fully_failed is None:
                        fully_failed = shard_errors[replicas[0]]
                    continue
                for shard_id in replicas:
                    if shard_id in shard_errors:
                        self._mark_stale(name, shard_id)
                        failed_replicas.append(f"{name}@{shard_id}")
            if fully_failed is not None:
                raise fully_failed
        finally:
            for name in applying:
                self._end_apply(name)
        # Logical counts come from the submitted values (each group that
        # reached here has >= 1 replica apply); ``per_shard`` keeps its
        # historical meaning of values physically placed per shard -- with
        # replication a value lands on every replica, so the per-shard sum
        # exceeds ``inserted`` by design.
        logical_inserted = sum(len(insert) for _, _, insert, _ in group_index)
        logical_deleted = sum(len(delete) for _, _, _, delete in group_index)
        response = {
            "inserted": logical_inserted + buffered,
            "deleted": logical_deleted + buffered_deletes,
            "buffered_for_move": buffered + buffered_deletes,
            "per_shard": {
                shard_id: result["inserted"] for shard_id, result in gathered.items()
            },
            "per_shard_deleted": {
                shard_id: result["deleted"] for shard_id, result in gathered.items()
            },
        }
        if failed_replicas:
            response["failed_replicas"] = sorted(failed_replicas)
        return response

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def query(self, name: str, queries: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
        """Evaluate a consistent batch of estimate queries.

        Unpartitioned attributes delegate to the home shard's batched query
        (served there from the published snapshot -- no torn estimates, no
        lock), failing over to the next live replica when the home shard is
        unreachable; with ``replica_reads`` the read rotates across the
        fresh replicas instead of always landing on the primary.
        Partitioned attributes are served from the merged global histogram,
        an immutable snapshot, so the whole batch is trivially consistent;
        the returned ``generation`` is the piece generation sum the merge
        was keyed on.
        """
        if not self._router.is_partitioned(name):
            shard_id, result = self._call_with_failover(
                name,
                self._router.replicas_for(name),
                lambda shard: shard.query(name, queries),
                spread=self._replica_reads,
            )
            result["shard"] = shard_id
            return result
        generation_sum, merged = self._merged_entry(name)
        return {
            "generation": generation_sum,
            "results": evaluate_queries(merged, queries),
            "merged": True,
            "buckets": merged.bucket_count,
        }

    def estimate_range(self, name: str, low: float, high: float) -> float:
        """Estimated number of values of ``name`` in the closed range [low, high]."""
        return float(self.query(name, [{"op": "range", "low": low, "high": high}])["results"][0])

    def estimate_equal(self, name: str, value: float) -> float:
        """Estimated number of values of ``name`` equal to ``value``."""
        return float(self.query(name, [{"op": "equal", "value": value}])["results"][0])

    def total_count(self, name: str) -> float:
        """Total number of values represented cluster-wide for ``name``."""
        return float(self.query(name, [{"op": "total"}])["results"][0])

    def cdf(self, name: str, xs: Sequence[float]) -> list[float]:
        """Approximate CDF of ``name`` at each point of ``xs``."""
        return [float(v) for v in self.query(name, [{"op": "cdf", "xs": list(xs)}])["results"][0]]

    # ------------------------------------------------------------------
    # merged global histograms
    # ------------------------------------------------------------------
    def merged_histogram(self, name: str) -> Histogram:
        """The merged global histogram of a partitioned attribute (cached)."""
        return self._merged_entry(name)[1]

    def _partition_of(self, name: str) -> RangePartition:
        partition = self._router.partition_for(name)
        if partition is None:
            raise ClusterError(f"attribute {name!r} is not range-partitioned")
        return partition

    def _gather_pieces(
        self,
        name: str,
        piece_replicas: Mapping[str, tuple[str, ...]],
        call,
        *,
        spread: bool = False,
    ) -> dict[str, Any]:
        """Run ``call`` once per piece, each with replica failover, gathered
        concurrently and keyed by the piece's primary shard id."""
        # As in _scatter_tolerant: capture the trace before crossing into
        # the pool so each piece's failover legs record spans on it.
        trace = current_trace()

        def run(replicas: tuple[str, ...]) -> tuple[str, Any]:
            with use_trace(trace):
                return self._call_with_failover(name, replicas, call, spread=spread)

        futures = {
            piece_id: self._executor.submit(run, replicas)
            for piece_id, replicas in piece_replicas.items()
        }
        return {
            piece_id: future.result()[1] for piece_id, future in futures.items()
        }

    def _piece_generations(
        self, name: str, piece_replicas: Mapping[str, tuple[str, ...]]
    ) -> dict[str, int]:
        """Probe every piece's generation counter (the merge-cache key).

        The per-shard probe is a lock-free published-reference read, and in
        read-replica mode the probes rotate across fresh replicas like any
        other estimate read.
        """
        return {
            piece_id: int(value)
            for piece_id, value in self._gather_pieces(
                name,
                piece_replicas,
                lambda shard: shard.generation(name),
                spread=self._replica_reads,
            ).items()
        }

    def _merge_lock(self, name: str) -> threading.Lock:
        with self._merge_guard:
            lock = self._merge_locks.get(name)
            if lock is None:
                lock = self._merge_locks[name] = threading.Lock()
            return lock

    def _merged_entry(self, name: str) -> tuple[int, UnionHistogram]:
        """The cached merged histogram, refreshed incrementally after writes.

        The hit check compares the cached key against the sum of the piece
        shards' generation counters, read **before** the snapshots: a write
        landing between the generation read and a snapshot makes the cached
        entry *fresher* than its key claims, so the very next query
        observes a larger sum and rebuilds -- the safe direction.  The key
        a rebuilt entry is cached under comes from **the snapshots
        themselves** (each snapshot payload carries its replica's
        generation): under replica failover the generation probe and the
        snapshot fetch may be served by *different* replicas, and keying a
        stale follower's snapshot under the fresh primary's generation
        would pin an under-counting merge until the next write.  Keyed on
        its own snapshots, the entry stops matching as soon as the fresher
        replica answers the probe again.

        A refresh is *incremental*: the cache retains each piece's
        deserialised member histogram together with the generation its
        snapshot reported, and only pieces whose freshly probed generation
        differs from that retained per-piece generation are re-fetched.
        The retained members are immutable inputs (superimpose only reads
        their segment views), and an unchanged generation means an identical
        snapshot, so the incremental superimpose + reduce is bit-identical
        to a from-scratch rebuild over full snapshots -- the probe-before-
        snapshot direction holds per piece exactly as in the all-piece case.
        """
        partition = self._partition_of(name)
        piece_ids = partition.piece_shard_ids
        piece_replicas = self._router.partition_replicas(name)
        generations = self._piece_generations(name, piece_replicas)
        generation_sum = sum(generations.values())
        cached = self._merge_cache.get(name)
        if cached is not None and cached[0] == generation_sum:
            return cached[0], cached[1]
        with self._merge_lock(name):
            cached = self._merge_cache.get(name)
            if cached is not None and cached[0] == generation_sum:
                return cached[0], cached[1]
            retained = cached[2] if cached is not None else {}
            moved = {
                piece_id
                for piece_id in piece_ids
                if piece_id not in retained
                or retained[piece_id][0] != generations[piece_id]
            }
            snapshots = (
                self._gather_pieces(
                    name,
                    {piece_id: piece_replicas[piece_id] for piece_id in moved},
                    lambda shard: shard.snapshot(name),
                )
                if moved
                else {}
            )
            piece_states: dict[str, tuple[int, Histogram]] = {}
            for piece_id in piece_ids:
                if piece_id in snapshots:
                    snapshot = snapshots[piece_id]
                    piece_states[piece_id] = (
                        int(snapshot.get("generation", 0)),
                        histogram_from_dict(dict(snapshot["histogram"])),
                    )
                else:
                    piece_states[piece_id] = retained[piece_id]
            merged = reduce_segments(
                superimpose([piece_states[piece_id][1] for piece_id in piece_ids]),
                self._global_buckets,
                value_unit=self._value_unit,
            )
            snapshot_generation_sum = sum(
                state[0] for state in piece_states.values()
            )
            entry = (snapshot_generation_sum, merged, piece_states)
            # Insert under the guard (stats() iterates the cache under it),
            # and never resurrect an entry a concurrent drop() just removed.
            with self._merge_guard:
                if self._router.partition_for(name) is not None:
                    self._merge_cache[name] = entry
            return entry[0], entry[1]

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self, name: str) -> dict[str, Any]:
        """Full serialised state of an unpartitioned attribute.

        Served by the home shard, failing over to the next live replica.
        """
        if self._router.is_partitioned(name):
            raise ClusterError(
                f"attribute {name!r} is range-partitioned; snapshot its pieces "
                "per shard (each piece shard serves /attributes/<name>/snapshot)"
            )
        return self._call_with_failover(
            name, self._router.replicas_for(name), lambda shard: shard.snapshot(name)
        )[1]

    def restore(self, name: str, snapshot: Mapping[str, Any]) -> dict[str, Any]:
        """Restore an unpartitioned attribute onto every replica of its home.

        Follows the replicated-write contract: success needs one replica to
        restore; a replica that fails is marked stale (it now diverges from
        the restored state) for ``resync`` to heal, never silently trusted.
        """
        if self._router.is_partitioned(name):
            raise ClusterError(
                f"attribute {name!r} is range-partitioned; restore its pieces per shard"
            )
        replicas = self._router.replicas_for(name)
        restored = self._fan_out_replicated(
            name, [(replicas, lambda shard: shard.restore(name, snapshot))]
        )
        return self._first_result(restored, replicas)

    # ------------------------------------------------------------------
    # rebalance / drain
    # ------------------------------------------------------------------
    def _begin_apply(self, name: str, insert: list[float], delete: list[float]) -> bool:
        """Atomically either buffer the ops (attribute moving -> False) or
        register an in-flight apply (True; pair with :meth:`_end_apply`).

        The check-and-increment is one critical section: a rebalance that
        registers afterwards will wait for this apply to finish before it
        snapshots, so the write is guaranteed to be inside the snapshot.
        """
        with self._moves_cv:
            buffer = self._moves.get(name)
            if buffer is not None:
                if insert:
                    buffer.append(("insert", list(insert)))
                if delete:
                    buffer.append(("delete", list(delete)))
                return False
            self._inflight[name] = self._inflight.get(name, 0) + 1
            return True

    def _end_apply(self, name: str) -> None:
        with self._moves_cv:
            remaining = self._inflight.get(name, 1) - 1
            if remaining > 0:
                self._inflight[name] = remaining
            else:
                self._inflight.pop(name, None)
                self._moves_cv.notify_all()

    def _replay_buffer_best_effort(
        self, name: str, buffered: list[tuple[str, list[float]]]
    ) -> int:
        """Failure-path compensation: replay formerly-buffered ops through
        the public write path, attempting EVERY op -- one op whose replica
        group is momentarily unreachable must not discard the acknowledged
        ops queued behind it.  An op that still fails is dropped (bounded
        undercount beats double-applying an op whose fate is unknown -- the
        ingest pipeline's rule); the count of dropped ops is returned.
        """
        dropped = 0
        for op, values in buffered:
            try:
                if op == "insert":
                    self.ingest(name, insert=values)
                else:
                    self.ingest(name, delete=values)
            except Exception:
                dropped += 1
        if dropped:
            with self._stale_lock:
                self._dropped_buffered_ops += dropped
        return dropped

    def _replay(self, shard: ShardBackend, name: str, runs: list[tuple[str, list[float]]]) -> int:
        applied = 0
        for op, values in runs:
            if op == "insert":
                shard.ingest(name, insert=values)
            else:
                shard.ingest(name, delete=values)
            applied += len(values)
        return applied

    def rebalance(self, name: str, target_shard_id: str) -> dict[str, Any]:
        """Move an unpartitioned attribute to ``target_shard_id``.

        Protocol (no write is ever lost):

        1. register the move -- from here, cluster writes for ``name`` are
           buffered at the coordinator instead of applied -- then wait for
           the in-flight applies that passed the move check earlier to
           drain, so every applied write is visible to the snapshot;
        2. snapshot on the source, restore on the target;
        3. replay buffered writes onto the target, repeating until a drain
           pass finds the buffer empty *while holding the move lock*, at
           which point the routing override flips to the target and the move
           is unregistered in the same critical section -- a concurrent
           writer either buffered before the flip (replayed) or routes to
           the target after it;
        4. drop the attribute from the source.

        On failure the buffered writes are replayed onto the source (still
        the routed home) before the error propagates.
        """
        target = self.shard(target_shard_id)
        if self._router.replication_factor > 1:
            raise ClusterError(
                "rebalance requires replication_factor=1: a replicated "
                "attribute's placement is its whole replica set -- heal or "
                "reshape it with resync instead"
            )
        if self._router.is_partitioned(name):
            raise ClusterError(
                f"attribute {name!r} is range-partitioned; move pieces by re-partitioning"
            )
        source_id = self._router.shard_for(name)
        if source_id == target_shard_id:
            return {"attribute": name, "from": source_id, "to": target_shard_id, "moved": False}
        source = self.shard(source_id)
        with self._moves_cv:
            if name in self._moves:
                raise ClusterError(f"attribute {name!r} is already being moved")
            self._moves[name] = []
            # Fence: applies that slipped past the move check must reach the
            # source before the snapshot, or their values would be neither in
            # the copy nor in the buffer.
            while self._inflight.get(name, 0) > 0:
                self._moves_cv.wait()
        replayed = 0
        try:
            snapshot = source.snapshot(name)
            target.restore(name, snapshot)
            while True:
                with self._moves_cv:
                    buffered = self._moves[name]
                    if not buffered:
                        # Atomic flip: override + unregister under the same
                        # lock a writer needs to buffer.
                        self._router.assign(name, target_shard_id)
                        del self._moves[name]
                        break
                    self._moves[name] = []
                replayed += self._replay(target, name, buffered)
        except Exception:
            with self._moves_cv:
                buffered = self._moves.pop(name, [])
            # The source is still the routed home; put buffered writes back
            # through the public path so they fence against any later move.
            self._replay_buffer_best_effort(name, buffered)
            raise
        source.drop(name)
        return {
            "attribute": name,
            "from": source_id,
            "to": target_shard_id,
            "moved": True,
            "replayed_buffered_values": replayed,
        }

    def drain(self, shard_id: str) -> dict[str, Any]:
        """Move every attribute homed on ``shard_id`` to the other members.

        Range-partitioned attributes keep their piece on the shard (moving a
        piece is a re-partitioning decision, not a drain) and are reported as
        skipped.
        """
        source = self.shard(shard_id)
        if self._router.replication_factor > 1:
            raise ClusterError(
                "drain requires replication_factor=1; a replicated cluster "
                "heals an emptied-and-recovered shard with resync"
            )
        if len(self._shards) < 2:
            raise ClusterError("cannot drain the only shard in the cluster")
        moved: dict[str, str] = {}
        skipped: list[str] = []
        for name in source.names():
            if self._router.is_partitioned(name):
                skipped.append(name)
                continue
            if self._router.shard_for(name) != shard_id:
                continue  # a stale replica; the routed home is elsewhere
            target_id = self._router.ring_shard_for(name, exclude=(shard_id,))
            self.rebalance(name, target_id)
            moved[name] = target_id
        return {"shard": shard_id, "moved": moved, "skipped_partitioned": sorted(skipped)}

    # ------------------------------------------------------------------
    # resync (replica healing)
    # ------------------------------------------------------------------
    def _resync_attribute(
        self, name: str, replicas: tuple[str, ...], target_id: str
    ) -> str:
        """Re-seed ``target_id``'s replica of one attribute (or piece).

        Snapshot/restore is a *full-state replace*: whatever subset of
        writes the stale replica saw, restoring a live replica's snapshot
        over it can neither lose nor double-apply anything.  Writes racing
        the copy are fenced exactly like a rebalance: the attribute is
        registered as moving (cluster writes buffer at the coordinator),
        in-flight applies drain before the snapshot, and the buffer is
        replayed onto **all** replicas before the move is unregistered, so
        every buffered write lands exactly once everywhere.
        """
        sources = tuple(sid for sid in replicas if sid != target_id)
        assert sources, "resync needs a second replica to copy from"
        with self._moves_cv:
            if name in self._moves:
                raise ClusterError(f"attribute {name!r} is already being moved")
            self._moves[name] = []
            while self._inflight.get(name, 0) > 0:
                self._moves_cv.wait()
        try:
            source_id, snapshot = self._call_with_failover(
                name, sources, lambda shard: shard.snapshot(name)
            )
            self.shard(target_id).restore(name, snapshot)
            # Stale bookkeeping NOW, not after the replay: the restore made
            # the target exactly as fresh as its source (buffered ops are on
            # no replica yet), and a replay failure below may legitimately
            # re-mark it -- a mark that must survive this resync.  When the
            # failover had to fall back to a *stale* source (every fresh
            # sibling unreachable), the target inherits that staleness: a
            # clear here would advertise a copy that may miss acknowledged
            # writes as fresh, and a later resync could then spread it over
            # the one replica that still has them.
            if self.is_stale(name, source_id):
                self._mark_stale(name, target_id)
            else:
                self._clear_stale(name, target_id)
            while True:
                with self._moves_cv:
                    buffered = self._moves[name]
                    if not buffered:
                        del self._moves[name]
                        break
                    self._moves[name] = []
                for index, (op, values) in enumerate(buffered):
                    try:
                        groups = self._write_groups(
                            name,
                            values if op == "insert" else [],
                            values if op == "delete" else [],
                        )
                        self._apply_replicated(name, groups)
                    except Exception:
                        # Push the known-unapplied tail back into the move
                        # buffer so the outer handler replays it -- these
                        # ops were already acknowledged to their writers.
                        # The failing op itself is dropped: its progress is
                        # unknown (some piece groups may have applied), and
                        # a bounded undercount beats double-applying -- the
                        # same rule the ingest pipeline follows.  The drop
                        # is counted so stats() surfaces it.
                        with self._moves_cv:
                            self._moves[name] = (
                                buffered[index + 1 :] + self._moves.get(name, [])
                            )
                        with self._stale_lock:
                            self._dropped_buffered_ops += 1
                        raise
        except Exception:
            with self._moves_cv:
                buffered = self._moves.pop(name, [])
            # Nothing routed away: replay the buffer through the public path
            # so it fences against any later move/resync.
            self._replay_buffer_best_effort(name, buffered)
            raise
        return source_id

    def resync(self, shard_id: str) -> dict[str, Any]:
        """Heal a recovered shard: re-seed every replica it should hold.

        For every attribute (and partitioned piece) whose replica set
        contains ``shard_id``, the freshest reachable sibling replica is
        snapshotted and restored onto the shard, and the (attribute, shard)
        stale mark is cleared.  Attributes whose *only* replica is this
        shard have no surviving copy to heal from and are reported as
        ``unrecoverable`` (their data is whatever the shard itself still
        holds -- e.g. what its own WAL recovered).
        """
        self.shard(shard_id)  # membership check
        resynced: dict[str, str] = {}
        unrecoverable: list[str] = []
        for name in self.names():
            for replicas in self._router.replica_sets_for(name):
                if shard_id not in replicas:
                    continue
                if len(replicas) < 2:
                    unrecoverable.append(name)
                    continue
                resynced[name] = self._resync_attribute(name, replicas, shard_id)
        return {
            "shard": shard_id,
            "resynced": resynced,
            "unrecoverable": sorted(unrecoverable),
        }

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def attribute_stats(self, name: str) -> dict[str, Any]:
        """Cluster-level stats of one attribute (per piece when partitioned)."""
        partition = self._router.partition_for(name)
        if partition is None:
            replicas = self._router.replicas_for(name)
            shard_id, stats = self._call_with_failover(
                name, replicas, lambda shard: shard.stats(name)
            )
            result = {
                "name": name,
                "partitioned": False,
                "shard": shard_id,
                "stats": stats,
            }
            if len(replicas) > 1:
                result["replicas"] = list(replicas)
            return result
        piece_replicas = self._router.partition_replicas(name)
        pieces = self._gather_pieces(
            name, piece_replicas, lambda shard: shard.stats(name)
        )
        cached = self._merge_cache.get(name)
        result = {
            "name": name,
            "partitioned": True,
            "partition": partition.to_dict(),
            "pieces": pieces,
            "merged_generation_sum": None if cached is None else cached[0],
            "merged_buckets": None if cached is None else cached[1].bucket_count,
        }
        if self._router.replication_factor > 1:
            result["replicas"] = {
                piece_id: list(ids) for piece_id, ids in piece_replicas.items()
            }
        return result

    def stats(self) -> dict[str, Any]:
        """Cluster-wide stats: per-shard attribute tables plus placement.

        An unreachable shard is reported (``status: unavailable``) rather
        than failing the whole listing -- operators need exactly this view
        while a member is down.
        """

        gathered, errors = self._scatter_tolerant(
            list(self._shards),
            lambda shard: {"health": shard.health(), "attributes": shard.stats_all()},
        )
        for shard_id, error in errors.items():
            gathered[shard_id] = {
                "health": {"status": "unavailable", "error": str(error)},
                "attributes": [],
            }
        with self._merge_guard:
            merge_cache = {
                name: {"generation_sum": entry[0], "buckets": entry[1].bucket_count}
                for name, entry in self._merge_cache.items()
            }
        return {
            "shards": [
                {"shard_id": shard_id, **gathered[shard_id]} for shard_id in self._shards
            ],
            "placement": self._router.placement(),
            "merge_cache": merge_cache,
            "stale_replicas": [list(entry) for entry in self.stale_replicas()],
            "dropped_buffered_ops": self._dropped_buffered_ops,
            "replica_reads": self._replica_reads,
        }
