"""Ablation-matrix benchmark harness with regression gating.

One declarative runner over the repository's performance surface: each
**cell** of the matrix flips exactly one knob of a shared workload body
(reused from ``bench_hot_paths`` / ``bench_service`` / ``bench_cluster``)
and records throughput plus latency quantiles pulled from the cell's own
:class:`~repro.obs.registry.MetricsRegistry`:

* ``hist_dc`` / ``hist_dvo`` / ``hist_dado`` -- batched ``insert_many``
  into each histogram class at the same memory budget;
* ``wal_off`` / ``wal_on`` / ``wal_fsync`` -- the service pipeline-ingest
  body with durability off, WAL on, and WAL + fsync-per-batch;
* ``batch_64`` / ``batch_256`` (plus ``wal_off`` as the 1024 point) --
  pipeline ``max_batch`` sweep;
* ``shards_1`` / ``shards_2`` / ``shards_4`` -- the cluster scatter-gather
  scaling body over the emulated per-shard apply engine;
* ``spawned_shards_1`` / ``spawned_shards_4`` -- the same body against REAL
  worker processes spawned by the shard supervisor, reached over the
  persistent binary transport (the only cells where CPU-bound ingest can
  scale past one core);
* ``rf_1`` / ``rf_2`` / ``rf_3`` -- replication-factor sweep: the same
  scatter batch fanned out at N-way replication;
* ``read_locked_single`` / ``read_published_single`` -- single-node read
  ablation under sustained ingest: the pre-RCU locked read path vs the
  lock-free published-snapshot path on one store;
* ``read_qps_shards_1`` / ``read_qps_shards_4`` -- read QPS under ingest
  through the coordinator over the emulated per-shard serve engines;
* ``merge_dado_3`` -- the cluster's merged-estimate merge: superimpose three
  DADO piece snapshots and reduce the union to 64 buckets.

The emitted JSON (one file per host) is **schema-versioned** and stamped
with a host fingerprint (python version, numpy version, CPU count); derived
ratios (``wal_overhead``, ``fsync_overhead``, ``batch_scaling``,
``shard_scaling``, ``spawned_scaling``, ``rf_cost``,
``read_unlock_speedup``, ``read_scaling``) make the ablation readable at a
glance.

``--gate`` diffs the current run against the committed baseline for this
host's fingerprint (``benchmarks/baselines/<fingerprint>.json``) within
per-metric tolerance bands and exits non-zero on regression, printing a
delta table that names the offending cell.  On a host with no matching
baseline the gate **skips with a visible notice** instead of failing, so CI
runs on unpinned hardware stay green while still uploading their matrix
JSON as an artifact.

``--profile`` attaches the stdlib sampling profiler
(:class:`repro.obs.profile.SamplingProfiler`) to every cell and embeds its
collapsed hot-path attribution in the cell's JSON; a separate
``profiler_overhead`` section always measures the sampler's cost on one
cell (target: instrumented throughput >= 0.95x uninstrumented).

Run directly::

    python benchmarks/matrix.py --smoke --gate       # CI shape
    python benchmarks/matrix.py --write-baseline     # refresh the baseline
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile
import threading
import time
from typing import Any, Callable

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import bench_cluster  # noqa: E402
import bench_hot_paths  # noqa: E402
import bench_service  # noqa: E402

from repro.obs import (  # noqa: E402
    LATENCY_BUCKETS_S,
    MetricsRegistry,
    PhaseTimer,
    SamplingProfiler,
)
from repro.service import DurabilityConfig, HistogramStore, IngestPipeline  # noqa: E402

SCHEMA_VERSION = 1

BASELINE_DIR = pathlib.Path(__file__).resolve().parent / "baselines"
DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parents[1] / "BENCH_matrix.json"

#: Latency quantiles every cell reports (upper-bound estimates from the
#: fixed metric buckets -- see ``Distribution.quantiles``).
QUANTILES = (0.5, 0.9, 0.99)

#: Per-metric tolerance bands for the regression gate.  ``min_ratio`` guards
#: throughput-like metrics (current/baseline must stay above it); ``max_ratio``
#: guards latency-like metrics.  The bands are deliberately wide: matrix cells
#: run on shared single-core CI hosts where ordinary scheduling noise moves
#: throughput tens of percent between runs, and the gate's job is to catch a
#: 2x-class regression (ratio 0.5 < 0.55), not a 10% wobble.
GATE_BANDS: dict[str, dict[str, float]] = {
    "ops_per_sec": {"min_ratio": 0.55},
    "latency_p99_s": {"max_ratio": 4.0, "floor": 0.005},
}


# ----------------------------------------------------------------------
# host fingerprint
# ----------------------------------------------------------------------
def host_fingerprint() -> dict[str, Any]:
    return {
        "python": sys.version.split()[0],
        "numpy": str(np.__version__),
        "cpu_count": os.cpu_count() or 1,
    }


def fingerprint_id(fingerprint: dict[str, Any] | None = None) -> str:
    fp = fingerprint if fingerprint is not None else host_fingerprint()
    return f"py{fp['python']}-np{fp['numpy']}-cpu{fp['cpu_count']}"


# ----------------------------------------------------------------------
# cell bodies -- each returns {"ops_per_sec": ..., "latency_*": ...,
# "detail": {...}} and flips exactly one knob of a shared workload
# ----------------------------------------------------------------------
def _quantile_block(registry: MetricsRegistry, metric: str, **labels: str) -> dict:
    dist = registry.get(metric)
    values = dist.quantiles(QUANTILES, **labels)
    return {
        f"latency_p{int(q * 100)}_s": round(value, 6)
        for q, value in zip(QUANTILES, values, strict=True)
    }


def run_histogram_cell(config: dict, sizes: dict) -> dict:
    """Batched inserts into one histogram class (knob: the class)."""
    from repro.core import build_dynamic_histogram

    n_values = sizes["hist_values"]
    values = bench_hot_paths.insert_stream(n_values)
    batch = 1024
    registry = MetricsRegistry()
    lat = registry.distribution(
        "matrix_hist_batch_seconds",
        "Per-batch insert_many latency inside one matrix cell",
        LATENCY_BUCKETS_S,
    )

    def run() -> None:
        histogram = build_dynamic_histogram(config["klass"], memory_kb=0.5)
        for start in range(0, n_values, batch):
            chunk = values[start : start + batch]
            t0 = time.perf_counter()
            histogram.insert_many(chunk, repartition_interval=16)
            lat.observe(time.perf_counter() - t0)

    best = float("inf")
    for _ in range(sizes["repeats"]):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return {
        "ops_per_sec": round(n_values / best, 1),
        **_quantile_block(registry, "matrix_hist_batch_seconds"),
        "detail": {"histogram": config["klass"], "values": n_values, "batch": batch},
    }


def run_service_cell(config: dict, sizes: dict) -> dict:
    """The bench_service pipeline-ingest body (knobs: WAL mode, max_batch)."""
    n_values = sizes["service_values"]
    max_batch = config.get("max_batch", 1024)
    wal = config.get("wal", "off")  # off | on | fsync
    stream = bench_service.ingest_stream(n_values, seed=33)

    def run(wal_dir: str | None) -> MetricsRegistry:
        registry = MetricsRegistry()
        durability = None
        if wal_dir is not None:
            durability = DurabilityConfig(wal_dir, fsync=(wal == "fsync"))
        store = HistogramStore(durability=durability, metrics=registry)
        for name, kind in bench_service.ATTRIBUTE_MIX:
            store.create(name, kind, memory_kb=0.5)
        pipeline = IngestPipeline(
            store, max_batch=max_batch, repartition_interval=64, metrics=registry
        )
        with pipeline:
            submit = pipeline.submit
            for name, value in stream:
                submit(name, (value,))
        bench_service._check_conservation(store, n_values)
        store.close()
        return registry

    best = float("inf")
    registry = MetricsRegistry()
    for _ in range(sizes["repeats"]):
        if wal == "off":
            t0 = time.perf_counter()
            registry = run(None)
            elapsed = time.perf_counter() - t0
        else:
            with tempfile.TemporaryDirectory(prefix="repro-matrix-wal-") as wal_dir:
                t0 = time.perf_counter()
                registry = run(wal_dir)
                elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
    return {
        "ops_per_sec": round(n_values / best, 1),
        **_quantile_block(registry, "repro_store_op_seconds", op="insert"),
        "detail": {"wal": wal, "max_batch": max_batch, "values": n_values},
    }


def run_cluster_scaling_cell(config: dict, sizes: dict) -> dict:
    """The bench_cluster scatter-gather body (knob: shard count)."""
    registry = MetricsRegistry()
    result = bench_cluster.run_scaling_config(
        config["shards"],
        sizes["cluster_calls"],
        sizes["catalog_chunk"],
        sizes["hot_chunk"],
        sizes["cluster_writers"],
        sizes["cluster_readers"],
        emulate_apply=True,
        metrics=registry,
    )
    quantiles = _quantile_block(registry, "repro_cluster_fanout_seconds", shard="shard-0")
    return {
        "ops_per_sec": result["ingest_per_sec"],
        **quantiles,
        "detail": {
            "shards": config["shards"],
            "ingested_values": result["ingested_values"],
            "queries_per_sec": result["queries_per_sec"],
        },
    }


def run_cluster_spawned_cell(config: dict, sizes: dict) -> dict:
    """The scatter-gather body against REAL spawned worker processes.

    Same workload as ``cluster_scaling`` with the emulated apply engine
    replaced by actual OS processes behind the binary transport (knob: how
    many).  On a multi-core host this is the cell where CPU-bound ingest
    scales; on one core it records the transport's honest overhead.
    """
    registry = MetricsRegistry()
    result = bench_cluster.run_scaling_config(
        config["shards"],
        sizes["spawned_calls"],
        sizes["catalog_chunk"],
        sizes["hot_chunk"],
        sizes["cluster_writers"],
        sizes["cluster_readers"],
        emulate_apply=False,
        factory=lambda n: bench_cluster.build_spawned_cluster(n, metrics=registry),
    )
    quantiles = _quantile_block(registry, "repro_cluster_fanout_seconds", shard="shard-0")
    return {
        "ops_per_sec": result["ingest_per_sec"],
        **quantiles,
        "detail": {
            "shards": config["shards"],
            "transport": "spawned processes, binary frames over persistent TCP",
            "host_cpu_count": os.cpu_count() or 1,
            "ingested_values": result["ingested_values"],
            "queries_per_sec": result["queries_per_sec"],
        },
    }


def run_cluster_rf_cell(config: dict, sizes: dict) -> dict:
    """Replication-factor sweep: one scatter batch stream at N-way replication.

    Three emulated-apply shards held constant; the knob is how many replicas
    every write fans out to, so the measured cost is pure replication fan-out.
    """
    from repro.cluster import ClusterCoordinator, LocalShard, ShardRouter

    factor = config["replication_factor"]
    n_calls = sizes["rf_calls"]
    chunk = sizes["rf_chunk"]
    registry = MetricsRegistry()
    shards = [
        LocalShard(
            f"shard-{index}",
            bench_cluster.EmulatedApplyStore(
                bench_cluster.APPLY_PER_BATCH_S, bench_cluster.APPLY_PER_VALUE_S
            ),
        )
        for index in range(3)
    ]
    router = ShardRouter(
        [shard.shard_id for shard in shards], replication_factor=factor
    )
    coordinator = ClusterCoordinator(
        shards, router=router, max_workers=16, metrics=registry
    )
    names = [name for name, _ in bench_cluster.ATTRIBUTE_MIX[:4]]
    for name in names:
        coordinator.create(name, "dc", memory_kb=0.5)
    rng = np.random.default_rng(7)
    calls = [
        {name: bench_cluster.stream_values(rng, chunk).tolist() for name in names}
        for _ in range(n_calls)
    ]
    t0 = time.perf_counter()
    for items in calls:
        coordinator.ingest_batch(items)
    elapsed = time.perf_counter() - t0
    ingested = n_calls * len(names) * chunk
    total = sum(coordinator.total_count(name) for name in names)
    if abs(total - ingested) > 1e-6 * ingested:
        raise AssertionError(f"rf cell lost values: {total} != {ingested}")
    coordinator.close()
    return {
        "ops_per_sec": round(ingested / elapsed, 1),
        **_quantile_block(registry, "repro_cluster_fanout_seconds", shard="shard-0"),
        "detail": {
            "replication_factor": factor,
            "shards": len(shards),
            "ingested_values": ingested,
        },
    }


def merge_piece_snapshots(n_sets: int, seed: int = 6) -> list[list[dict]]:
    """``n_sets`` serialised 3-piece DADO attributes at the perfbench shape.

    One drifting clustered stream (the paper's 2000-cluster layout over
    0..5000, mean rising by 2500) is cut at its tertiles into three 1 KB DADO
    pieces and ingested 256 values at a time, as in perfbench's
    ``cluster_partitioned``; the pieces are snapshotted at ``n_sets`` evenly
    spaced points of the stream.
    """
    from repro import ClusterDistributionConfig, generate_cluster_values
    from repro.core import build_dynamic_histogram
    from repro.persistence import histogram_to_dict

    batch, batches_per_set = 256, 8
    n_values = n_sets * batches_per_set * batch
    base = generate_cluster_values(ClusterDistributionConfig(domain=(0, 5000), seed=seed))
    values = np.random.default_rng(seed).choice(base, n_values)
    values = values + np.floor(np.arange(n_values) * (2500 / n_values))
    cuts = np.quantile(values, [1 / 3, 2 / 3])
    pieces = [build_dynamic_histogram("dado", memory_kb=1.0) for _ in range(3)]
    sets = []
    for index, start in enumerate(range(0, n_values, batch), start=1):
        chunk = values[start : start + batch]
        piece_of = np.searchsorted(cuts, chunk, side="right")
        for piece_index, piece in enumerate(pieces):
            piece.insert_many(chunk[piece_of == piece_index].tolist(), repartition_interval=16)
        if index % batches_per_set == 0:
            sets.append([json.loads(json.dumps(histogram_to_dict(piece))) for piece in pieces])
    return sets


def run_merge_cell(config: dict, sizes: dict) -> dict:
    """The coordinator's Section 8 merge: superimpose + reduce of piece snapshots.

    The pieces are decoded once, outside the timed region; each timed merge
    superimposes one set of decoded pieces and reduces the union to
    ``global_buckets`` buckets, as a cluster's merged estimate does.
    """
    from repro.distributed.union import reduce_segments, superimpose
    from repro.persistence import histogram_from_dict

    sets = [
        [histogram_from_dict(state) for state in states]
        for states in merge_piece_snapshots(sizes["merge_sets"])
    ]
    registry = MetricsRegistry()
    lat = registry.distribution(
        "matrix_merge_seconds", "Per-merge superimpose + reduce latency", LATENCY_BUCKETS_S
    )
    best = float("inf")
    for _ in range(sizes["repeats"]):
        t0 = time.perf_counter()
        for members in sets:
            t_merge = time.perf_counter()
            merged = reduce_segments(superimpose(members), config["global_buckets"])
            lat.observe(time.perf_counter() - t_merge)
        best = min(best, time.perf_counter() - t0)
    return {
        "ops_per_sec": round(len(sets) / best, 1),
        **_quantile_block(registry, "matrix_merge_seconds"),
        "detail": {
            "pieces": 3,
            "histogram": "dado",
            "merges": len(sets),
            "global_buckets": config["global_buckets"],
            "union_buckets": superimpose(sets[-1]).bucket_count,
            "merged_buckets": merged.bucket_count,
        },
    }


def run_store_read_cell(config: dict, sizes: dict) -> dict:
    """Single-node read ablation under sustained ingest (knob: read path).

    One store, one hot attribute, writer threads inserting batches without
    pause for the whole window; reader threads tight-loop two-query estimate
    batches.  ``read_path: "published"`` serves from the store's lock-free
    published snapshot (the production ``query`` path); ``read_path:
    "locked"`` calls the retained ``_query_locked`` fallback, which queues
    behind every in-flight insert batch on the per-attribute lock -- the
    pre-RCU behaviour, kept callable precisely so this ablation stays
    honest.
    """
    locked = config["read_path"] == "locked"
    duration = sizes["read_duration_s"]
    # Enough writers that the per-attribute lock's wait queue never drains:
    # a locked reader then waits behind a convoy of insert batches (the
    # pre-RCU contention), while published readers only share the GIL.
    n_writers, n_readers = 4, 2
    registry = MetricsRegistry()
    lat = registry.distribution(
        "matrix_read_query_seconds",
        "Per-batch estimate-query latency inside one matrix read cell",
        LATENCY_BUCKETS_S,
    )
    store = HistogramStore(metrics=registry)
    store.create("hot", "dc", memory_kb=0.5)
    rng = np.random.default_rng(5)
    store.insert("hot", bench_cluster.stream_values(rng, 4_000).tolist())

    stop = threading.Event()
    errors: list = []
    written = [0] * n_writers
    served = [0] * n_readers
    chunk = sizes["read_write_chunk"]

    def writer(index: int) -> None:
        wrng = np.random.default_rng(100 + index)
        batches = [
            bench_cluster.stream_values(wrng, chunk).tolist() for _ in range(8)
        ]
        calls = 0
        try:
            while not stop.is_set():
                store.insert("hot", batches[calls % len(batches)])
                calls += 1
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)
        written[index] = calls * chunk

    def reader(index: int) -> None:
        rrng = np.random.default_rng(200 + index)
        lows = rrng.uniform(0.0, 4000.0, size=256)
        count = 0
        try:
            while not stop.is_set():
                low = float(lows[count % len(lows)])
                queries = [
                    {"op": "range", "low": low, "high": low + 500.0},
                    {"op": "total"},
                ]
                t0 = time.perf_counter()
                if locked:
                    store._query_locked("hot", queries)
                else:
                    store.query("hot", queries)
                lat.observe(time.perf_counter() - t0)
                count += 1
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)
        served[index] = count

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(n_writers)]
    threads += [threading.Thread(target=reader, args=(i,)) for i in range(n_readers)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(duration)
    stop.set()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise AssertionError(f"store read cell failed: {errors[0]!r}")
    expected = 4_000 + sum(written)
    total = store.total_count("hot")
    if abs(total - expected) > 1e-6 * expected:
        raise AssertionError(f"read cell lost values: {total} != {expected}")
    store.close()
    return {
        "ops_per_sec": round(sum(served) / elapsed, 1),
        **_quantile_block(registry, "matrix_read_query_seconds"),
        "detail": {
            "read_path": config["read_path"],
            "reads_served": int(sum(served)),
            "writer_values_per_sec": round(sum(written) / elapsed, 1),
            "duration_s": round(elapsed, 3),
        },
    }


def run_cluster_read_cell(config: dict, sizes: dict) -> dict:
    """The bench_cluster read-QPS-under-ingest body (knob: shard count)."""
    registry = MetricsRegistry()
    result = bench_cluster.run_read_qps_config(
        config["shards"],
        sizes["read_duration_s"],
        sizes["read_writers"],
        sizes["read_readers"],
        sizes["catalog_chunk"],
        sizes["hot_chunk"],
        metrics=registry,
    )
    quantiles = _quantile_block(registry, "repro_cluster_fanout_seconds", shard="shard-0")
    return {
        "ops_per_sec": result["read_qps"],
        **quantiles,
        "detail": {
            "shards": config["shards"],
            "reads_served": result["reads_served"],
            "ingest_per_sec_during_window": result["ingest_per_sec"],
            "duration_s": result["duration_s"],
        },
    }


#: The ablation matrix: cell name -> (runner kind, config).  Each config dict
#: flips exactly one knob relative to that kind's base cell.
CELLS: dict[str, dict[str, Any]] = {
    "hist_dc": {"kind": "histogram", "klass": "dc"},
    "hist_dvo": {"kind": "histogram", "klass": "dvo"},
    "hist_dado": {"kind": "histogram", "klass": "dado"},
    "wal_off": {"kind": "service", "wal": "off", "max_batch": 1024},
    "wal_on": {"kind": "service", "wal": "on", "max_batch": 1024},
    "wal_fsync": {"kind": "service", "wal": "fsync", "max_batch": 1024},
    "batch_64": {"kind": "service", "wal": "off", "max_batch": 64},
    "batch_256": {"kind": "service", "wal": "off", "max_batch": 256},
    "shards_1": {"kind": "cluster_scaling", "shards": 1},
    "shards_2": {"kind": "cluster_scaling", "shards": 2},
    "shards_4": {"kind": "cluster_scaling", "shards": 4},
    "spawned_shards_1": {"kind": "cluster_spawned", "shards": 1},
    "spawned_shards_4": {"kind": "cluster_spawned", "shards": 4},
    "rf_1": {"kind": "cluster_rf", "replication_factor": 1},
    "rf_2": {"kind": "cluster_rf", "replication_factor": 2},
    "rf_3": {"kind": "cluster_rf", "replication_factor": 3},
    "read_locked_single": {"kind": "store_read", "read_path": "locked"},
    "read_published_single": {"kind": "store_read", "read_path": "published"},
    "read_qps_shards_1": {"kind": "cluster_read", "shards": 1},
    "read_qps_shards_4": {"kind": "cluster_read", "shards": 4},
    "merge_dado_3": {"kind": "merge", "global_buckets": 64},
}

RUNNERS: dict[str, Callable[[dict, dict], dict]] = {
    "histogram": run_histogram_cell,
    "service": run_service_cell,
    "cluster_scaling": run_cluster_scaling_cell,
    "cluster_spawned": run_cluster_spawned_cell,
    "cluster_rf": run_cluster_rf_cell,
    "store_read": run_store_read_cell,
    "cluster_read": run_cluster_read_cell,
    "merge": run_merge_cell,
}

#: Derived ratios: name -> (numerator cell, denominator cell).  Each reads
#: ``ops_per_sec`` from two cells of the finished matrix.
DERIVED: dict[str, tuple[str, str]] = {
    "wal_overhead_on_vs_off": ("wal_on", "wal_off"),
    "fsync_overhead_vs_wal_on": ("wal_fsync", "wal_on"),
    "batch_scaling_1024_vs_64": ("wal_off", "batch_64"),
    "shard_scaling_4_vs_1": ("shards_4", "shards_1"),
    "spawned_scaling_4_vs_1": ("spawned_shards_4", "spawned_shards_1"),
    "rf_cost_3_vs_1": ("rf_3", "rf_1"),
    "read_unlock_speedup": ("read_published_single", "read_locked_single"),
    "read_scaling_4_vs_1": ("read_qps_shards_4", "read_qps_shards_1"),
}


def matrix_sizes(smoke: bool) -> dict[str, float]:
    if smoke:
        return {
            "hist_values": 20_000,
            "service_values": 6_000,
            "cluster_calls": 8,
            "catalog_chunk": 128,
            "hot_chunk": 512,
            "cluster_writers": 2,
            "cluster_readers": 1,
            "spawned_calls": 8,
            "rf_calls": 8,
            "rf_chunk": 256,
            "repeats": 2,
            "read_duration_s": 0.5,
            "read_write_chunk": 4_000,
            "read_writers": 2,
            "read_readers": 4,
            "merge_sets": 24,
        }
    return {
        "hist_values": 80_000,
        "service_values": 30_000,
        "cluster_calls": 32,
        "catalog_chunk": 256,
        "hot_chunk": 1024,
        "cluster_writers": 3,
        "cluster_readers": 2,
        "spawned_calls": 24,
        "rf_calls": 24,
        "rf_chunk": 512,
        "repeats": 3,
        "read_duration_s": 1.5,
        "read_write_chunk": 4_000,
        "read_writers": 2,
        "read_readers": 8,
        "merge_sets": 48,
    }


# ----------------------------------------------------------------------
# matrix runner
# ----------------------------------------------------------------------
def run_cell(
    name: str,
    sizes: dict,
    *,
    profile: bool = False,
    profile_interval_s: float = 0.005,
) -> dict:
    config = CELLS[name]
    runner = RUNNERS[config["kind"]]
    timer = PhaseTimer()
    profiler = SamplingProfiler(profile_interval_s) if profile else None
    if profiler is not None:
        profiler.start()
    try:
        with timer.phase("run"):
            result = runner(config, sizes)
    finally:
        if profiler is not None:
            profiler.stop()
    result["phases"] = timer.report()
    if profiler is not None:
        result["profile"] = profiler.attribution(top=8)
    return result


def bench_profiler_overhead(sizes: dict) -> dict:
    """The sampler's cost on one CPU-bound cell (target: >= 0.95x)."""
    plain = run_cell("hist_dc", sizes)
    profiled = run_cell("hist_dc", sizes, profile=True)
    ratio = profiled["ops_per_sec"] / plain["ops_per_sec"]
    return {
        "cell": "hist_dc",
        "uninstrumented_per_sec": plain["ops_per_sec"],
        "instrumented_per_sec": profiled["ops_per_sec"],
        "instrumented_over_plain_ratio": round(ratio, 3),
        "target_ratio": ">= 0.95",
        "profile_samples": profiled["profile"]["samples"],
    }


def run_matrix(
    *,
    smoke: bool,
    profile: bool = False,
    cells: list[str] | None = None,
    sizes: dict | None = None,
) -> dict:
    sizes = sizes if sizes is not None else matrix_sizes(smoke)
    selected = cells if cells is not None else list(CELLS)
    unknown = sorted(set(selected) - set(CELLS))
    if unknown:
        raise SystemExit(f"unknown matrix cells: {', '.join(unknown)}")
    results: dict[str, dict] = {}
    for name in selected:
        print(f"[matrix] running cell {name} ...", file=sys.stderr)
        results[name] = run_cell(name, sizes, profile=profile)
    derived = {}
    for ratio_name, (numerator, denominator) in DERIVED.items():
        if numerator in results and denominator in results:
            derived[ratio_name] = round(
                results[numerator]["ops_per_sec"]
                / results[denominator]["ops_per_sec"],
                3,
            )
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "matrix",
        "smoke": bool(smoke),
        "fingerprint": host_fingerprint(),
        "fingerprint_id": fingerprint_id(),
        "cells": results,
        "derived": derived,
    }
    if cells is None:
        # The overhead section needs the full hist_dc cell; only meaningful
        # (and comparable) on complete runs.
        report["profiler_overhead"] = bench_profiler_overhead(sizes)
    return report


# ----------------------------------------------------------------------
# regression gate
# ----------------------------------------------------------------------
def gate_compare(current: dict, baseline: dict) -> tuple[list[dict], list[str]]:
    """Diff two matrix reports; returns (delta rows, failure descriptions).

    Every baseline cell must exist in the current run (a vanished cell is a
    regression by definition), and every gated metric must stay inside its
    band relative to the baseline value.
    """
    rows: list[dict] = []
    failures: list[str] = []
    for cell, base in baseline.get("cells", {}).items():
        cur = current.get("cells", {}).get(cell)
        if cur is None:
            failures.append(f"cell {cell}: present in baseline but missing from run")
            continue
        for metric, band in GATE_BANDS.items():
            base_value = base.get(metric)
            cur_value = cur.get(metric)
            if base_value is None or cur_value is None:
                continue
            floor = band.get("floor", 0.0)
            if "max_ratio" in band and base_value <= floor and cur_value <= floor:
                # Both sides below the noise floor: sub-bucket latencies on
                # a fast host carry no regression signal.
                rows.append(_delta_row(cell, metric, base_value, cur_value, band, "ok"))
                continue
            reference = max(base_value, floor) if "max_ratio" in band else base_value
            if reference == 0:
                continue
            ratio = cur_value / reference
            ok = True
            if "min_ratio" in band and ratio < band["min_ratio"]:
                ok = False
            if "max_ratio" in band and ratio > band["max_ratio"]:
                ok = False
            status = "ok" if ok else "FAIL"
            rows.append(_delta_row(cell, metric, base_value, cur_value, band, status))
            if not ok:
                bound = band.get("min_ratio", band.get("max_ratio"))
                kind = "min" if "min_ratio" in band else "max"
                failures.append(
                    f"cell {cell}: {metric} ratio {ratio:.3f} breaches "
                    f"{kind}_ratio {bound} (baseline {base_value}, current {cur_value})"
                )
    return rows, failures


def _delta_row(
    cell: str, metric: str, base: float, cur: float, band: dict, status: str
) -> dict:
    return {
        "cell": cell,
        "metric": metric,
        "baseline": base,
        "current": cur,
        "ratio": round(cur / base, 3) if base else None,
        "band": band,
        "status": status,
    }


def format_delta_table(rows: list[dict]) -> str:
    if not rows:
        return "(no comparable metrics)"
    header = ("cell", "metric", "baseline", "current", "ratio", "status")
    table = [header]
    for row in rows:
        table.append(
            (
                row["cell"],
                row["metric"],
                f"{row['baseline']:g}",
                f"{row['current']:g}",
                "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}",
                row["status"],
            )
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    lines = []
    for index, line in enumerate(table):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths, strict=True)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def run_gate(current: dict, baseline_dir: pathlib.Path) -> int:
    """Compare ``current`` against the committed baseline for this host.

    Returns the process exit code: 0 on pass or skip, 1 on regression.
    """
    baseline_path = baseline_dir / f"{current['fingerprint_id']}.json"
    if not baseline_path.exists():
        print(
            f"[matrix] GATE SKIPPED: no baseline for fingerprint "
            f"{current['fingerprint_id']!r} under {baseline_dir} -- matrix JSON "
            "recorded but not gated on this host",
            file=sys.stderr,
        )
        return 0
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    if baseline.get("schema_version") != current["schema_version"]:
        print(
            f"[matrix] GATE SKIPPED: baseline schema v{baseline.get('schema_version')}"
            f" != current v{current['schema_version']} -- rewrite the baseline",
            file=sys.stderr,
        )
        return 0
    if bool(baseline.get("smoke")) != bool(current.get("smoke")):
        print(
            "[matrix] GATE SKIPPED: baseline and current runs used different "
            "sizes (smoke flag mismatch)",
            file=sys.stderr,
        )
        return 0
    rows, failures = gate_compare(current, baseline)
    print(format_delta_table(rows), file=sys.stderr)
    if failures:
        print(f"\n[matrix] GATE FAILED ({len(failures)} regression(s)):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\n[matrix] gate passed: all cells within tolerance", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="small sizes for CI smoke runs"
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="diff against the committed per-host baseline; exit 1 on regression",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="embed sampling-profiler attribution in every cell",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record this run as the baseline for this host's fingerprint",
    )
    parser.add_argument(
        "--baseline-dir", type=pathlib.Path, default=BASELINE_DIR,
        help="directory of per-fingerprint baseline JSON files",
    )
    parser.add_argument(
        "--cells", nargs="+", metavar="CELL",
        help=f"run only these cells (available: {', '.join(CELLS)})",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=DEFAULT_OUTPUT, help="output JSON path"
    )
    args = parser.parse_args(argv)

    report = run_matrix(smoke=args.smoke, profile=args.profile, cells=args.cells)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))

    if report.get("derived"):
        print("\n[matrix] derived ratios:", file=sys.stderr)
        for name, value in report["derived"].items():
            print(f"  {name}: {value}", file=sys.stderr)
    overhead = report.get("profiler_overhead")
    if overhead is not None:
        print(
            f"[matrix] sampling profiler overhead: "
            f"{overhead['instrumented_over_plain_ratio']:.3f}x uninstrumented "
            f"(target {overhead['target_ratio']})",
            file=sys.stderr,
        )

    if args.write_baseline:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        baseline_path = args.baseline_dir / f"{report['fingerprint_id']}.json"
        baseline_path.write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
        print(f"[matrix] baseline written to {baseline_path}", file=sys.stderr)

    if args.gate:
        return run_gate(report, args.baseline_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
