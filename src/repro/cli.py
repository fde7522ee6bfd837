"""Command-line interface for running the paper's experiments.

The CLI mirrors what the benchmark harness does, but as a user-facing tool:

* ``repro-experiments list`` -- enumerate the available figure experiments;
* ``repro-experiments run fig05 fig08`` -- run selected figures (or ``all``)
  and print their sweep tables, optionally at a different scale / repetition
  count and optionally exporting CSV files;
* ``repro-experiments compare`` -- build every histogram class on the reference
  distribution at equal memory and print a leaderboard;
* ``repro-experiments serve`` -- run the statistics service HTTP server
  (:mod:`repro.service`) with a configurable set of attributes;
* ``repro-experiments store-stats`` -- pretty-print the attribute stats of a
  running statistics server;
* ``repro-experiments serve-cluster`` -- run a sharded statistics cluster
  (:mod:`repro.cluster`): N in-process shards behind one scatter-gather HTTP
  front-end, with optional value-range partitioning of hot attributes,
  N-way replication (``--replication-factor``, with ``--replica-reads`` to
  rotate estimate reads over fresh replicas) and per-shard write-ahead
  logs (``--wal-dir``);
* ``repro-experiments cluster-stats`` -- pretty-print per-shard stats and
  placement rules of a running cluster server;
* ``repro-experiments resync`` -- heal a recovered shard of a running
  replicated cluster (re-seed its replicas from live siblings).

``serve`` takes ``--wal-dir`` to make the single-node catalog durable: an
existing WAL directory is recovered on start, so the served histograms
survive crashes and restarts.

Invoke either through the installed ``repro-experiments`` script or with
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
import threading
import time
from pathlib import Path
from collections.abc import Callable, Sequence

from .core.factory import build_dynamic_histogram, build_static_histogram
from .datagen.clusters import generate_cluster_values
from .datagen.reference import reference_config
from .experiments import figures
from .experiments.config import ExperimentSettings, SweepResult
from .experiments.reporting import format_sweep_table, sweep_to_csv
from .metrics.distribution import DataDistribution
from .metrics.ks import ks_statistic
from .workloads.streams import random_insertions

__all__ = ["main", "available_experiments", "format_store_stats"]


def available_experiments() -> dict[str, Callable[..., SweepResult]]:
    """Mapping from experiment name to the function that runs it."""
    names = [
        "fig05_center_skew",
        "fig06_size_skew",
        "fig07_cluster_sd",
        "fig08_memory",
        "fig09_static_center_skew",
        "fig10_static_size_skew",
        "fig11_static_cluster_sd",
        "fig12_static_memory",
        "fig13_construction_time",
        "fig14_ac_disk_space",
        "fig15_sorted_insertions",
        "fig16_precision_vs_inserted_fraction",
        "fig17_random_deletions",
        "fig18_deletions_after_sorted_inserts",
        "fig19_mail_order",
        "fig20_distributed_memory",
        "fig21_distributed_intrasite_skew",
        "fig22_distributed_site_count",
        "fig23_distributed_site_size_skew",
        "ablation_sub_buckets",
        "ablation_alpha_min",
        "ablation_repartition_threshold",
    ]
    return {name.split("_")[0] if name.startswith("fig") else name: getattr(figures, name)
            for name in names}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the experiments of 'Dynamic Histograms: Capturing Evolving Data Sets'.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available figure experiments")

    run_parser = subparsers.add_parser("run", help="run one or more figure experiments")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment names (e.g. fig05 fig19 ablation_alpha_min) or 'all'",
    )
    run_parser.add_argument("--scale", type=float, default=0.06,
                            help="fraction of the paper's data volume (default 0.06)")
    run_parser.add_argument("--runs", type=int, default=2,
                            help="random seeds averaged per configuration (default 2)")
    run_parser.add_argument("--memory-kb", type=float, default=1.0,
                            help="histogram memory for non-memory-sweep experiments (default 1.0)")
    run_parser.add_argument("--csv-dir", type=Path, default=None,
                            help="directory to write one CSV per experiment")

    compare_parser = subparsers.add_parser(
        "compare", help="leaderboard of every histogram class at equal memory"
    )
    compare_parser.add_argument("--memory-kb", type=float, default=0.5)
    compare_parser.add_argument("--scale", type=float, default=0.05)
    compare_parser.add_argument("--seed", type=int, default=0)

    serve_parser = subparsers.add_parser(
        "serve", help="run the statistics service HTTP server"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8181,
                              help="TCP port to bind (0 picks an ephemeral port)")
    serve_parser.add_argument(
        "--attribute", "-a", action="append", default=[],
        metavar="NAME[:KIND[:MEMORY_KB]]",
        help="pre-create an attribute, e.g. 'age:dc:1.0' (repeatable; kind "
             "defaults to dc, memory to 1.0 KB)",
    )
    serve_parser.add_argument("--max-batch", type=int, default=1024,
                              help="ingest pipeline size trigger (default 1024)")
    serve_parser.add_argument(
        "--flush-interval", type=float, default=0.25,
        help="seconds between background flushes of buffered ingests; "
             "0 applies every ingest request synchronously (default 0.25)",
    )
    serve_parser.add_argument(
        "--duration", type=float, default=None,
        help="serve for this many seconds then exit (default: run until interrupted)",
    )
    serve_parser.add_argument(
        "--wal-dir", type=Path, default=None,
        help="directory for write-ahead-log durability; an existing WAL is "
             "recovered on start, so the catalog survives crashes/restarts",
    )
    serve_parser.add_argument(
        "--wal-fsync", action="store_true",
        help="fsync every WAL append (durable against power loss, slower)",
    )
    serve_parser.add_argument(
        "--slow-request-ms", type=float, default=None, metavar="MS",
        help="emit a structured JSON log line (with per-span timings) for "
             "requests slower than this many milliseconds; implies tracing",
    )
    serve_parser.add_argument(
        "--trace", action="store_true",
        help="generate/propagate X-Repro-Trace-Id on every request",
    )
    serve_parser.add_argument(
        "--accuracy-sample", type=float, default=0.0, metavar="FRACTION",
        help="replay this fraction of estimate queries against exact shadow "
             "counts, exporting observed selectivity error as a /metrics "
             "distribution (0 disables; see README caveats)",
    )
    serve_parser.add_argument(
        "--profile", action="store_true",
        help="run the sampling profiler for the server's lifetime and "
             "expose collapsed hot-path attribution on GET /profile",
    )

    store_stats_parser = subparsers.add_parser(
        "store-stats", help="pretty-print the stats of a running statistics server"
    )
    store_stats_parser.add_argument("--host", default="127.0.0.1")
    store_stats_parser.add_argument("--port", type=int, default=8181)

    cluster_parser = subparsers.add_parser(
        "serve-cluster", help="run a sharded statistics cluster HTTP server"
    )
    cluster_parser.add_argument("--host", default="127.0.0.1")
    cluster_parser.add_argument("--port", type=int, default=8282,
                                help="TCP port to bind (0 picks an ephemeral port)")
    cluster_parser.add_argument("--shards", type=int, default=2,
                                help="number of in-process backing shards (default 2)")
    cluster_parser.add_argument(
        "--spawn-shards", type=int, default=None, metavar="N",
        help="run N shard worker PROCESSES (each with its own store, its own "
             "WAL directory under --wal-dir, and its own binary-transport "
             "port) instead of in-process shards; CPU-bound ingest then "
             "scales with cores. Overrides --shards; workers that crash are "
             "respawned on the same port",
    )
    cluster_parser.add_argument(
        "--attribute", "-a", action="append", default=[],
        metavar="NAME[:KIND[:MEMORY_KB]]",
        help="pre-create an attribute, e.g. 'age:dc:1.0' (repeatable)",
    )
    cluster_parser.add_argument(
        "--partition", "-p", action="append", default=[],
        metavar="NAME:B1,B2,...",
        help="range-partition an attribute at the given ascending cut points, "
             "e.g. 'price:100,1000' splits price into 3 pieces (repeatable; "
             "combine with -a to set kind/memory, else dc:1.0)",
    )
    cluster_parser.add_argument(
        "--global-buckets", type=int, default=64,
        help="bucket budget of merged global histograms (default 64)",
    )
    cluster_parser.add_argument(
        "--duration", type=float, default=None,
        help="serve for this many seconds then exit (default: run until interrupted)",
    )
    cluster_parser.add_argument(
        "--replication-factor", type=int, default=1,
        help="place every attribute (and partition piece) on this many "
             "distinct shards; writes fan out to all replicas, reads fail "
             "over, 'resync' heals a recovered shard (default 1)",
    )
    cluster_parser.add_argument(
        "--replica-reads", action="store_true",
        help="rotate estimate reads over an attribute's fresh (non-stale) "
             "replicas instead of always hitting the primary first -- "
             "spreads query load when --replication-factor > 1",
    )
    cluster_parser.add_argument(
        "--wal-dir", type=Path, default=None,
        help="base directory for per-shard write-ahead logs (shard-<i> "
             "subdirectories); existing WALs are recovered on start. Note: "
             "WALs persist shard DATA only -- router placement is rebuilt "
             "from these flags, so runtime placement changes (rebalance "
             "pins, HTTP-created partitions) must be re-applied after a "
             "restart",
    )
    cluster_parser.add_argument(
        "--wal-fsync", action="store_true",
        help="fsync every per-shard WAL append (durable against power loss, slower)",
    )
    cluster_parser.add_argument(
        "--slow-request-ms", type=float, default=None, metavar="MS",
        help="emit a structured JSON log line (with per-shard fan-out spans) "
             "for requests slower than this many milliseconds; implies tracing",
    )
    cluster_parser.add_argument(
        "--trace", action="store_true",
        help="generate/propagate X-Repro-Trace-Id on every request",
    )
    cluster_parser.add_argument(
        "--profile", action="store_true",
        help="run the sampling profiler for the server's lifetime and "
             "expose collapsed hot-path attribution on GET /profile",
    )

    cluster_stats_parser = subparsers.add_parser(
        "cluster-stats", help="pretty-print per-shard stats of a running cluster server"
    )
    cluster_stats_parser.add_argument("--host", default="127.0.0.1")
    cluster_stats_parser.add_argument("--port", type=int, default=8282)

    resync_parser = subparsers.add_parser(
        "resync", help="heal a recovered shard of a running cluster server"
    )
    resync_parser.add_argument("shard", help="shard id to re-seed (e.g. shard-1)")
    resync_parser.add_argument("--host", default="127.0.0.1")
    resync_parser.add_argument("--port", type=int, default=8282)

    metrics_parser = subparsers.add_parser(
        "metrics",
        help="fetch the Prometheus text exposition of a running server "
             "(service or cluster)",
    )
    metrics_parser.add_argument("--host", default="127.0.0.1")
    metrics_parser.add_argument("--port", type=int, default=8181)
    metrics_parser.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="scrape twice this many seconds apart and print per-metric "
             "deltas and rates (counters) and current values (gauges) "
             "instead of the raw exposition",
    )
    return parser


def _command_list(out) -> int:
    registry = available_experiments()
    out.write("available experiments:\n")
    for name, function in registry.items():
        summary = (function.__doc__ or "").strip().splitlines()[0]
        out.write(f"  {name:<28} {summary}\n")
    return 0


def _command_run(args, out) -> int:
    registry = available_experiments()
    all_requested = len(args.experiments) == 1 and args.experiments[0].lower() == "all"
    selected = list(registry) if all_requested else args.experiments
    unknown = [name for name in selected if name not in registry]
    if unknown:
        out.write(f"unknown experiment(s): {', '.join(unknown)}\n")
        out.write("use 'repro-experiments list' to see the available names\n")
        return 2

    settings = ExperimentSettings(scale=args.scale, n_runs=args.runs, memory_kb=args.memory_kb)
    if args.csv_dir is not None:
        args.csv_dir.mkdir(parents=True, exist_ok=True)

    for name in selected:
        start = time.perf_counter()
        result = registry[name](settings)
        elapsed = time.perf_counter() - start
        out.write(format_sweep_table(result) + "\n")
        out.write(f"  (completed in {elapsed:.1f}s)\n\n")
        if args.csv_dir is not None:
            sweep_to_csv(result, path=str(args.csv_dir / f"{result.name}.csv"))
    return 0


_COMPARE_STATIC = ("equi_width", "equi_depth", "sc", "ssbm", "svo", "sado")
_COMPARE_DYNAMIC = ("dc", "dvo", "dado", "ac")


def _command_compare(args, out) -> int:
    config = reference_config(n_clusters=200, scale=args.scale, seed=args.seed)
    values = generate_cluster_values(config)
    truth = DataDistribution(values)
    stream = random_insertions(values, seed=args.seed)

    rows = []
    for kind in _COMPARE_STATIC:
        histogram = build_static_histogram(kind, truth, args.memory_kb)
        rows.append((kind.upper(), "static", ks_statistic(truth, histogram, value_unit=1.0)))
    for kind in _COMPARE_DYNAMIC:
        histogram = build_dynamic_histogram(kind, args.memory_kb, disk_factor=2.0, seed=args.seed)
        live = DataDistribution()
        for op in stream:
            histogram.insert(op.value)
            live.add(op.value)
        rows.append((kind.upper(), "dynamic", ks_statistic(live, histogram, value_unit=1.0)))

    rows.sort(key=lambda row: row[2])
    out.write(
        f"reference distribution at scale {args.scale}, memory {args.memory_kb} KB\n"
    )
    out.write(f"{'histogram':<12} {'kind':<8} {'KS statistic':>12}\n")
    for name, kind, error in rows:
        out.write(f"{name:<12} {kind:<8} {error:>12.5f}\n")
    return 0


def _parse_attribute_spec(spec: str):
    """Parse a ``NAME[:KIND[:MEMORY_KB]]`` attribute specification."""
    parts = spec.split(":")
    if not parts[0] or len(parts) > 3:
        raise ValueError(f"invalid attribute spec {spec!r}; expected NAME[:KIND[:MEMORY_KB]]")
    name = parts[0]
    kind = parts[1] if len(parts) > 1 and parts[1] else "dc"
    memory_kb = float(parts[2]) if len(parts) > 2 and parts[2] else 1.0
    return name, kind, memory_kb


def _build_durable_store(wal_dir, fsync: bool, metrics=None, accuracy_sampler=None):
    """Open (recovering) or create a durable store at ``wal_dir``."""
    from .service import DurabilityConfig, HistogramStore

    config = DurabilityConfig(Path(wal_dir), fsync=fsync)
    if config.has_state():
        store = HistogramStore.recover(wal_dir, fsync=fsync, metrics=metrics)
        store.attach_accuracy_sampler(accuracy_sampler)
        return store, True
    return (
        HistogramStore(
            durability=config, metrics=metrics, accuracy_sampler=accuracy_sampler
        ),
        False,
    )


class _Terminated(KeyboardInterrupt):
    """SIGTERM, raised like Ctrl-C so it unwinds through the same teardown."""


def _run_server_command(command, args, out) -> int:
    """Run ``serve``/``serve-cluster`` so that SIGTERM tears down like Ctrl-C.

    The handler raises :class:`_Terminated` wherever the signal lands, the
    command's ``finally`` tears everything down, and the exit is clean.
    Running the teardown in the handler itself would deadlock: the handler
    runs on the thread inside ``serve_forever``, and stopping the server
    waits for that loop to exit.  Handlers can only be installed from the
    main thread; elsewhere (``main`` driven from a worker thread) the
    command runs as is.
    """
    if threading.current_thread() is not threading.main_thread():
        return command(args, out)

    def terminate(signum, frame):
        # Ignore repeats: a second SIGTERM must not cut the teardown short.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        raise _Terminated

    previous = signal.signal(signal.SIGTERM, terminate)
    try:
        return command(args, out)
    except _Terminated:
        return 0
    finally:
        signal.signal(signal.SIGTERM, previous)


def _command_serve(args, out) -> int:
    from .obs import AccuracySampler, MetricsRegistry
    from .service import HistogramStore, IngestPipeline, StatisticsServer

    metrics = MetricsRegistry()
    sampler = None
    if args.accuracy_sample and args.accuracy_sample > 0:
        try:
            sampler = AccuracySampler(metrics, fraction=args.accuracy_sample)
        except ValueError as error:
            out.write(f"{error}\n")
            return 2
    recovered = False
    if args.wal_dir is not None:
        store, recovered = _build_durable_store(
            args.wal_dir, args.wal_fsync, metrics=metrics, accuracy_sampler=sampler
        )
    else:
        store = HistogramStore(metrics=metrics, accuracy_sampler=sampler)
    try:
        specs = [_parse_attribute_spec(spec) for spec in args.attribute]
    except ValueError as error:
        out.write(f"{error}\n")
        return 2
    for name, kind, memory_kb in specs:
        store.create(name, kind, memory_kb=memory_kb, exist_ok=True)

    pipeline = None
    if args.flush_interval and args.flush_interval > 0:
        pipeline = IngestPipeline(
            store,
            max_batch=args.max_batch,
            auto_flush_interval=args.flush_interval,
            metrics=metrics,
        )
    server = StatisticsServer(
        store,
        host=args.host,
        port=args.port,
        pipeline=pipeline,
        metrics=metrics,
        slow_request_ms=args.slow_request_ms,
        trace=args.trace,
        profile=args.profile,
    )
    # The banner sits inside the try: an interrupt that lands while it is
    # written still closes the server and the WAL.
    try:
        host, port = server.address
        attributes = ", ".join(store.names()) or "none"
        out.write(f"statistics service listening on http://{host}:{port}\n")
        out.write(f"attributes: {attributes}\n")
        if args.trace or args.slow_request_ms is not None:
            threshold = (
                f", slow-request log above {args.slow_request_ms:g} ms"
                if args.slow_request_ms is not None
                else ""
            )
            out.write(f"tracing: X-Repro-Trace-Id enabled{threshold}\n")
        if sampler is not None:
            out.write(
                f"accuracy sampling: {args.accuracy_sample:g} of estimate batches\n"
            )
        if args.wal_dir is not None:
            state = "recovered existing catalog" if recovered else "fresh log"
            out.write(f"durability: WAL at {args.wal_dir} ({state})\n")
        if hasattr(out, "flush"):
            out.flush()
        if args.duration is not None:
            server.start()
            time.sleep(args.duration)
            return 0
        with contextlib.suppress(KeyboardInterrupt):  # pragma: no cover
            server.serve_forever()
    finally:
        server.stop()
        store.close()
    return 0  # pragma: no cover


def _parse_partition_spec(spec: str):
    """Parse a ``NAME:B1,B2,...`` range-partition specification."""
    name, separator, cut_text = spec.partition(":")
    if not name or not separator or not cut_text:
        raise ValueError(f"invalid partition spec {spec!r}; expected NAME:B1,B2,...")
    try:
        boundaries = [float(cut) for cut in cut_text.split(",")]
    except ValueError:
        raise ValueError(f"invalid partition spec {spec!r}; boundaries must be numbers") from None
    return name, boundaries


def _command_serve_cluster(args, out) -> int:
    from .cluster import (
        ClusterCoordinator,
        ClusterServer,
        LocalShard,
        ShardRouter,
        ShardSupervisor,
    )
    from .obs import MetricsRegistry

    spawn = args.spawn_shards is not None
    if spawn and args.spawn_shards < 1:
        out.write("--spawn-shards must be at least 1\n")
        return 2
    if not spawn and args.shards < 1:
        out.write("--shards must be at least 1\n")
        return 2
    n_shards = args.spawn_shards if spawn else args.shards
    if not 1 <= args.replication_factor <= n_shards:
        out.write("--replication-factor must be between 1 and the shard count\n")
        return 2
    try:
        specs = [_parse_attribute_spec(spec) for spec in args.attribute]
        partitions = dict(_parse_partition_spec(spec) for spec in args.partition)
    except ValueError as error:
        out.write(f"{error}\n")
        return 2

    # One registry for the whole process: shard stores/WALs, the
    # coordinator's fan-out metrics and the HTTP layer all land in one
    # /metrics exposition (per-attribute labels aggregate across shards).
    # Spawned workers keep their stores in their own processes, so only the
    # coordinator/HTTP side of the registry is populated in that mode.
    metrics = MetricsRegistry()
    stores = []
    supervisor = None
    coordinator = None
    server = None
    recovered_any = False

    # One teardown for every exit: a failed start-up, the end of --duration,
    # and an interrupt (SIGINT, or SIGTERM turned into one) at any point --
    # including while the banner is written -- so no worker, fan-out thread
    # or WAL handle outlives the command.
    try:
        if spawn:
            if args.wal_dir is not None:
                recovered_any = any(
                    (Path(args.wal_dir) / f"shard-{index}").exists()
                    for index in range(n_shards)
                )
            supervisor = ShardSupervisor(
                n_shards,
                wal_root=args.wal_dir,
                wal_fsync=args.wal_fsync,
            )
            shards = supervisor.start()
        else:
            for index in range(n_shards):
                if args.wal_dir is not None:
                    store, recovered = _build_durable_store(
                        Path(args.wal_dir) / f"shard-{index}",
                        fsync=args.wal_fsync,
                        metrics=metrics,
                    )
                    recovered_any = recovered_any or recovered
                else:
                    from .service import HistogramStore

                    store = HistogramStore(metrics=metrics)
                stores.append(store)
            shards = [
                LocalShard(f"shard-{index}", store)
                for index, store in enumerate(stores)
            ]
        router = ShardRouter(
            [shard.shard_id for shard in shards],
            replication_factor=args.replication_factor,
        )
        coordinator = ClusterCoordinator(
            shards,
            router=router,
            global_buckets=args.global_buckets,
            metrics=metrics,
            replica_reads=args.replica_reads,
        )
        attribute_specs = {name: (kind, memory_kb) for name, kind, memory_kb in specs}
        for name in partitions:
            attribute_specs.setdefault(name, ("dc", 1.0))
        for name, (kind, memory_kb) in attribute_specs.items():
            coordinator.create(
                name,
                kind,
                memory_kb=memory_kb,
                exist_ok=True,
                partition_boundaries=partitions.get(name),
            )
        server = ClusterServer(
            coordinator,
            host=args.host,
            port=args.port,
            metrics=metrics,
            slow_request_ms=args.slow_request_ms,
            trace=args.trace,
            profile=args.profile,
        )
        host, port = server.address
        out.write(f"statistics cluster listening on http://{host}:{port}\n")
        if supervisor is not None:
            fleet = supervisor.describe()
            out.write(
                "shards: "
                + ", ".join(
                    f"{shard_id} (pid {info['pid']}, port {info['port']})"
                    for shard_id, info in fleet.items()
                )
                + "\n"
            )
        else:
            out.write(f"shards: {', '.join(coordinator.shard_ids)}\n")
        attributes = ", ".join(
            f"{name} (partitioned)" if name in partitions else name
            for name in sorted(attribute_specs)
        ) or "none"
        out.write(f"attributes: {attributes}\n")
        if args.replication_factor > 1:
            out.write(f"replication factor: {args.replication_factor}\n")
        if args.replica_reads:
            out.write("replica reads: rotating over fresh replicas\n")
        if args.wal_dir is not None:
            state = "recovered existing catalogs" if recovered_any else "fresh logs"
            owner = " (worker-owned)" if supervisor is not None else ""
            out.write(f"durability: per-shard WALs under {args.wal_dir} ({state}){owner}\n")
        if args.trace or args.slow_request_ms is not None:
            detail = "tracing: X-Repro-Trace-Id enabled"
            if args.slow_request_ms is not None:
                detail += f", slow-request log above {args.slow_request_ms:g} ms"
            out.write(detail + "\n")
        if hasattr(out, "flush"):
            out.flush()
        if args.duration is not None:
            server.start()
            time.sleep(args.duration)
            return 0
        with contextlib.suppress(KeyboardInterrupt):  # pragma: no cover
            server.serve_forever()
    finally:
        if server is not None:
            server.stop()  # also closes the coordinator's fan-out pool
        elif coordinator is not None:
            coordinator.close()
        if supervisor is not None:
            supervisor.close()
        for store in stores:
            store.close()
    return 0  # pragma: no cover


def format_store_stats(attributes) -> str:
    """A ``compare``-style table of per-attribute store statistics.

    ``attributes`` is a list of stat dictionaries as returned by the server's
    ``/stats`` endpoint (or ``AttributeStats.to_dict()``).
    """
    header = (
        f"{'attribute':<16} {'kind':<6} {'mem KB':>7} {'buckets':>8} "
        f"{'total':>12} {'gen':>6} {'repart':>7} {'inserted':>10} {'deleted':>8} {'state':<8}"
    )
    lines = [header]
    for stats in attributes:
        state = "loading" if stats.get("is_loading") else "serving"
        lines.append(
            f"{stats['name']:<16} {stats['kind']:<6} {stats['memory_kb']:>7.2f} "
            f"{stats['bucket_count']:>8d} {stats['total_count']:>12.0f} "
            f"{stats['generation']:>6d} {stats['repartition_count']:>7d} "
            f"{stats['inserted']:>10d} {stats['deleted']:>8d} {state:<8}"
        )
    return "\n".join(lines)


def _command_store_stats(args, out) -> int:
    from .exceptions import ServiceError
    from .service import StatisticsClient

    with StatisticsClient(args.host, args.port) as client:
        try:
            attributes = client.stats()["attributes"]
        except (OSError, ServiceError) as error:
            out.write(f"cannot reach statistics server at {args.host}:{args.port}: {error}\n")
            return 2
    out.write(f"statistics server at {args.host}:{args.port} "
              f"({len(attributes)} attribute(s))\n")
    out.write(format_store_stats(attributes) + "\n")
    return 0


def parse_exposition(text: str):
    """Parse Prometheus text exposition into (types, samples).

    ``types`` maps metric name -> declared type (``counter``/``gauge``/
    ``histogram``); ``samples`` maps the full series string (name plus label
    set) -> float value.  Only the subset of the text format 0.0.4 our own
    ``MetricsRegistry.render`` emits needs to parse, but unknown lines are
    skipped rather than fatal so the command works against other exporters.
    """
    types: dict[str, str] = {}
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        series, _, value_text = line.rpartition(" ")
        if not series:
            continue
        try:
            samples[series] = float(value_text)
        except ValueError:
            continue
    return types, samples


def _series_base_name(series: str) -> str:
    """The metric family a series belongs to (labels and suffixes stripped)."""
    name = series.split("{", 1)[0]
    for suffix in ("_bucket", "_count", "_sum"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def format_metrics_watch(
    types: dict[str, str],
    before: dict[str, float],
    after: dict[str, float],
    elapsed_s: float,
) -> str:
    """Per-series deltas between two scrapes, one table.

    Counter-like series (counters, histogram ``_count``/``_sum``) report
    delta and rate per second, with zero-delta series suppressed to keep the
    output readable; gauges report their current value.  Histogram
    ``_bucket`` series are skipped -- the ``_count``/``_sum`` pair already
    summarises them.
    """
    lines = [f"{'series':<64} {'kind':<8} {'value':>14} {'rate/s':>12}"]
    for series in sorted(after):
        name = series.split("{", 1)[0]
        base = _series_base_name(series)
        kind = types.get(base, types.get(name, ""))
        if kind == "histogram":
            if name.endswith("_bucket"):
                continue
            kind = "counter"
        current = after[series]
        if kind == "counter":
            delta = current - before.get(series, 0.0)
            if delta == 0.0:
                continue
            rate = delta / elapsed_s if elapsed_s > 0 else 0.0
            lines.append(f"{series:<64} {'counter':<8} {f'+{delta:g}':>14} {rate:>12.1f}")
        else:
            lines.append(f"{series:<64} {kind or 'gauge':<8} {current:>14g} {'':>12}")
    if len(lines) == 1:
        lines.append("(no activity between scrapes)")
    return "\n".join(lines)


def _command_metrics(args, out) -> int:
    from .exceptions import ServiceError
    from .service import StatisticsClient

    with StatisticsClient(args.host, args.port) as client:
        try:
            text = client.metrics_text()
        except (OSError, ServiceError) as error:
            out.write(f"cannot reach server at {args.host}:{args.port}: {error}\n")
            return 2
        if args.watch is None:
            out.write(text)
            return 0
        if args.watch <= 0:
            out.write("--watch must be a positive number of seconds\n")
            return 2
        types, before = parse_exposition(text)
        start = time.perf_counter()
        time.sleep(args.watch)
        try:
            second = client.metrics_text()
        except (OSError, ServiceError) as error:
            out.write(f"cannot reach server at {args.host}:{args.port}: {error}\n")
            return 2
        elapsed = time.perf_counter() - start
        second_types, after = parse_exposition(second)
        types.update(second_types)
        out.write(
            f"metrics delta over {elapsed:.2f}s "
            f"(counters: delta + rate; gauges: current)\n"
        )
        out.write(format_metrics_watch(types, before, after, elapsed) + "\n")
        return 0


def _command_cluster_stats(args, out) -> int:
    from .cluster import ClusterClient
    from .exceptions import ServiceError

    with ClusterClient(args.host, args.port) as client:
        try:
            stats = client.cluster_stats()
        except (OSError, ServiceError) as error:
            out.write(f"cannot reach cluster server at {args.host}:{args.port}: {error}\n")
            return 2
    placement = stats.get("placement", {})
    shards = stats.get("shards", [])
    out.write(
        f"statistics cluster at {args.host}:{args.port} ({len(shards)} shard(s))\n"
    )
    for shard in shards:
        attributes = shard.get("attributes", [])
        out.write(f"\n[{shard['shard_id']}] {len(attributes)} attribute(s)\n")
        if attributes:
            out.write(format_store_stats(attributes) + "\n")
    overrides = placement.get("overrides", {})
    if overrides:
        out.write("\npinned attributes:\n")
        for name, shard_id in sorted(overrides.items()):
            out.write(f"  {name} -> {shard_id}\n")
    partitions = placement.get("partitions", {})
    if partitions:
        out.write("\nrange partitions:\n")
        for name, partition in sorted(partitions.items()):
            out.write(
                f"  {name}: boundaries={partition['boundaries']} "
                f"shards={partition['shard_ids']}\n"
            )
    merge_cache = stats.get("merge_cache", {})
    if merge_cache:
        out.write("\nmerged global histograms (cached):\n")
        for name, entry in sorted(merge_cache.items()):
            out.write(
                f"  {name}: generation_sum={entry['generation_sum']} "
                f"buckets={entry['buckets']}\n"
            )
    return 0


def _command_resync(args, out) -> int:
    from .cluster import ClusterClient
    from .exceptions import ServiceError

    with ClusterClient(args.host, args.port) as client:
        try:
            report = client.resync(args.shard)
        except (OSError, ServiceError) as error:
            out.write(f"resync of {args.shard!r} failed: {error}\n")
            return 2
    resynced = report.get("resynced", {})
    out.write(f"resynced {len(resynced)} attribute(s) onto {report['shard']}\n")
    for name, source in sorted(resynced.items()):
        out.write(f"  {name} <- {source}\n")
    for name in report.get("unrecoverable", []):
        out.write(f"  {name}: no surviving replica to copy from\n")
    return 0


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _command_list(out)
    if args.command == "run":
        return _command_run(args, out)
    if args.command == "compare":
        return _command_compare(args, out)
    if args.command == "serve":
        return _run_server_command(_command_serve, args, out)
    if args.command == "store-stats":
        return _command_store_stats(args, out)
    if args.command == "metrics":
        return _command_metrics(args, out)
    if args.command == "serve-cluster":
        return _run_server_command(_command_serve_cluster, args, out)
    if args.command == "cluster-stats":
        return _command_cluster_stats(args, out)
    if args.command == "resync":
        return _command_resync(args, out)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
