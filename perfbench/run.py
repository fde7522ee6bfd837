"""End-to-end benchmark of the statistics service: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stats_refresh --seed 1 --seconds 10 --trace 0

The command starts the real servers as subprocesses (``repro.cli serve`` or
``repro.cli serve-cluster --spawn-shards 2``), drives one seeded workload
from this single-threaded, closed-loop client -- the next request leaves only
after the previous reply, as an optimizer waits for each estimate and a
loader for each ack -- checks every answer, and prints a report followed by
one JSON line with the metrics listed in ``BENCHMARK.json``.

Policy, identical on both sides of every comparison: every server runs with
``--flush-interval 0`` (each ingest is applied before it is acked, so no
metric depends on a timer), the WAL is on without fsync, WAL compaction is
left at its default of 10,000 records (a run stays far below it, and a run
where it fires fails), and every histogram gets the paper's 1 KB.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` makes the same
untraced pass, then a second pass of the same seed with the span wrappers of
``perfbench/tracer`` installed in every server process, and prints the
per-layer metrics and the tracing overhead; end-to-end numbers never come
from a traced pass.  Both modes run the output, durability, teardown and
determinism checks and exit non-zero when one fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".perfbench_run"
STATE_FILE = ROOT / ".perfbench_state" / "determinism.json"
SETUP_REPEATS = 3
RECOVERY_REPEATS = 3
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
# Placement: the client, the server and (on the cluster workload) the
# coordinator with shard-0's worker share the first allowed CPU; shard-1's
# worker gets the last one, so the two fan-out legs still run in parallel.
# The closed loop keeps the client and the server from running at once, and
# the host speed is sampled on exactly the CPUs that do the work.
CPUS = sorted(os.sched_getaffinity(0))
MAIN_CPU, SIDE_CPU = CPUS[0], CPUS[-1]


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "repro" / "__init__.py").is_file():
    _fail_setup(f"no repro package under {SRC}; run from a full checkout")
if not (ROOT / "BENCHMARK.json").is_file():
    _fail_setup(f"no BENCHMARK.json at {ROOT}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from repro.cluster import ClusterClient  # noqa: E402
from repro.metrics.distribution import DataDistribution  # noqa: E402
from repro.metrics.ks import ks_statistic  # noqa: E402
from repro.obs.trace import Trace, use_trace  # noqa: E402
from repro.service import StatisticsClient  # noqa: E402
from repro.service.wal import DurabilityConfig, iter_wal  # noqa: E402

import layers  # noqa: E402
from layers import CheckFailed  # noqa: E402
from workloads import MEMORY_KB, WORKLOADS, Workload  # noqa: E402


# ----------------------------------------------------------------------
# server processes
# ----------------------------------------------------------------------
class Server:
    """One ``serve`` / ``serve-cluster`` process and the workers it spawns."""

    def __init__(self, argv: list[str], env: dict[str, str], log_path: Path) -> None:
        self.spawned_at = time.perf_counter()
        with open(log_path, "ab") as log:
            # stderr goes to a file, never a pipe: a worker that outlived its
            # server would otherwise hold the pipe open and hang the reader.
            self.process = subprocess.Popen(
                argv,
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
                cwd=log_path.parent,
                preexec_fn=lambda: os.sched_setaffinity(0, {MAIN_CPU}),
            )
        self.port = 0
        self.workers: dict[int, int] = {}  # worker pid -> binary-transport port
        try:
            self._read_banner()
            if self.workers:
                _pin(list(self.workers)[-1], SIDE_CPU)
        except BaseException:
            self.kill()
            raise

    def _read_banner(self) -> None:
        selector = selectors.DefaultSelector()
        selector.register(self.process.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + READY_TIMEOUT_S
        buffer = b""
        try:
            while b"attributes:" not in buffer:
                if time.monotonic() > deadline or not selector.select(
                    deadline - time.monotonic()
                ):
                    raise CheckFailed("server did not report readiness in time")
                chunk = os.read(self.process.stdout.fileno(), 65536)
                if not chunk:
                    raise CheckFailed(
                        f"server exited during start-up (code {self.process.wait()})"
                    )
                buffer += chunk
        finally:
            selector.close()
        for line in buffer.decode().splitlines():
            if "listening on http://" in line:
                self.port = int(line.rsplit(":", 1)[1])
            if line.startswith("shards:") and "pid" in line:
                for entry in line[len("shards:") :].split("),"):
                    pid = int(entry.split("pid ")[1].split(",")[0])
                    self.workers[pid] = int(entry.split("port ")[1].rstrip(") "))

    @property
    def pids(self) -> list[int]:
        return [self.process.pid, *self.workers]

    def rss_mib(self) -> float:
        total_kib = 0
        for pid in self.pids:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmRSS:"):
                        total_kib += int(line.split()[1])
        return total_kib / 1024.0

    def stop(self) -> None:
        """SIGINT (the path that closes the shard supervisor), then check that
        no worker process or bound port survives."""
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise CheckFailed(f"server ignored SIGINT for {STOP_TIMEOUT_S:g}s") from None
        finally:
            self.process.stdout.close()
        survivors = [pid for pid in self.workers if _is_live_worker(pid)]
        ports = [port for port in [self.port, *self.workers.values()] if _port_bound(port)]
        if survivors or ports:
            self.kill()
            raise CheckFailed(
                f"teardown left worker pids {survivors} and bound ports {ports} behind"
            )

    def kill(self) -> None:
        # Note the server's worker children (a server that failed during
        # start-up has not reported them), kill the server first so its
        # supervisor cannot respawn a killed worker, then kill only pids
        # that are still workers.
        if self.process.poll() is None:
            for pid in _worker_children(self.process.pid):
                self.workers.setdefault(pid, 0)
        self.process.kill()  # a no-op once the process has been reaped
        self.process.wait()
        for pid in self.workers:
            if _is_live_worker(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + 10.0
        while any(_is_live_worker(pid) for pid in self.workers) and time.monotonic() < deadline:
            time.sleep(0.05)


def _is_live_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
        with open(f"/proc/{pid}/cmdline", "rb") as cmdline:
            command = cmdline.read()
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state != "Z" and b"repro.cluster.worker" in command


def _pin(pid: int, cpu: int) -> None:
    """Move every thread of ``pid`` to ``cpu``; threads started later inherit it."""
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(task), {cpu})
        except ProcessLookupError:
            pass  # the thread has ended


def _worker_children(ppid: int) -> list[int]:
    children = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text(encoding="ascii", errors="replace")
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == ppid and _is_live_worker(int(entry.name)):
                children.append(int(entry.name))
    return children


def _port_bound(port: int) -> bool:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=0.5):
            return True
    except OSError:
        return False


def _server_argv(workload: Workload, wal_dir: Path) -> list[str]:
    command = "serve-cluster" if workload.cluster else "serve"
    argv = [sys.executable, "-m", "repro.cli", command, "--host", "127.0.0.1", "--port", "0"]
    argv += ["--wal-dir", str(wal_dir)]
    if workload.cluster:
        argv += ["--spawn-shards", "2"]
    else:
        argv += ["--flush-interval", "0"]
    for name, kind in workload.attributes:
        argv += ["-a", f"{name}:{kind}:{MEMORY_KB}"]
    for name, cuts in workload.partition.items():
        argv += ["-p", f"{name}:{','.join(repr(c) for c in cuts)}"]
    return argv


def _client(workload: Workload, port: int):
    cls = ClusterClient if workload.cluster else StatisticsClient
    return cls("127.0.0.1", port, timeout=60.0)


# ----------------------------------------------------------------------
# exact tally kept by the client
# ----------------------------------------------------------------------
class Tally:
    """Live multiset per attribute over the integer value grid."""

    def __init__(self, workload: Workload) -> None:
        size = workload.value_high + 2
        self.counts = {name: np.zeros(size, dtype=np.int64) for name, _ in workload.attributes}
        self.live = {name: 0 for name, _ in workload.attributes}

    def apply(self, name: str, inserts, deletes) -> None:
        counts = self.counts[name]
        if inserts:
            np.add.at(counts, np.asarray(inserts, dtype=np.int64), 1)
        if deletes:
            np.subtract.at(counts, np.asarray(deletes, dtype=np.int64), 1)
        self.live[name] += len(inserts) - len(deletes)

    def range_count(self, name: str, low: float, high: float) -> int:
        lo = max(0, math.ceil(low))
        hi = min(len(self.counts[name]) - 1, math.floor(high))
        return int(self.counts[name][lo : hi + 1].sum()) if hi >= lo else 0

    def distribution(self, name: str) -> DataDistribution:
        counts = self.counts[name]
        present = np.flatnonzero(counts)
        return DataDistribution.from_frequencies(
            (float(v), int(c)) for v, c in zip(present, counts[present], strict=True)
        )


class _ServedCDF:
    """``cdf_many`` through the service's ``cdf`` query, for ``ks_statistic``."""

    def __init__(self, client, name: str) -> None:
        self.client, self.name = client, name

    def cdf_many(self, xs):
        reply = self.client.query(self.name, [{"op": "cdf", "xs": [float(x) for x in xs]}])
        return np.asarray(reply["results"][0], dtype=float)


def _check_estimate(value, live: int, where: str) -> None:
    if not math.isfinite(value) or value < -1e-9 * max(live, 1) or value > live * (1 + 1e-9):
        raise CheckFailed(f"{where}: estimate {value!r} outside [0, {live}]")


def _check_totals(client, workload: Workload, tally: Tally, phase: str) -> None:
    for name, _ in workload.attributes:
        total = client.query(name, [{"op": "total"}])["results"][0]
        expected = tally.live[name]
        if abs(total - expected) > 1e-9 * max(expected, 1):
            raise CheckFailed(f"after {phase}: {name} total_count {total!r} != tally {expected}")


def _check_ack(reply: dict, inserts: int, deletes: int, where: str) -> None:
    if reply.get("buffered") or reply.get("buffered_for_move") or reply.get("failed_replicas"):
        raise CheckFailed(f"{where}: write was not applied synchronously: {reply}")
    if reply.get("inserted") != inserts or reply.get("deleted") != deletes:
        raise CheckFailed(f"{where}: ack {reply} for {inserts} inserts / {deletes} deletes")


# ----------------------------------------------------------------------
# one pass: set-up, measured phase, checks
# ----------------------------------------------------------------------
# The host's speed drifts with no stolen time (the same run read 1.6 times
# slower a few minutes later), and each vCPU drifts on its own, so two runs
# of the same code can differ by more than any useful bound.  Every reported
# time is therefore scaled to a reference speed: a fixed pure-Python loop
# that uses no code under test is timed on the CPUs the workload runs on
# (see MAIN_CPU) while the servers sit idle between requests, and a time
# measured while the host ran at ``speed`` (reference loop time over measured
# loop time) is reported as time x speed.  CAL_REF_S is the loop's usual time
# on a core of the reference host (2 cores), so there the scaled times read
# about as wall-clock times.  A code change moves a scaled time as it moves the wall-clock one;
# the report prints both.
CAL_LOOP = 20_000
CAL_REF_S = 0.00105
SPEED_EVERY_S = 0.2  # host speed is sampled between requests this often


def _loop_seconds() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOP):
        total += i * i
    return time.perf_counter() - start


def host_speed(workload: Workload) -> float:
    """Reference loop time over the loop time measured now on the CPUs the
    workload runs on (their mean)."""
    times = []
    try:
        for cpu in sorted({MAIN_CPU, SIDE_CPU} if workload.cluster else {MAIN_CPU}):
            os.sched_setaffinity(0, {cpu})
            times.append(min(_loop_seconds(), _loop_seconds()))
    finally:
        os.sched_setaffinity(0, {MAIN_CPU})
    return CAL_REF_S / statistics.mean(times)


@dataclass
class _Segment:
    """Requests between two host-speed samples."""

    start: float
    end: float = 0.0
    requests: int = 0
    values: int = 0
    latencies: dict[str, list[float]] = field(
        default_factory=lambda: {"ingest": [], "estimate": [], "merged": []}
    )


def _timing(segments: list[_Segment], speeds: list[float]) -> dict:
    """Latencies and rates of the measured phase, scaled to reference speed.

    Segment i lies between speed samples i and i + 1 and is scaled by their
    mean; the rates divide by the scaled wall time of the segments, which
    leaves out the time spent sampling the speed.
    """
    factors = [(a + b) / 2 for a, b in zip(speeds, speeds[1:])]
    seconds = sum((seg.end - seg.start) * f for seg, f in zip(segments, factors, strict=True))
    return {
        "latencies": {
            kind: [v * f for seg, f in zip(segments, factors) for v in seg.latencies[kind]]
            for kind in ("ingest", "estimate", "merged")
        },
        "ops_per_s": sum(seg.requests for seg in segments) / seconds,
        "ingest_values_per_s": sum(seg.values for seg in segments) / seconds,
        "raw_latencies": {
            kind: [v for seg in segments for v in seg.latencies[kind]]
            for kind in ("ingest", "estimate", "merged")
        },
        "speed": speeds,
    }


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def _values(op) -> int:
    """Values a write request inserts or deletes (0 for a read)."""
    if op[0] == "ingest":
        return len(op[2]) + len(op[3])
    if op[0] == "batch":
        return sum(len(values) for values in op[1].values())
    return 0


def _send(client, op) -> dict:
    kind = op[0]
    if kind == "ingest":
        return client.ingest(op[1], insert=op[2], delete=op[3])
    if kind == "batch":
        return client.ingest_batch(op[1])
    return client.query(op[1], [{"op": "range", "low": op[2], "high": op[3]}])


def _preload(client, workload: Workload, tally: Tally) -> None:
    for _, name, inserts, deletes in workload.preload:
        _check_ack(client.ingest(name, insert=inserts, delete=deletes), len(inserts), len(deletes), "preload")
        tally.apply(name, inserts, deletes)
    if workload.preload:
        _check_totals(client, workload, tally, "preload")


def _wal_state(wal_dir: Path) -> tuple[int, int]:
    """(bytes in the WAL directories, WAL records); fails if compaction ran."""
    records = 0
    for directory in [wal_dir, *(p for p in wal_dir.iterdir() if p.is_dir())]:
        config = DurabilityConfig(directory)
        if config.snapshot_path.exists():
            raise CheckFailed(f"WAL compaction fired in {directory}; the stated policy excludes it")
        records += sum(1 for _ in iter_wal(config.wal_path))
    size = sum(p.stat().st_size for p in wal_dir.rglob("*") if p.is_file())
    return size, records


def run_pass(workload: Workload, workdir: Path, *, traced: bool) -> dict:
    """One pass over the workload's op sequence.

    Untraced: set up ``SETUP_REPEATS`` times (the last server is kept), run
    the measured phase, check the outputs, then restart on the same WAL
    ``RECOVERY_REPEATS`` times and check each time that it recovered.
    Traced: set up once with the span wrappers on the servers'
    ``PYTHONPATH``, run the measured phase and check the outputs.
    """
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    trace_dir = workdir / "spans"
    if traced:
        trace_dir.mkdir()
        env["PYTHONPATH"] = os.pathsep.join([str(HERE / "tracer"), str(SRC)])
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    log = workdir / "servers.log"
    setup_times, setup_raw = [], []
    for attempt in range(1 if traced else SETUP_REPEATS):
        wal_dir = workdir / f"wal-{attempt}"
        speed = host_speed(workload)
        server = Server(_server_argv(workload, wal_dir), env, log)
        try:
            client = _client(workload, server.port)
            # A served request proves the server's main thread is inside the
            # loop that turns SIGINT into a clean shutdown; a SIGINT that
            # lands between the start-up banner and that loop skips the
            # shard supervisor's teardown and leaks the workers.
            client.health()
            tally = Tally(workload)
            _preload(client, workload, tally)
            setup_raw.append(time.perf_counter() - server.spawned_at)
            setup_times.append(setup_raw[-1] * (speed + host_speed(workload)) / 2)
            if attempt < SETUP_REPEATS - 1 and not traced:
                server.stop()
                shutil.rmtree(wal_dir)
        except BaseException:
            server.kill()
            raise
    try:
        result = _measure(workload, server, client, tally, wal_dir, traced)
        result["setup_s"] = statistics.median(setup_times)
        result["setup_raw"] = setup_raw
        if not traced:
            probe = {name: client.query(name, queries)["results"] for name, queries in workload.probe.items()}
        server.stop()
    except BaseException:
        server.kill()
        raise
    if traced:
        result["spans"] = layers.load_spans(trace_dir)
        result["server_pid"] = server.process.pid
        return result
    recovery, recovery_raw = [], []
    for _ in range(RECOVERY_REPEATS):
        speed = host_speed(workload)
        restarted = Server(_server_argv(workload, wal_dir), env, log)
        try:
            client = _client(workload, restarted.port)
            client.query(workload.attributes[0][0], [{"op": "total"}])
            recovery_raw.append(time.perf_counter() - restarted.spawned_at)
            recovery.append(recovery_raw[-1] * (speed + host_speed(workload)) / 2)
            _check_totals(client, workload, tally, "restart")
            for name, queries in workload.probe.items():
                if client.query(name, queries)["results"] != probe[name]:
                    raise CheckFailed(f"after restart: probe of {name} differs from before")
            restarted.stop()
        except BaseException:
            restarted.kill()
            raise
    result["recovery_s"] = statistics.median(recovery)
    result["recovery_raw"] = recovery_raw
    return result


def _measure(workload, server, client, tally, wal_dir, traced) -> dict:
    requests = []  # (request id, kind, start, end) for the traced pass
    errors: list[float] = []
    merge_generation: dict[str, object] = {}
    merge_rebuilds = 0
    values_acked = 0
    failed = 0
    connect_log: list[tuple[float, float]] = []
    _, records_before = _wal_state(wal_dir)
    restore = layers.trace_client(client, connect_log) if traced else None
    gc.collect()
    gc.freeze()
    speeds = [host_speed(workload)]
    segments = [_Segment(time.perf_counter())]
    phase_start = segments[0].start
    try:
        for index, op in enumerate(workload.ops):
            if time.perf_counter() - segments[-1].start >= SPEED_EVERY_S:
                segments[-1].end = time.perf_counter()
                speeds.append(host_speed(workload))
                segments.append(_Segment(time.perf_counter()))
            kind = "ingest" if op[0] in ("ingest", "batch") else op[0]
            trace = Trace(f"pb{index:07d}") if traced else None
            with use_trace(trace):
                start = time.perf_counter()
                try:
                    reply = _send(client, op)
                except Exception as error:  # refused or failed: counted, then checked
                    failed += 1
                    print(f"request {index} ({op[0]}) failed: {error}", file=sys.stderr)
                    continue
                end = time.perf_counter()
            segments[-1].latencies[kind].append(end - start)
            segments[-1].requests += 1
            segments[-1].values += _values(op)
            if traced:
                requests.append((trace.trace_id, kind, start, end))
            where = f"request {index} ({op[0]})"
            values_acked += _values(op)
            if op[0] == "ingest":
                _check_ack(reply, len(op[2]), len(op[3]), where)
                tally.apply(op[1], op[2], op[3])
            elif op[0] == "batch":
                _check_ack(reply, _values(op), 0, where)
                for name, values in op[1].items():
                    tally.apply(name, values, ())
            else:
                name, low, high = op[1], op[2], op[3]
                value = reply["results"][0]
                live = tally.live[name]
                _check_estimate(value, live, where)
                errors.append(abs(value - tally.range_count(name, low, high)) / live)
                if kind == "merged":
                    if reply.get("generation") != merge_generation.get(name):
                        merge_rebuilds += 1
                    merge_generation[name] = reply.get("generation")
    finally:
        segments[-1].end = time.perf_counter()
        phase_s = segments[-1].end - phase_start
        speeds.append(host_speed(workload))
        gc.unfreeze()
        if restore is not None:
            restore()
    result = {
        **_timing(segments, speeds),
        "phase_s": phase_s,
        "requests": requests,
        "connects": connect_log,
        "client_retries": layers.client_retries(client),
        "server_rss_mib": server.rss_mib(),
    }
    if failed:
        error = CheckFailed(f"{failed} of {len(workload.ops)} requests failed")
        error.failed = failed
        raise error
    _check_totals(client, workload, tally, "the measured phase")
    stats = client.stats()["attributes"]
    wal_bytes, wal_records = _wal_state(wal_dir)
    ks = [
        ks_statistic(
            tally.distribution(name),
            _ServedCDF(client, name),
            extra_points=np.arange(-1, workload.value_high + 2, dtype=float),
            value_unit=1.0,
        )
        for name, _ in workload.attributes
    ]
    result["ks_by_attribute"] = dict(zip((name for name, _ in workload.attributes), ks, strict=True))
    result["guard"] = {
        "ks_error": float(np.mean(ks)),
        "selectivity_error": float(np.mean(errors)),
        "wal_bytes_per_value": wal_bytes / (values_acked + sum(len(op[2]) for op in workload.preload)),
        "core.repartitions": sum(int(entry["repartition_count"]) for entry in stats),
        "wal.appends": wal_records - records_before,
        "coordinator.merge_rebuilds": merge_rebuilds,
    }
    return result


# ----------------------------------------------------------------------
# metrics, determinism guard, report
# ----------------------------------------------------------------------
def end_to_end(result: dict) -> dict[str, float]:
    lat = {kind: [v * 1000.0 for v in values] for kind, values in result["latencies"].items()}
    guard = result["guard"]
    return {
        "setup_s": result["setup_s"],
        "ops_per_s": result["ops_per_s"],
        "ingest_values_per_s": result["ingest_values_per_s"],
        "ingest_p50_ms": _percentile(lat["ingest"], 50),
        "ingest_p90_ms": _percentile(lat["ingest"], 90),
        "estimate_p50_ms": _percentile(lat["estimate"], 50),
        "estimate_p90_ms": _percentile(lat["estimate"], 90),
        "merged_estimate_p50_ms": _percentile(lat["merged"], 50),
        "merged_estimate_p90_ms": _percentile(lat["merged"], 90),
        "selectivity_error": guard["selectivity_error"],
        "ks_error": guard["ks_error"],
        "wal_bytes_per_value": guard["wal_bytes_per_value"],
        "server_rss_mib": result["server_rss_mib"],
        "recovery_s": result.get("recovery_s", 0.0),
    }


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.rglob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def determinism_guard(args, guards: list[dict]) -> None:
    """Fail unless every pass of this seed -- in this run and in earlier runs
    of the same code in this checkout -- gave bit-identical guard values."""
    key = f"{args.workload}/seed={args.seed}/seconds={args.seconds}/{_source_digest()}"
    records = json.loads(STATE_FILE.read_text()) if STATE_FILE.exists() else {}
    reference = records.get(key, guards[0])
    for guard in guards:
        for name, value in reference.items():
            if name in guard and repr(guard[name]) != repr(value):
                raise CheckFailed(
                    f"determinism guard: {name} is {guard[name]!r}, an earlier pass of "
                    f"seed {args.seed} gave {value!r}"
                )
    records[key] = {**reference, **guards[-1]}
    STATE_FILE.parent.mkdir(exist_ok=True)
    tmp = STATE_FILE.with_suffix(".tmp")
    tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
    os.replace(tmp, STATE_FILE)


def _declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _print_metrics(title: str, values: dict[str, float], units: dict[str, str]) -> None:
    print(f"== {title}")
    for name, value in values.items():
        print(f"  {name:<40} {value:>14.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    os.sched_setaffinity(0, {MAIN_CPU})
    e2e_units, layer_units = _declared_metrics()
    print(
        f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__}; workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}; one closed-loop client"
    )
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    workdir = RUN_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    correct, attempted, failed = True, 0, 0
    metrics: dict[str, float] = {}
    try:
        attempted += len(workload.ops)
        plain = run_pass(workload, workdir / "plain", traced=False)
        guards = [plain["guard"]]
        e2e = end_to_end(plain)
        speed = plain["speed"]
        print(
            f"measured phase: {len(workload.ops)} requests in {plain['phase_s']:.2f} s; "
            f"host speed {min(speed):.2f}..{statistics.median(speed):.2f}..{max(speed):.2f} "
            f"(min..median..max of {len(speed)} samples, 1 = reference); wall-clock before "
            f"scaling: setup {[round(t, 3) for t in plain['setup_raw']]} s, recovery "
            f"{[round(t, 3) for t in plain['recovery_raw']]} s, "
            + ", ".join(
                f"{kind} p50 {_percentile(v, 50) * 1000:.3f} ms (n={len(v)})"
                for kind, v in plain["raw_latencies"].items()
                if v
            )
        )
        print("ks by attribute: " + ", ".join(f"{n} {v:.5f}" for n, v in plain["ks_by_attribute"].items()))
        _print_metrics("end-to-end (untraced pass)", e2e, e2e_units)
        if args.trace:
            attempted += len(workload.ops)
            traced = run_pass(workload, workdir / "traced", traced=True)
            guards.append(traced["guard"])
            per_layer = layers.per_layer_metrics(traced, e2e, end_to_end(traced))
            layers.print_budget(args.workload, traced, per_layer)
            _print_metrics("per-layer (traced pass)", per_layer, layer_units)
            metrics = per_layer
            selected = layer_units
        else:
            metrics = e2e
            selected = e2e_units
        print("determinism guard values: " + json.dumps(guards[-1], sort_keys=True))
        determinism_guard(args, guards)
        missing = sorted(set(selected) - set(metrics))
        if missing:
            raise CheckFailed(f"metrics declared in BENCHMARK.json but not measured: {missing}")
        metrics = {name: metrics[name] for name in selected}
    except CheckFailed as error:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
        correct, failed, metrics = False, getattr(error, "failed", 1), {}
    except Exception:  # a request or server failure outside the checks: report it
        traceback.print_exc()
        correct, failed, metrics = False, 1, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            RUN_ROOT.rmdir()
        except OSError:
            pass
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": (e2e_units | layer_units)[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
