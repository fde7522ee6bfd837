"""Per-layer metrics of the traced pass, computed from recorded spans.

Server and worker spans come from ``tracer/sitecustomize.py``; the client's
own spans (each request, and each TCP connect inside it) are recorded here.
All share one clock (``time.perf_counter``, CLOCK_MONOTONIC on Linux) and one
request id per client request.

A span's *self time* is its duration minus the part of it covered by deeper
spans of the same request in the same process (the union of their
intervals, so concurrent fan-out legs are not double counted), both clipped
to the client's request interval.  Layer times
are per-request sums of self time, averaged over the requests of one kind;
legs that run in parallel on two workers both count, so worker-side sums can
exceed wall time.  What the client saw beyond its TCP connect and the
server's handler span is reported as ``budget.<kind>.unaccounted_ms``:
request and response bytes on the wire, header parsing, the handler thread
start and the client's own encoding and decoding.
"""

from __future__ import annotations

import bisect
import http.client
import json
import time
from collections import defaultdict
from pathlib import Path

KINDS = ("dc", "dvo", "dado")


class CheckFailed(Exception):
    """An output, durability, teardown or determinism check failed."""


# Nesting depth of each span name inside one process.
_RANK = {
    "edge": 0,
    "edge.parse": 0,
    "worker.rpc": 0,
    "coordinator": 1,
    "store": 1,
    "transport.scatter": 2,
    "merge": 2,
    "wal": 2,
    "core": 2,
    "transport.leg": 3,
    "transport.retry": 3,
    "supervisor.start": 0,
}


def _rank(name: str) -> int:
    return _RANK.get(name, _RANK.get(name.split(".")[0], 0))


def load_spans(trace_dir: Path) -> dict[int, list[list]]:
    """``{pid: spans}`` from every ``spans-<pid>.json`` the traced processes wrote."""
    spans = {}
    for path in sorted(trace_dir.glob("spans-*.json")):
        payload = json.loads(path.read_text())
        spans[int(payload["pid"])] = payload["spans"]
    return spans


def trace_client(client, connect_log: list[tuple[float, float]]):
    """Record every TCP connect the client makes, and count its retries.

    Returns a function that removes the wrappers again.
    """
    original_connect = http.client.HTTPConnection.connect

    def connect(self):
        start = time.perf_counter()
        try:
            return original_connect(self)
        finally:
            connect_log.append((start, time.perf_counter()))

    http.client.HTTPConnection.connect = connect
    original_backoff = client._record_backoff
    client.retry_count = 0

    def record_backoff(pause):
        client.retry_count += 1
        return original_backoff(pause)

    client._record_backoff = record_backoff

    def restore():
        http.client.HTTPConnection.connect = original_connect
        del client._record_backoff

    return restore


def client_retries(client) -> int:
    return getattr(client, "retry_count", 0)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _self_times(group: list[list]) -> list[float]:
    """Self time of every span of one (process, request) group."""
    result = []
    for span in group:
        _, name, start, end = span[:4]
        rank = _rank(name)
        inner = [
            (other[2], other[3])
            for other in group
            if _rank(other[1]) > rank and other[2] >= start and other[3] <= end
        ]
        result.append(end - start - _union_length(inner))
    return result


def _layer(name: str, worker: bool) -> str:
    if name.startswith("transport."):
        return "transport"
    base = name.split(".")[0]
    if worker and base in ("store", "wal", "core"):
        return f"worker.{base}"
    return "worker.rpc" if name == "worker.rpc" else base


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer_metrics(traced: dict, plain_e2e: dict, traced_e2e: dict) -> dict[str, float]:
    spans_by_pid: dict[int, list[list]] = traced["spans"]
    server_pid = traced["server_pid"]
    requests = {rid: (kind, start, end) for rid, kind, start, end in traced["requests"]}
    by_kind = defaultdict(list)
    for rid, (kind, _, _) in requests.items():
        by_kind[kind].append(rid)

    # Per request: layer -> summed self time; plus flat span lists for counts.
    layer_time: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    handler: dict[str, float] = defaultdict(float)
    measured: dict[str, list[tuple[bool, list, float]]] = defaultdict(list)
    legs: dict[tuple, list[list]] = defaultdict(list)
    rpcs: dict[tuple, list[list]] = defaultdict(list)
    everywhere: dict[str, list[tuple[bool, list]]] = defaultdict(list)
    for pid, spans in spans_by_pid.items():
        worker = pid != server_pid
        groups: dict[str, list[list]] = defaultdict(list)
        for span in spans:
            everywhere[span[1]].append((worker, span))
            if span[5] in requests:
                groups[span[5]].append(span)
        for rid, group in groups.items():
            # Self times count only the part of a span inside the client's
            # request interval: a handler thread that is still releasing
            # the request after the reply left does not delay this client.
            _, r_start, r_end = requests[rid]
            clipped = [
                [s[0], s[1], max(s[2], r_start), max(min(s[3], r_end), r_start)] for s in group
            ]
            for span, self_time in zip(group, _self_times(clipped), strict=True):
                name = span[1]
                measured[name].append((worker, span, self_time))
                if name == "transport.leg":
                    legs[(rid, span[6]["shard"], span[6]["op"])].append(span)
                    continue  # accounted below as wire time; the worker side has its own spans
                layer_time[rid][_layer(name, worker)] += self_time
                if name.startswith("edge"):
                    handler[rid] += min(span[3], r_end) - max(span[2], r_start)
                if name == "worker.rpc":
                    rpcs[(rid, span[6]["shard"], span[6]["op"])].append(span)

    wires = []
    for key, leg_spans in legs.items():
        worker_spans = sorted(rpcs.get(key, []), key=lambda s: s[2])
        for leg, rpc in zip(sorted(leg_spans, key=lambda s: s[2]), worker_spans, strict=False):
            wire = (leg[3] - leg[2]) - (rpc[3] - rpc[2])
            wires.append(wire)
            layer_time[key[0]]["transport"] += wire

    # Requests are sequential, so each connect belongs to the last request
    # that started before it.
    order = sorted(requests, key=lambda rid: requests[rid][1])
    starts = [requests[rid][1] for rid in order]
    connect_time: dict[str, float] = defaultdict(float)
    connect_count = 0
    for start, end in traced["connects"]:
        position = bisect.bisect_right(starts, start) - 1
        if position >= 0 and end <= requests[order[position]][2]:
            connect_time[order[position]] += end - start
            connect_count += 1

    def mean_layer(kind: str, layer: str, scale: float = 1000.0) -> float:
        return _mean(layer_time[rid][layer] for rid in by_kind[kind]) * scale

    def durations(name: str, worker: bool) -> list[float]:
        return [s[3] - s[2] for w, s, _ in measured[name] if w == worker]

    def self_sum(names: tuple[str, ...], kind: str, worker: bool) -> float:
        per_request = defaultdict(float)
        for name in names:
            for w, span, self_time in measured[name]:
                if w == worker and requests[span[5]][0] == kind:
                    per_request[span[5]] += self_time
        return _mean(per_request.get(rid, 0.0) for rid in by_kind[kind])

    ingest_latency = sum(requests[rid][2] - requests[rid][1] for rid in by_kind["ingest"])
    metrics: dict[str, float] = {}
    total_requests = len(requests)
    metrics["client.connects_per_request"] = connect_count / total_requests
    metrics["client.connect_ms"] = _mean(connect_time[rid] for rid in requests) * 1000.0
    metrics["client.retries"] = float(traced["client_retries"])
    metrics["edge.ingest_self_ms"] = mean_layer("ingest", "edge")
    metrics["edge.estimate_self_ms"] = mean_layer("estimate", "edge")
    for prefix, worker in (("", False), ("worker.", True)):
        metrics[f"{prefix}store.write_self_ms"] = (
            self_sum(("store.insert", "store.delete"), "ingest", worker) * 1000.0
        )
        metrics[f"{prefix}store.query_us"] = self_sum(("store.query",), "estimate", worker) * 1e6
        appends = durations("wal.append", worker)
        metrics[f"{prefix}wal.append_ms"] = _mean(appends) * 1000.0
        metrics[f"{prefix}wal.appends"] = float(len(appends))
        core_total = 0.0
        for op in ("insert", "delete"):
            for kind in KINDS:
                spans = [s for w, s, _ in measured[f"core.{op}"] if w == worker and s[6]["kind"] == kind]
                seconds = sum(s[3] - s[2] for s in spans)
                values = sum(s[6]["n"] for s in spans)
                core_total += seconds
                metrics[f"{prefix}core.{op}_ms_per_kvalue.{kind}"] = (
                    seconds * 1e6 / values if values else 0.0
                )
        metrics[f"{prefix}core.share_of_ingest"] = core_total / ingest_latency if ingest_latency else 0.0
    metrics["core.repartitions"] = float(traced["guard"]["core.repartitions"])
    metrics["coordinator.ingest_self_ms"] = mean_layer("ingest", "coordinator")
    metrics["coordinator.estimate_self_ms"] = mean_layer("estimate", "coordinator")
    metrics["coordinator.merged_self_ms"] = mean_layer("merged", "coordinator")
    rebuilds = len(measured["merge.superimpose"])
    metrics["coordinator.merge_rebuilds"] = float(rebuilds)
    merge_seconds = sum(
        s[3] - s[2] for name in ("merge.superimpose", "merge.reduce", "merge.decode") for _, s, _ in measured[name]
    )
    metrics["coordinator.merge_ms"] = merge_seconds * 1000.0 / rebuilds if rebuilds else 0.0
    metrics["coordinator.merged_estimate_p50_ms"] = plain_e2e["merged_estimate_p50_ms"]
    metrics["coordinator.merged_estimate_p90_ms"] = plain_e2e["merged_estimate_p90_ms"]
    leg_spans = [s for _, s, _ in measured["transport.leg"]]
    metrics["transport.leg_ms"] = _mean(s[3] - s[2] for s in leg_spans) * 1000.0
    metrics["transport.wire_ms"] = _mean(wires) * 1000.0
    scatters = [s for _, s, _ in measured["transport.scatter"]]
    hits = sum(1 for s in scatters if s[6]["hit"])
    metrics["transport.pipelined_ratio"] = hits / len(scatters) if scatters else 0.0
    metrics["transport.retries"] = float(len(everywhere["transport.retry"]))
    starts = [s[3] - s[2] for _, s in everywhere["supervisor.start"]]
    metrics["supervisor.start_s"] = starts[0] if starts else 0.0
    for kind in ("ingest", "estimate", "merged"):
        rids = by_kind[kind]
        metrics[f"budget.{kind}.unaccounted_ms"] = _mean(
            (requests[rid][2] - requests[rid][1]) - connect_time[rid] - handler.get(rid, 0.0)
            for rid in rids
        ) * 1000.0
    for name in ("ingest_p50_ms", "estimate_p50_ms", "merged_estimate_p50_ms", "ops_per_s"):
        metrics[f"trace_overhead.{name}"] = traced_e2e[name] - plain_e2e[name]

    # The traced pass must count exactly the work the untraced checks count:
    # merged-estimate generation changes and WAL records on disk.
    guard = traced["guard"]
    if rebuilds != guard["coordinator.merge_rebuilds"]:
        raise CheckFailed(
            f"{rebuilds} superimpose calls but {guard['coordinator.merge_rebuilds']} "
            "merged-estimate generation changes"
        )
    appends = metrics["wal.appends"] + metrics["worker.wal.appends"]
    if appends != guard["wal.appends"]:
        raise CheckFailed(f"{appends:g} traced WAL appends but {guard['wal.appends']} new WAL records")
    traced["layer_time"] = layer_time
    traced["connect_time"] = connect_time
    traced["by_kind"] = by_kind
    return metrics


_BUDGET_LAYERS = (
    "edge",
    "coordinator",
    "merge",
    "transport",
    "worker.rpc",
    "store",
    "wal",
    "core",
    "worker.store",
    "worker.wal",
    "worker.core",
)


def print_budget(workload: str, traced: dict, metrics: dict[str, float]) -> None:
    """Mean per-request time by layer for each request kind, and the
    prediction the benchmark makes for this workload."""
    requests = {rid: (kind, start, end) for rid, kind, start, end in traced["requests"]}
    layer_time, by_kind = traced["layer_time"], traced["by_kind"]
    print("== layer budget (traced pass; mean ms per request, self time)")
    shares = {}
    for kind in ("ingest", "estimate", "merged"):
        rids = by_kind[kind]
        if not rids:
            continue
        latency = _mean(requests[rid][2] - requests[rid][1] for rid in rids) * 1000.0
        row = {"client.connect": _mean(traced["connect_time"][rid] for rid in rids) * 1000.0}
        for layer in _BUDGET_LAYERS:
            row[layer] = _mean(layer_time[rid][layer] for rid in rids) * 1000.0
        row["unaccounted"] = metrics[f"budget.{kind}.unaccounted_ms"]
        shares[kind] = (latency, row)
        cells = ", ".join(f"{name} {value:.3f}" for name, value in row.items() if value)
        print(f"  {kind:<9} n={len(rids):<5} latency {latency:.3f} = {cells}")
    if workload == "optimizer_reads":
        latency, row = shares["estimate"]
        covered = row["edge"] + row["client.connect"]
        verdict = "holds" if covered > 0.5 * latency else "does NOT hold"
        print(
            f"prediction 'edge self + client connect is most of estimate latency' {verdict}: "
            f"{covered:.3f} of {latency:.3f} ms"
        )
    if workload == "stats_refresh":
        latency, row = shares["ingest"]
        core = row["core"] + row["worker.core"]
        others = {k: v for k, v in row.items() if k not in ("core", "worker.core")}
        largest = max(others, key=others.get)
        verdict = "holds" if core >= others[largest] else "does NOT hold"
        print(
            f"prediction 'core is the largest self-time share of ingest latency' {verdict}: "
            f"core {core:.3f} ms vs next largest {largest} {others[largest]:.3f} ms "
            f"of {latency:.3f} ms"
        )
