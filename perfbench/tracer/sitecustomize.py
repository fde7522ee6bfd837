"""Span recorder for the benchmark's traced run.

Put this directory on ``PYTHONPATH`` and set ``PERFBENCH_TRACE_DIR``: every
Python process started with that environment -- the ``serve`` or
``serve-cluster`` server and the shard workers the supervisor spawns, which
inherit ``PYTHONPATH`` -- wraps the public entry points of each layer at
interpreter start-up and writes its spans to
``$PERFBENCH_TRACE_DIR/spans-<pid>.json`` when it exits.  Nothing under
``src/`` is modified; without ``PERFBENCH_TRACE_DIR`` this module does
nothing.

A span is ``[id, name, start, end, parent, request_id, extra]``: times are
``time.perf_counter()`` seconds (CLOCK_MONOTONIC, so spans of different
processes on one host share a time base), ``parent`` is the id of the
enclosing span on the same thread or ``-1``, and ``request_id`` is the
``X-Repro-Trace-Id`` the benchmark client sends with each request, which
the servers propagate to the workers.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import sys
import threading
import time

_DIR = os.environ.get("PERFBENCH_TRACE_DIR")
_spans: list[list] = []
_ids = itertools.count()
_local = threading.local()
_rid_from_trace = None  # repro.obs.trace.current_trace_id, bound by _install


def _wrap(owner, attribute, name, *, rid=None, extra=None):
    """Replace ``owner.attribute`` with a span-recording wrapper.

    ``rid(args)`` gives the request id (default: the active trace id) and
    ``extra(args, result)`` a small dict stored with the span.
    """
    original = getattr(owner, attribute)

    def wrapper(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        span_id = next(_ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        result = None
        start = time.perf_counter()
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            # After the call: the request headers exist only once parsed.
            request_id = rid(args) if rid is not None else _rid_from_trace()
            _spans.append(
                [
                    span_id,
                    name,
                    start,
                    end,
                    parent,
                    request_id,
                    extra(args, result) if extra is not None else None,
                ]
            )

    wrapper.__wrapped__ = original
    setattr(owner, attribute, wrapper)


def _values_extra(args, _result):
    return {"kind": type(args[0]).__name__.replace("Histogram", "").lower(), "n": len(args[1])}


def _install() -> None:
    global _rid_from_trace
    from repro.cluster import coordinator, server as cluster_server, supervisor, transport
    from repro.core.base import DynamicHistogram
    from repro.core.dynamic_compressed import DCHistogram
    from repro.core.dynamic_vopt import DVOHistogram
    from repro.obs.trace import TRACE_HEADER, current_trace_id
    from repro.service import server as service_server, store, wal

    _rid_from_trace = current_trace_id

    def header_rid(args):
        headers = getattr(args[0], "headers", None)
        return headers.get(TRACE_HEADER) if headers is not None else None

    def path_extra(args, _result):
        return {"path": args[0].path}

    # HTTP edge: header parsing, then the handler's dispatch through the
    # response write.  Reading the request line, accepting the connection
    # and starting its handler thread stay outside (unaccounted).
    for handler in (service_server._ServiceRequestHandler, cluster_server._ClusterRequestHandler):
        _wrap(handler, "parse_request", "edge.parse", rid=header_rid)
    _wrap(service_server._ServiceRequestHandler, "_handle", "edge", rid=header_rid, extra=path_extra)
    _wrap(cluster_server._ClusterRequestHandler, "_handle", "edge", rid=header_rid, extra=path_extra)

    # Coordinator entry points and the merge it runs for partitioned reads.
    # superimpose / reduce_segments / histogram_from_dict / try_pipelined_scatter
    # are imported by name into the coordinator module, so they are patched there.
    _wrap(coordinator.ClusterCoordinator, "ingest_batch", "coordinator")
    _wrap(coordinator.ClusterCoordinator, "query", "coordinator")
    _wrap(coordinator, "superimpose", "merge.superimpose")
    _wrap(coordinator, "reduce_segments", "merge.reduce")
    _wrap(coordinator, "histogram_from_dict", "merge.decode")
    _wrap(
        coordinator,
        "try_pipelined_scatter",
        "transport.scatter",
        extra=lambda _args, result: {"hit": result is not None},
    )

    # Transport legs: blocking ProcessShard calls, and the per-leg elapsed
    # times the pipelined scatter reports (one span per leg, from the
    # scatter's start).
    _wrap(
        transport.ProcessShard,
        "_call",
        "transport.leg",
        extra=lambda args, _result: {"shard": args[0].shard_id, "op": args[1]},
    )
    execute_scatter = transport._execute_scatter

    def traced_execute_scatter(legs):
        request_id = _rid_from_trace()
        start = time.perf_counter()
        outcomes = execute_scatter(legs)
        for shard_id, (_ok, _value, elapsed) in outcomes.items():
            _spans.append(
                [
                    next(_ids),
                    "transport.leg",
                    start,
                    start + elapsed,
                    -1,
                    request_id,
                    {"shard": shard_id, "op": legs[shard_id][1][0], "pipelined": True},
                ]
            )
        return outcomes

    transport._execute_scatter = traced_execute_scatter
    _wrap(transport.BinaryShardClient, "_record_backoff", "transport.retry")
    _wrap(
        transport.BinaryShardServer,
        "_respond",
        "worker.rpc",
        rid=lambda args: args[1].get("trace"),
        extra=lambda args, _result: {"shard": args[0].backend.shard_id, "op": args[1].get("op")},
    )
    _wrap(supervisor.ShardSupervisor, "start", "supervisor.start")

    # Store, WAL and histogram core.
    for method in ("insert", "delete", "query", "stats", "snapshot"):
        _wrap(store.HistogramStore, method, f"store.{method}")
    _wrap(wal.WriteAheadLog, "append", "wal.append")
    # DC and DVO each override insert_many (DADO inherits DVO's); delete_many
    # is the shared template over each class's _delete_many hook.
    _wrap(DCHistogram, "insert_many", "core.insert", extra=_values_extra)
    _wrap(DVOHistogram, "insert_many", "core.insert", extra=_values_extra)
    _wrap(DynamicHistogram, "delete_many", "core.delete", extra=_values_extra)


def _dump() -> None:
    spans = list(_spans)
    path = os.path.join(_DIR, f"spans-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"pid": os.getpid(), "argv": sys.argv, "spans": spans}, handle)


if _DIR:
    _install()
    atexit.register(_dump)
