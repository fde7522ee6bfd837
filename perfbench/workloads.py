"""Seeded op sequences for the three benchmark workloads.

Every workload is a fixed list of requests generated from ``--seed`` before
any server starts, so the servers see only these inputs and every accuracy
metric and exact count repeats bit for bit on a repeat of the same seed.
The length of the measured phase is ``seconds x`` a nominal request rate per
workload (calibrated on a 2-core host), not a wall-clock deadline: a
deadline would make the applied prefix, and with it every accuracy metric,
depend on timing.

Request tuples:

* ``("ingest", attr, inserts, deletes)`` -- single-node ``ingest`` route;
* ``("batch", {attr: inserts})`` -- cluster ``ingest_batch`` route;
* ``("estimate", attr, low, high)`` -- ``estimate_range`` on an
  unpartitioned attribute;
* ``("merged", attr, low, high)`` -- ``estimate_range`` on the
  range-partitioned attribute (served from the merged histogram).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datagen.clusters import ClusterDistributionConfig, generate_cluster_values
from repro.metrics.distribution import DataDistribution
from repro.workloads.queries import data_distributed_range_queries, uniform_range_queries

DOMAIN = (0, 5000)  # the paper's attribute domain
MEMORY_KB = 1.0  # the paper's per-histogram budget
BATCH = 1024  # stats_refresh ingest batch
# DC maintenance costs about 40% of DVO/DADO maintenance per value, so DC
# attributes get 2.5 times the values per insert: every insert request then
# costs about the same and ingest latency is one mode, not a mixture whose
# median sits on the gap between a cheap and an expensive mode.
DC_BATCH_FACTOR = 2.5
DELETE_EVERY = 8  # every 8th request to an attribute is a delete batch
DRIFT = 2500  # upward shift of the value mean over one attribute's stream
PRELOAD_BATCHES = 20  # optimizer_reads: 1024-value batches per attribute in set-up
READ_BATCH = 64  # optimizer_reads: values in the insert after each estimate run
ESTIMATES_PER_INSERT = 10
CLUSTER_BATCH = 256  # cluster_partitioned: values per attribute per ingest_batch
HASHED_ESTIMATES = 3  # cluster_partitioned: hashed estimates after each merged one, round-robin

# Nominal request rates that make one measured phase last about ``seconds``
# on a 2-core host; fixed constants so the op count never depends on speed.
STATS_REFRESH_BATCHES_PER_S = 60
OPTIMIZER_ESTIMATES_PER_S = 850
CLUSTER_CYCLES_PER_S = 26

SINGLE_NODE_ATTRIBUTES = (
    ("dc_0", "dc"),
    ("dc_1", "dc"),
    ("dvo_0", "dvo"),
    ("dvo_1", "dvo"),
    ("dado_0", "dado"),
    ("dado_1", "dado"),
)
# Hashed names chosen so consistent hashing over shard-0/shard-1 puts one
# attribute of each kind on each shard; the partitioned DADO's three pieces
# are dealt shard-0, shard-1, shard-0.
CLUSTER_HASHED = (
    ("h0_dc", "dc"),
    ("h1_dc", "dc"),
    ("h0_dvo", "dvo"),
    ("h1_dvo", "dvo"),
    ("h0_dado", "dado"),
    ("h1_dado", "dado"),
)
CLUSTER_PARTITIONED = ("pa_dado", "dado")


@dataclass
class Workload:
    cluster: bool
    attributes: tuple[tuple[str, str], ...]
    partition: dict[str, list[float]] = field(default_factory=dict)
    preload: list[tuple] = field(default_factory=list)
    ops: list[tuple] = field(default_factory=list)
    probe: dict[str, list[dict]] = field(default_factory=dict)
    value_high: int = DOMAIN[1]


def _stream(layout: int, seed: int, n: int, drift: float) -> np.ndarray:
    """``n`` values sampled in random order from cluster layout ``layout``,
    their mean rising by ``drift`` over the stream.

    The layout (cluster centres, sizes and shapes: the paper's distribution
    with 2000 clusters over 0..5000) is fixed per attribute, and ``seed``
    draws the sample and its order.  Accuracy then varies between seeds only
    by sampling and arrival order, not by which distribution was drawn.
    """
    base = generate_cluster_values(ClusterDistributionConfig(domain=DOMAIN, seed=layout))
    values = np.random.default_rng([seed, layout]).choice(base, n)
    if drift:
        values = values + np.floor(np.arange(n) * (drift / n)).astype(values.dtype)
    return values


def _insert_size(kind: str, batch: int) -> int:
    return int(batch * DC_BATCH_FACTOR) if kind == "dc" else batch


def _range_from(rng: np.random.Generator, values: np.ndarray) -> tuple[float, float]:
    """A range whose endpoints are two values drawn from ``values``."""
    a, b = rng.choice(values, 2)
    return float(min(a, b)), float(max(a, b))


def _probe(rng: np.random.Generator, attributes, high: int) -> dict[str, list[dict]]:
    """The fixed estimate batch compared exactly across the restart."""
    probe = {}
    for name, _ in attributes:
        queries: list[dict] = [{"op": "total"}]
        for _ in range(8):
            a, b = sorted(rng.uniform(DOMAIN[0], high, 2))
            queries.append({"op": "range", "low": float(a), "high": float(b)})
        queries.append({"op": "cdf", "xs": np.linspace(DOMAIN[0], high, 16).tolist()})
        probe[name] = queries
    return probe


def stats_refresh(seed: int, seconds: int) -> Workload:
    n_requests = seconds * STATS_REFRESH_BATCHES_PER_S
    attrs = SINGLE_NODE_ATTRIBUTES
    per_attr = [len(range(i, n_requests, len(attrs))) for i in range(len(attrs))]
    rng = np.random.default_rng([seed, 1])
    streams, live, cursor = [], [], []
    sizes = [_insert_size(kind, BATCH) for _, kind in attrs]
    for index, count in enumerate(per_attr):
        inserts = sum(1 for j in range(count) if j % DELETE_EVERY != DELETE_EVERY - 1)
        streams.append(_stream(index, seed, max(inserts, 1) * sizes[index], DRIFT))
        live.append(np.empty(0, dtype=streams[-1].dtype))
        cursor.append(0)
    ops = []
    for i in range(n_requests):
        index = i % len(attrs)
        name = attrs[index][0]
        if (i // len(attrs)) % DELETE_EVERY == DELETE_EVERY - 1:
            chosen = rng.choice(len(live[index]), BATCH, replace=False)
            batch = live[index][chosen]
            live[index] = np.delete(live[index], chosen)
            ops.append(("ingest", name, [], batch.tolist()))
        else:
            batch = streams[index][cursor[index] : cursor[index] + sizes[index]]
            cursor[index] += sizes[index]
            live[index] = np.concatenate([live[index], batch])
            ops.append(("ingest", name, batch.tolist(), []))
        ops.append(("estimate", name, *_range_from(rng, batch)))
    high = int(max(s.max() for s in streams)) + 1
    return Workload(False, attrs, ops=ops, probe=_probe(rng, attrs, high), value_high=high)


def optimizer_reads(seed: int, seconds: int) -> Workload:
    n_estimates = seconds * OPTIMIZER_ESTIMATES_PER_S
    attrs = SINGLE_NODE_ATTRIBUTES
    n_inserts = n_estimates // ESTIMATES_PER_INSERT
    per_attr_reads = n_inserts // len(attrs) + 1
    preload_n = PRELOAD_BATCHES * BATCH
    sizes = [_insert_size(kind, READ_BATCH) for _, kind in attrs]
    streams = [
        _stream(index, seed, preload_n + per_attr_reads * sizes[index], DRIFT)
        for index in range(len(attrs))
    ]
    preload = [
        ("ingest", attrs[index][0], streams[index][b * BATCH : (b + 1) * BATCH].tolist(), [])
        for b in range(PRELOAD_BATCHES)
        for index in range(len(attrs))
    ]
    # Ranges from repro.workloads.queries: per attribute, half drawn from the
    # preloaded data distribution, half uniform over the drifted domain.
    high = int(max(s.max() for s in streams)) + 1
    per_attr_estimates = n_estimates // len(attrs) + 1
    ranges = []
    for index in range(len(attrs)):
        data = DataDistribution(streams[index][:preload_n])
        half = per_attr_estimates // 2 + 1
        distributed = data_distributed_range_queries(data, half, seed=seed * 100 + index)
        uniform = uniform_range_queries((DOMAIN[0], high), half, seed=seed * 100 + 50 + index)
        mixed = [q for pair in zip(distributed, uniform, strict=True) for q in pair]
        ranges.append([q.as_tuple() for q in mixed])
    ops = []
    read_cursor = [preload_n] * len(attrs)
    for i in range(n_estimates):
        index = i % len(attrs)
        low, high_q = ranges[index][i // len(attrs)]
        ops.append(("estimate", attrs[index][0], low, high_q))
        if i % ESTIMATES_PER_INSERT == ESTIMATES_PER_INSERT - 1:
            target = (i // ESTIMATES_PER_INSERT) % len(attrs)
            start = read_cursor[target]
            read_cursor[target] += sizes[target]
            batch = streams[target][start : start + sizes[target]].tolist()
            ops.append(("ingest", attrs[target][0], batch, []))
    rng = np.random.default_rng([seed, 2])
    return Workload(
        False,
        attrs,
        preload=preload,
        ops=ops,
        probe=_probe(rng, attrs, high),
        value_high=high,
    )


def cluster_partitioned(seed: int, seconds: int) -> Workload:
    n_cycles = seconds * CLUSTER_CYCLES_PER_S
    attrs = CLUSTER_HASHED + (CLUSTER_PARTITIONED,)
    # The values drift as in stats_refresh (on stationary data the KS error
    # of DVO and of the merged histogram varies threefold between seeds).
    # Cut points at the tertiles of the whole stream still leave both piece
    # shards values in every batch, so each merged estimate rebuilds the
    # merge from two fresh snapshots and its latency stays one mode.
    streams = {
        name: _stream(index, seed, n_cycles * CLUSTER_BATCH, DRIFT)
        for index, (name, _) in enumerate(attrs)
    }
    part_name = CLUSTER_PARTITIONED[0]
    cuts = np.quantile(streams[part_name], [1 / 3, 2 / 3])
    partition = {part_name: [float(np.floor(c)) + 0.5 for c in cuts]}
    rng = np.random.default_rng([seed, 3])
    ops = []
    for c in range(n_cycles):
        window = slice(c * CLUSTER_BATCH, (c + 1) * CLUSTER_BATCH)
        ops.append(("batch", {name: streams[name][window].tolist() for name, _ in attrs}))
        ops.append(("merged", part_name, *_range_from(rng, streams[part_name][window])))
        for k in range(HASHED_ESTIMATES):
            name = CLUSTER_HASHED[(c * HASHED_ESTIMATES + k) % len(CLUSTER_HASHED)][0]
            ops.append(("estimate", name, *_range_from(rng, streams[name][window])))
    high = int(max(s.max() for s in streams.values())) + 1
    return Workload(
        True,
        attrs,
        partition=partition,
        ops=ops,
        probe=_probe(rng, attrs, high),
        value_high=high,
    )


WORKLOADS = {
    "stats_refresh": stats_refresh,
    "optimizer_reads": optimizer_reads,
    "cluster_partitioned": cluster_partitioned,
}
