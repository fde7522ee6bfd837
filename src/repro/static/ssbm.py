"""Successive Similar Bucket Merge (SSBM) static histogram (Section 5).

SSBM starts from the exact histogram (one bucket per non-empty distinct value)
and repeatedly merges the neighbouring pair of buckets whose *merged* deviation
phi_M (Eq. 4) is smallest, until only the requested number of buckets remains.
Because construction happens while the full data is available, phi_M is
evaluated over the exact per-value frequencies of the values covered by the
candidate pair, with absent domain values contributing frequency zero (they
are compressed into weighted gap elements, see
:func:`repro.static.base.frequency_elements`).

With a lazy priority queue the construction costs O(V log V) heap operations
plus O(1) phi evaluations for the variance metric (via weighted prefix sums) --
far cheaper than the V-Optimal dynamic program, which is exactly the cost gap
Figure 13 of the paper illustrates.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence

import numpy as np

from ..core.deviation import DeviationMetric
from ..metrics.distribution import DataDistribution
from .base import StaticHistogram, frequency_elements, value_range_bucket

__all__ = ["SSBMHistogram", "merge_adjacent", "ssbm_partition"]


def ssbm_partition(
    frequencies: np.ndarray,
    n_buckets: int,
    metric: DeviationMetric | str = DeviationMetric.VARIANCE,
    *,
    weights: np.ndarray | None = None,
) -> list[tuple[int, int]]:
    """Greedy SSBM partition of a weighted frequency sequence into buckets.

    Element ``i`` stands for ``weights[i]`` domain values, each with frequency
    ``frequencies[i]`` (weight 1 and no gaps reduces to the plain per-value
    case).  Returns inclusive ``(start_index, end_index)`` pairs.  If
    ``n_buckets`` is at least the number of elements the partition is exact.
    """
    metric = DeviationMetric.coerce(metric)
    freqs = np.asarray(frequencies, dtype=float)
    n_values = len(freqs)
    if n_values == 0:
        return []
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be positive, got {n_buckets}")
    if n_buckets >= n_values:
        return [(i, i) for i in range(n_values)]

    if weights is None:
        w = np.ones(n_values, dtype=float)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != freqs.shape:
            raise ValueError("weights must have the same shape as frequencies")

    prefix_w = np.concatenate(([0.0], np.cumsum(w)))
    prefix_wf = np.concatenate(([0.0], np.cumsum(w * freqs)))
    prefix_wff = np.concatenate(([0.0], np.cumsum(w * freqs * freqs)))

    def merged_cost(start: int, end: int) -> float:
        """phi of the elements [start, end] around their own average frequency."""
        seg_w = prefix_w[end + 1] - prefix_w[start]
        seg_wf = prefix_wf[end + 1] - prefix_wf[start]
        if metric is DeviationMetric.VARIANCE:
            seg_wff = prefix_wff[end + 1] - prefix_wff[start]
            return max(seg_wff - seg_wf * seg_wf / seg_w, 0.0)
        mean = seg_wf / seg_w
        segment = slice(start, end + 1)
        return float(np.sum(w[segment] * np.abs(freqs[segment] - mean)))

    return merge_adjacent(n_values, n_buckets, merged_cost)


def merge_adjacent(
    n_elements: int,
    n_buckets: int,
    merged_cost: Callable[[int, int], float],
    pair_costs: Sequence[float] | None = None,
) -> list[tuple[int, int]]:
    """Greedily merge adjacent runs of ``n_elements`` elements into ``n_buckets``.

    Every element starts as its own run; the adjacent pair of runs whose
    ``merged_cost(start, end)`` (inclusive element range of the would-be
    merged run) is smallest is merged next, until ``n_buckets`` runs remain.
    ``pair_costs[i]``, when given, must equal ``merged_cost(i, i + 1)``; it
    lets a caller compute the opening pair costs in bulk.  Costs must not be
    NaN: ties break on the run indices, so the outcome depends only on the
    costs.  Returns the inclusive ``(start, end)`` element range of each run.
    """
    if pair_costs is None:
        pair_costs = [merged_cost(i, i + 1) for i in range(n_elements - 1)]
    # Lazy priority queue over a doubly linked list of runs, each named by its
    # first element.  A merge bumps the version of both runs, which makes
    # every queued entry that names either of them stale.
    end_of = list(range(n_elements))
    next_run = list(range(1, n_elements + 1))
    prev_run = list(range(-1, n_elements - 1))
    version = [0] * n_elements
    heap = [(cost, run, run + 1, 0, 0) for run, cost in enumerate(pair_costs)]
    heapq.heapify(heap)

    remaining = n_elements
    while remaining > n_buckets and heap:
        _, left, right, left_version, right_version = heapq.heappop(heap)
        if version[left] != left_version or version[right] != right_version:
            continue
        end_of[left] = end_of[right]
        version[left] += 1
        version[right] += 1
        successor = next_run[left] = next_run[right]
        if successor < n_elements:
            prev_run[successor] = left
        remaining -= 1
        predecessor = prev_run[left]
        if predecessor >= 0:
            cost = merged_cost(predecessor, end_of[left])
            heapq.heappush(heap, (cost, predecessor, left, version[predecessor], version[left]))
        if successor < n_elements:
            cost = merged_cost(left, end_of[successor])
            heapq.heappush(heap, (cost, left, successor, version[left], version[successor]))

    runs: list[tuple[int, int]] = []
    run = 0
    while run < n_elements:
        runs.append((run, end_of[run]))
        run = next_run[run]
    return runs


class SSBMHistogram(StaticHistogram):
    """Successive-Similar-Bucket-Merge histogram with a configurable phi metric."""

    #: Deviation metric used to pick the most similar neighbouring pair.
    metric = DeviationMetric.VARIANCE

    @classmethod
    def build(
        cls,
        data: DataDistribution,
        n_buckets: int,
        *,
        metric: DeviationMetric | str | None = None,
        value_unit: float = 1.0,
        include_gaps: bool = True,
    ) -> SSBMHistogram:
        """Build an SSBM histogram with ``n_buckets`` buckets.

        ``value_unit`` and ``include_gaps`` control whether absent domain
        values participate as zero frequencies (they do by default, matching
        the paper's deviation definition).
        """
        cls._validate_bucket_budget(n_buckets)
        starts, ends, frequencies, weights = frequency_elements(
            data, value_unit=value_unit, include_gaps=include_gaps
        )
        chosen_metric = cls.metric if metric is None else DeviationMetric.coerce(metric)
        partition = ssbm_partition(frequencies, n_buckets, chosen_metric, weights=weights)
        buckets = []
        for start, end in partition:
            count = float(np.dot(frequencies[start : end + 1], weights[start : end + 1]))
            buckets.append(
                value_range_bucket(
                    float(starts[start]), float(ends[end]), count, value_unit=value_unit
                )
            )
        return cls(buckets)
