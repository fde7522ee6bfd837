"""Superposition and reduction of histograms (Section 8).

*Superposition* builds a union histogram whose borders are the union of the
member histograms' borders; every member bucket is sliced at those borders
under the uniform assumption, so no information beyond what the members
already lost is discarded -- the union histogram is exactly as precise as the
member histograms.  The price is a bucket count that grows with the number of
members, so the paper *reduces* the union histogram back to the memory budget
by treating it as a data set and merging similar neighbouring buckets with the
SSBM technique.

Both operators work on arrays (the members' segment views, the union's
:class:`~repro.core.bucket_array.BucketArray`), not on ``Bucket`` objects, and
both are **bit-exact** against the per-bucket formulation: a cluster's cached
merge must equal a from-scratch one, and one last-bit change in a reduce cost
can pick a different pair.  So the reduce cost repeats
:func:`~repro.core.deviation.segments_phi` operation for operation, and every
sum feeding a cost or a merged count is taken in segment order exactly as the
per-bucket code takes it: builtin ``sum`` over a list, or an explicit
left-to-right loop.  Never ``np.sum`` (pairwise) and never a prefix-sum
difference.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from .._validation import require_positive_float
from ..core.base import Histogram
from ..core.bucket_array import BucketArray
from ..core.deviation import DeviationMetric
from ..exceptions import ConfigurationError
from ..static.base import StaticHistogram
from ..static.ssbm import merge_adjacent

__all__ = ["UnionHistogram", "superimpose", "reduce_segments"]


class UnionHistogram(StaticHistogram):
    """A histogram produced by superimposing (and optionally reducing) members.

    Built straight from ascending ``(lefts, rights, counts)`` segment arrays.
    Unlike other static histograms, a union may be *empty*: a live cluster
    legitimately superimposes shards that have not received data yet, and the
    merged global histogram must still answer estimates (all zero) rather than
    fail.  Every derived read path handles the empty case already.
    """

    def __init__(self, lefts: np.ndarray, rights: np.ndarray, counts: np.ndarray) -> None:
        self._array = BucketArray(lefts, rights, counts)
        self.segment_view()


def superimpose(histograms: Sequence[Histogram]) -> UnionHistogram:
    """Superimpose member histograms into one union histogram.

    The result has a bucket border wherever any member has one; member bucket
    mass is split across the finer borders under the uniform assumption and
    added up.  Total count equals the sum of the member totals.
    """
    if not histograms:
        raise ConfigurationError("superimpose requires at least one histogram")
    views = [histogram.segment_view() for histogram in histograms]

    lefts = np.concatenate([view.reg_lefts for view in views])
    rights = np.concatenate([view.reg_rights for view in views])
    if lefts.size:
        borders = np.unique(np.stack((lefts, rights), axis=1).ravel())
        # Vectorised overlap computation: every member bucket's borders are in
        # the union border array, so each slot it covers is covered fully and
        # receives slot_width * bucket_density mass.  Accumulate per-bucket
        # densities as +density at the bucket's first slot and -density one
        # past its last; the running sum is then the stacked density of every
        # slot, without any per-bucket inner loop over slots.
        densities = np.concatenate([view.reg_counts for view in views]) / (rights - lefts)
        starts = np.searchsorted(borders, lefts, side="left")
        ends = np.searchsorted(borders, rights, side="left")
        density_deltas = np.zeros(len(borders), dtype=float)
        np.add.at(density_deltas, starts, densities)
        np.add.at(density_deltas, ends, -densities)
        # Cancellation in the running sum can leave slots covered by no bucket
        # at a tiny negative density instead of exactly zero; clamp them.
        slot_counts = np.maximum(np.cumsum(density_deltas[:-1]) * np.diff(borders), 0.0)
        slot_lefts, slot_rights = borders[:-1], borders[1:]
    else:
        slot_counts = slot_lefts = slot_rights = np.empty(0, dtype=float)

    # Combine point masses that share the same value, in member order.
    by_value: dict[float, float] = {}
    for view in views:
        for value, count in zip(view.pm_values.tolist(), view.pm_counts.tolist(), strict=True):
            by_value[value] = by_value.get(value, 0.0) + count
    point_values = np.fromiter(by_value, dtype=float, count=len(by_value))
    point_counts = np.fromiter(by_value.values(), dtype=float, count=len(by_value))

    # Interleave slots and point masses in (left, right) order; lexsort is
    # stable, so (unreachable) ties keep slots first.  All members empty
    # (freshly created shards) gives an empty union.
    lefts = np.concatenate((slot_lefts, point_values))
    rights = np.concatenate((slot_rights, point_values))
    order = np.lexsort((rights, lefts))
    return UnionHistogram(
        lefts[order], rights[order], np.concatenate((slot_counts, point_counts))[order]
    )


def reduce_segments(
    histogram: Histogram,
    n_buckets: int,
    *,
    metric: DeviationMetric | str = DeviationMetric.VARIANCE,
    value_unit: float = 1.0,
) -> UnionHistogram:
    """Reduce a histogram to ``n_buckets`` buckets by SSBM-style merging.

    The histogram's segments are treated as the data set to be partitioned:
    neighbouring groups of segments are successively merged, always choosing
    the pair of adjacent groups whose combined phi (Eq. 4) is smallest, until
    the target bucket count is reached.
    """
    if n_buckets < 1:
        raise ConfigurationError(f"n_buckets must be positive, got {n_buckets}")
    metric = DeviationMetric.coerce(metric)
    value_unit = require_positive_float(value_unit, "value_unit")
    if isinstance(histogram, StaticHistogram):
        array = histogram.bucket_array
        lefts, rights, counts = array.lefts, array.rights, array.sub_counts[:, 0]
    else:
        buckets = histogram.buckets()
        lefts = np.asarray([bucket.left for bucket in buckets], dtype=float)
        rights = np.asarray([bucket.right for bucket in buckets], dtype=float)
        counts = np.asarray([bucket.count for bucket in buckets], dtype=float)
    n_segments = len(lefts)
    # Target budget at or above the current segment count (which covers an
    # empty union and any single-bucket one): nothing to merge.
    if n_segments <= n_buckets:
        return UnionHistogram(lefts, rights, counts)

    pair_costs, run_cost = _merge_costs(lefts, rights, counts, metric, value_unit)
    runs = merge_adjacent(n_segments, n_buckets, run_cost, pair_costs)
    right_list = rights.tolist()
    count_list = counts.tolist()
    return UnionHistogram(
        np.asarray([lefts[start] for start, _ in runs], dtype=float),
        np.asarray([max(right_list[start : end + 1]) for start, end in runs], dtype=float),
        np.asarray([sum(count_list[start : end + 1]) for start, end in runs], dtype=float),
    )


def _merge_costs(
    lefts: np.ndarray,
    rights: np.ndarray,
    counts: np.ndarray,
    metric: DeviationMetric,
    value_unit: float,
) -> tuple[list[float], Callable[[int, int], float]]:
    """The reduce's merge costs: :func:`segments_phi` of segment runs, bit for bit.

    Returns the cost of every adjacent pair of segments, and a function giving
    the cost of the inclusive run ``[start, end]``.  Per-segment value counts
    (``_segment_value_count``) and frequencies are computed once, not per
    call.  Every segment counts at least one value, so a values total is
    always positive and only a zero count total takes segments_phi's early
    return (cost 0).
    """
    widths = rights - lefts
    value_counts = np.where(widths <= 0, 1.0, np.maximum(widths / value_unit, 1.0))
    frequencies = counts / value_counts
    variance = metric is DeviationMetric.VARIANCE

    # Pair costs, elementwise: for two segments the sequential sums are single
    # additions.
    pair_values = value_counts[:-1] + value_counts[1:]
    pair_counts = counts[:-1] + counts[1:]
    average = pair_counts / pair_values
    first = frequencies[:-1] - average
    second = frequencies[1:] - average
    if variance:
        first, second = first * first, second * second
    else:
        first, second = np.abs(first), np.abs(second)
    pair_phis = value_counts[:-1] * first + value_counts[1:] * second
    pair_costs = np.where(pair_counts <= 0, 0.0, pair_phis).tolist()

    value_list = value_counts.tolist()
    count_list = counts.tolist()
    frequency_list = frequencies.tolist()

    def run_cost(start: int, end: int) -> float:
        stop = end + 1
        run_values = value_list[start:stop]
        total_count = sum(count_list[start:stop])
        if total_count <= 0:
            return 0.0
        average = total_count / sum(run_values)
        phi = 0.0
        if variance:
            for frequency, n_values in zip(frequency_list[start:stop], run_values, strict=True):
                deviation = frequency - average
                phi += n_values * (deviation * deviation)
        else:
            for frequency, n_values in zip(frequency_list[start:stop], run_values, strict=True):
                phi += n_values * abs(frequency - average)
        return phi

    return pair_costs, run_cost
