"""Frozen per-bucket reference of the Section 8 merge and the SSBM partition.

These are the list-of-``Bucket`` formulations of :func:`superimpose`,
:func:`reduce_segments` and :func:`ssbm_partition` (with the
:func:`segments_phi` they scored merges with) as they stood before the merge
became array-native.  ``tests/test_merge_reference.py`` asserts the library
versions stay bit-identical to them.  Do not "fix" or speed these up: their
only job is to pin the old float-op order.
"""

from __future__ import annotations

import heapq

import numpy as np

Segment = tuple[float, float, float]


def _segment_value_count(left: float, right: float, value_unit: float) -> float:
    width = right - left
    if width <= 0:
        return 1.0
    return max(width / value_unit, 1.0)


def segments_phi(segments: list[Segment], variance: bool, value_unit: float) -> float:
    if not segments:
        return 0.0
    value_counts = [
        _segment_value_count(left, right, value_unit) for left, right, _ in segments
    ]
    total_values = sum(value_counts)
    total_count = sum(count for _, _, count in segments)
    if total_values <= 0 or total_count <= 0:
        return 0.0
    average_frequency = total_count / total_values
    phi = 0.0
    for (_left, _right, count), n_values in zip(segments, value_counts, strict=True):
        deviation = count / n_values - average_frequency
        phi += n_values * (deviation * deviation if variance else abs(deviation))
    return phi


def superimpose(histograms) -> list[Segment]:
    """Union segments of the members' ``buckets()``, in (left, right) order."""
    border_values: list[float] = []
    point_masses = []
    interval_buckets = []
    for histogram in histograms:
        for bucket in histogram.buckets():
            if bucket.is_point_mass:
                point_masses.append(bucket)
            else:
                interval_buckets.append(bucket)
                border_values.extend((bucket.left, bucket.right))

    merged: list[Segment] = []
    if interval_buckets:
        borders = np.unique(np.asarray(border_values, dtype=float))
        lefts = np.asarray([bucket.left for bucket in interval_buckets], dtype=float)
        rights = np.asarray([bucket.right for bucket in interval_buckets], dtype=float)
        bucket_counts = np.asarray(
            [bucket.count for bucket in interval_buckets], dtype=float
        )
        densities = bucket_counts / (rights - lefts)
        starts = np.searchsorted(borders, lefts, side="left")
        ends = np.searchsorted(borders, rights, side="left")
        density_deltas = np.zeros(len(borders), dtype=float)
        np.add.at(density_deltas, starts, densities)
        np.add.at(density_deltas, ends, -densities)
        counts = np.maximum(np.cumsum(density_deltas[:-1]) * np.diff(borders), 0.0)
        merged.extend(
            (float(borders[i]), float(borders[i + 1]), float(counts[i]))
            for i in range(len(counts))
        )

    if point_masses:
        by_value: dict = {}
        for bucket in point_masses:
            by_value[bucket.left] = by_value.get(bucket.left, 0.0) + bucket.count
        merged.extend((float(value), float(value), count) for value, count in by_value.items())

    merged.sort(key=lambda segment: (segment[0], segment[1]))
    return merged


def reduce_segments(
    segments: list[Segment], n_buckets: int, *, variance: bool, value_unit: float
) -> list[Segment]:
    """Greedy SSBM-style reduction of ``segments`` to ``n_buckets`` segments."""
    if len(segments) <= n_buckets:
        return list(segments)
    n_segments = len(segments)
    start_of = list(range(n_segments))
    end_of = list(range(n_segments))
    next_group = [i + 1 for i in range(n_segments)]
    prev_group = [i - 1 for i in range(n_segments)]
    alive = [True] * n_segments
    version = [0] * n_segments

    def group_cost(left_group: int, right_group: int) -> float:
        merged_segments = segments[start_of[left_group] : end_of[right_group] + 1]
        return segments_phi(merged_segments, variance, value_unit)

    heap: list[tuple[float, int, int, int, int]] = []
    for group in range(n_segments - 1):
        heapq.heappush(heap, (group_cost(group, group + 1), group, group + 1, 0, 0))

    remaining = n_segments
    while remaining > n_buckets and heap:
        _, left_group, right_group, left_version, right_version = heapq.heappop(heap)
        if not (alive[left_group] and alive[right_group]):
            continue
        if version[left_group] != left_version or version[right_group] != right_version:
            continue
        if next_group[left_group] != right_group:
            continue
        end_of[left_group] = end_of[right_group]
        alive[right_group] = False
        version[left_group] += 1
        successor = next_group[right_group]
        next_group[left_group] = successor
        if successor < n_segments:
            prev_group[successor] = left_group
        remaining -= 1
        predecessor = prev_group[left_group]
        if predecessor >= 0:
            heapq.heappush(
                heap,
                (
                    group_cost(predecessor, left_group),
                    predecessor,
                    left_group,
                    version[predecessor],
                    version[left_group],
                ),
            )
        if successor < n_segments:
            heapq.heappush(
                heap,
                (
                    group_cost(left_group, successor),
                    left_group,
                    successor,
                    version[left_group],
                    version[successor],
                ),
            )

    reduced: list[Segment] = []
    group = 0
    while group < n_segments:
        if alive[group]:
            covered = segments[start_of[group] : end_of[group] + 1]
            reduced.append(
                (
                    covered[0][0],
                    max(segment[1] for segment in covered),
                    sum(segment[2] for segment in covered),
                )
            )
            group = next_group[group]
        else:
            group += 1
    return reduced


def ssbm_partition(
    frequencies: np.ndarray,
    n_buckets: int,
    variance: bool,
    weights: np.ndarray | None = None,
) -> list[tuple[int, int]]:
    """Greedy SSBM partition into inclusive ``(start, end)`` element ranges."""
    freqs = np.asarray(frequencies, dtype=float)
    n_values = len(freqs)
    if n_values == 0:
        return []
    if n_buckets >= n_values:
        return [(i, i) for i in range(n_values)]
    w = np.ones(n_values, dtype=float) if weights is None else np.asarray(weights, dtype=float)
    prefix_w = np.concatenate(([0.0], np.cumsum(w)))
    prefix_wf = np.concatenate(([0.0], np.cumsum(w * freqs)))
    prefix_wff = np.concatenate(([0.0], np.cumsum(w * freqs * freqs)))

    def merged_cost(start: int, end: int) -> float:
        seg_w = prefix_w[end + 1] - prefix_w[start]
        seg_wf = prefix_wf[end + 1] - prefix_wf[start]
        if variance:
            seg_wff = prefix_wff[end + 1] - prefix_wff[start]
            return max(seg_wff - seg_wf * seg_wf / seg_w, 0.0)
        mean = seg_wf / seg_w
        segment = slice(start, end + 1)
        return float(np.sum(w[segment] * np.abs(freqs[segment] - mean)))

    start_of = list(range(n_values))
    end_of = list(range(n_values))
    next_bucket: list[int | None] = [
        i + 1 if i + 1 < n_values else None for i in range(n_values)
    ]
    prev_bucket: list[int | None] = [i - 1 if i > 0 else None for i in range(n_values)]
    version = [0] * n_values
    alive = [True] * n_values

    heap: list[tuple[float, int, int, int, int]] = []
    for bucket_id in range(n_values - 1):
        cost = merged_cost(start_of[bucket_id], end_of[bucket_id + 1])
        heapq.heappush(
            heap, (cost, bucket_id, bucket_id + 1, version[bucket_id], version[bucket_id + 1])
        )

    remaining = n_values
    while remaining > n_buckets and heap:
        cost, left_id, right_id, left_version, right_version = heapq.heappop(heap)
        if not (alive[left_id] and alive[right_id]):
            continue
        if version[left_id] != left_version or version[right_id] != right_version:
            continue
        if next_bucket[left_id] != right_id:
            continue
        end_of[left_id] = end_of[right_id]
        alive[right_id] = False
        version[left_id] += 1
        successor = next_bucket[right_id]
        next_bucket[left_id] = successor
        if successor is not None:
            prev_bucket[successor] = left_id
        remaining -= 1
        predecessor = prev_bucket[left_id]
        if predecessor is not None:
            new_cost = merged_cost(start_of[predecessor], end_of[left_id])
            heapq.heappush(
                heap, (new_cost, predecessor, left_id, version[predecessor], version[left_id])
            )
        if successor is not None:
            new_cost = merged_cost(start_of[left_id], end_of[successor])
            heapq.heappush(
                heap, (new_cost, left_id, successor, version[left_id], version[successor])
            )

    partition: list[tuple[int, int]] = []
    bucket_id: int | None = 0
    while bucket_id is not None:
        if alive[bucket_id]:
            partition.append((start_of[bucket_id], end_of[bucket_id]))
        bucket_id = next_bucket[bucket_id]
    return partition
