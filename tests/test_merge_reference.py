"""The array-native merge is bit-identical to the frozen per-bucket reference.

``superimpose`` reads the members' segment views, ``reduce_segments`` scores
groups from precomputed per-segment arrays, and ``ssbm_partition`` runs the
shared ``merge_adjacent`` loop.  Each must reproduce the pre-array
formulation in ``tests/reference_merge.py`` down to the last bit of every
``(left, right, count)``: the greedy merge compares float costs, so any
float-op reordering can pick a different pair.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_merge import reduce_segments as reference_reduce
from reference_merge import segments_phi as reference_phi
from reference_merge import ssbm_partition as reference_partition
from reference_merge import superimpose as reference_superimpose

from repro.core.deviation import DeviationMetric
from repro.distributed.union import UnionHistogram, _merge_costs, reduce_segments, superimpose
from repro.persistence import histogram_from_dict
from repro.static.ssbm import ssbm_partition

#: Borders on a quarter grid: with value units of 0.5 to 2.5 this yields
#: widths below, at and above one unit (DVO/DADO expose a bucket no wider
#: than one unit as a point mass at the snapped value).
GRID = 0.25
COUNTS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=50).map(float),
)


def _bits(rows) -> list[int]:
    return np.asarray(rows, dtype=float).reshape(-1).view(np.int64).tolist()


def _rows(histogram: UnionHistogram) -> list[tuple[float, float, float]]:
    array = histogram.bucket_array
    return list(
        zip(
            array.lefts.tolist(),
            array.rights.tolist(),
            array.sub_counts[:, 0].tolist(),
            strict=True,
        )
    )


@st.composite
def members(draw, value_unit: float):
    """One serialised DC, DVO or DADO member (possibly empty or still loading)."""
    kind = draw(st.sampled_from(["dc", "dvo", "dado"]))
    offset = draw(st.integers(min_value=0, max_value=200))
    shape = draw(st.sampled_from(["buckets", "buckets", "buckets", "loading", "empty"]))
    common = {"format_version": 1, "kind": kind, "value_unit": value_unit}
    if kind == "dc":
        state = {**common, "bucket_budget": 8, "alpha_min": 1e-6}
    else:
        k = draw(st.sampled_from([1, 2, 3]))
        state = {
            **common,
            "bucket_budget": 8,
            "sub_buckets": k,
            "repartition_threshold": 0.0,
        }
    if shape == "empty":
        return histogram_from_dict({**state, "loading": []})
    if shape == "loading":
        steps = draw(st.lists(st.integers(0, 120), min_size=1, max_size=6, unique=True))
        counts = draw(st.lists(st.integers(1, 9), min_size=len(steps), max_size=len(steps)))
        loading = sorted(((offset + s) * GRID, c) for s, c in zip(steps, counts, strict=True))
        return histogram_from_dict({**state, "loading": loading})

    n = draw(st.integers(min_value=1, max_value=8))
    if kind == "dc":
        widths = draw(st.lists(st.integers(1, 24), min_size=n, max_size=n))
        edges = np.cumsum([offset] + widths) * GRID
        singular = draw(
            st.lists(st.tuples(st.integers(0, 300), COUNTS), max_size=3, unique_by=lambda t: t[0])
        )
        return histogram_from_dict(
            {
                **state,
                "lefts": edges[:-1].tolist(),
                "counts": draw(st.lists(COUNTS, min_size=n, max_size=n)),
                "right": float(edges[-1]),
                "singular": sorted((s * GRID, c) for s, c in singular),
            }
        )
    # DVO / DADO rows: point masses (width 0), narrow buckets that collapse
    # to a point mass, wide buckets, and gaps between neighbours.
    rows = []
    position = offset
    for _ in range(n):
        position += draw(st.integers(0, 6))  # 0 = shares the border, else a gap
        width = draw(st.sampled_from([0, 1, 2, 4, 9, 20]))
        sub = draw(st.lists(COUNTS, min_size=state["sub_buckets"], max_size=state["sub_buckets"]))
        rows.append([position * GRID, (position + width) * GRID, sub])
        position += width
        if width == 0:
            position += 1  # two point masses never share a value in one member
    return histogram_from_dict({**state, "buckets": rows})


@st.composite
def merge_cases(draw):
    value_unit = draw(st.sampled_from([0.5, 1.0, 2.5]))
    histograms = draw(st.lists(members(value_unit), min_size=1, max_size=4))
    return value_unit, histograms


@given(merge_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_superimpose_and_reduce_match_reference_bit_for_bit(case, data):
    value_unit, histograms = case
    union = superimpose(histograms)
    expected_union = reference_superimpose(histograms)
    assert _bits(_rows(union)) == _bits(expected_union)

    n_segments = len(expected_union)
    for n_buckets in data.draw(
        st.lists(st.integers(1, n_segments + 1), min_size=1, max_size=3), label="n_buckets"
    ):
        for metric in ("variance", "absolute"):
            reduced = reduce_segments(union, n_buckets, metric=metric, value_unit=value_unit)
            expected = reference_reduce(
                expected_union,
                n_buckets,
                variance=metric == "variance",
                value_unit=value_unit,
            )
            assert _bits(_rows(reduced)) == _bits(expected), (n_buckets, metric)


@given(merge_cases(), st.integers(1, 12), st.sampled_from(["variance", "absolute"]))
@settings(max_examples=60, deadline=None)
def test_reduce_of_a_dynamic_member_matches_reference(case, n_buckets, metric):
    # A non-static input goes through its exposed buckets(), point masses
    # interleaved with the sub-range segments.
    value_unit, histograms = case
    member = histograms[0]
    segments = [(b.left, b.right, b.count) for b in member.buckets()]
    reduced = reduce_segments(member, n_buckets, metric=metric, value_unit=value_unit)
    expected = reference_reduce(
        segments, n_buckets, variance=metric == "variance", value_unit=value_unit
    )
    assert _bits(_rows(reduced)) == _bits(expected)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),  # gap before the segment, in quarter units
            st.just(0) | st.integers(1, 400),  # width: 0 is a point mass
            st.floats(min_value=1e-3, max_value=1e7, allow_nan=False) | st.just(0.0),
        ),
        min_size=2,
        max_size=40,
    ),
    st.sampled_from([0.5, 1.0, 2.5]),
    st.sampled_from(list(DeviationMetric)),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_merge_costs_are_segments_phi_bit_for_bit(spec, value_unit, metric, data):
    # Counts spanning ten decades and value counts that are not dyadic make a
    # total taken any other way (np.sum, prefix sums, math.fsum) differ from
    # builtin sum's in the last bits, so this pins the float-op order of
    # every cost the greedy loop compares.
    segments = []
    position = 0
    for gap, width, count in spec:
        position += gap
        segments.append((position * GRID, (position + width) * GRID, count))
        position += width
    lefts, rights, counts = (
        np.asarray(column, dtype=float) for column in zip(*segments, strict=True)
    )
    pair_costs, run_cost = _merge_costs(lefts, rights, counts, metric, value_unit)
    variance = metric is DeviationMetric.VARIANCE
    expected_pairs = [
        reference_phi(segments[i : i + 2], variance, value_unit) for i in range(len(segments) - 1)
    ]
    assert _bits(pair_costs) == _bits(expected_pairs)
    start = data.draw(st.integers(0, len(segments) - 2), label="start")
    for end in range(start + 1, len(segments)):
        expected = reference_phi(segments[start : end + 1], variance, value_unit)
        assert _bits([run_cost(start, end)]) == _bits([expected]), (start, end)


@given(
    st.lists(
        st.tuples(COUNTS, st.sampled_from([1.0, 1.0, 2.0, 7.0])), min_size=1, max_size=60
    ),
    st.data(),
    st.sampled_from(["variance", "absolute"]),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_ssbm_partition_matches_reference(elements, data, metric, weighted):
    frequencies = np.asarray([f for f, _ in elements], dtype=float)
    weights = np.asarray([w for _, w in elements], dtype=float) if weighted else None
    n_buckets = data.draw(st.integers(1, len(elements) + 1), label="n_buckets")
    assert ssbm_partition(frequencies, n_buckets, metric, weights=weights) == (
        reference_partition(frequencies, n_buckets, metric == "variance", weights)
    )


@pytest.mark.parametrize("n_buckets", [8, 64, 200])
@pytest.mark.parametrize("metric", ["variance", "absolute"])
def test_workload_shaped_merge_matches_reference(n_buckets, metric):
    # Three DADO pieces of one drifting clustered stream, split at its
    # tertiles, through a JSON round trip: the cluster's merged-estimate input.
    import json

    from repro import ClusterDistributionConfig, generate_cluster_values
    from repro.core import build_dynamic_histogram
    from repro.persistence import histogram_to_dict

    base = generate_cluster_values(ClusterDistributionConfig(domain=(0, 5000), seed=6))
    values = np.random.default_rng(1).choice(base, 4096)
    values = values + np.floor(np.arange(values.size) * (2500 / values.size))
    cuts = np.quantile(values, [1 / 3, 2 / 3])
    pieces = [build_dynamic_histogram("dado", memory_kb=1.0) for _ in range(3)]
    for start in range(0, values.size, 256):
        batch = values[start : start + 256]
        piece_of = np.searchsorted(cuts, batch, side="right")
        for index, piece in enumerate(pieces):
            piece.insert_many(batch[piece_of == index].tolist(), repartition_interval=16)
    restored = [
        histogram_from_dict(json.loads(json.dumps(histogram_to_dict(piece)))) for piece in pieces
    ]
    union = superimpose(restored)
    expected_union = reference_superimpose(restored)
    assert _bits(_rows(union)) == _bits(expected_union)
    assert len(expected_union) > 200
    reduced = reduce_segments(union, n_buckets, metric=metric)
    expected = reference_reduce(
        expected_union, n_buckets, variance=metric == "variance", value_unit=1.0
    )
    assert _bits(_rows(reduced)) == _bits(expected)
