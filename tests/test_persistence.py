"""Unit tests for histogram persistence (catalog save / restore)."""

import numpy as np
import pytest

from repro import (
    DADOHistogram,
    DataDistribution,
    DCHistogram,
    DVOHistogram,
    FrozenHistogram,
    SSBMHistogram,
    freeze,
    histogram_from_dict,
    histogram_to_dict,
    ks_statistic,
    load_histogram,
    save_histogram,
)
from repro.exceptions import ConfigurationError


def _buckets_equal(first, second):
    a, b = first.buckets(), second.buckets()
    assert len(a) == len(b)
    for x, y in zip(a, b, strict=True):
        assert x.left == pytest.approx(y.left)
        assert x.right == pytest.approx(y.right)
        assert x.count == pytest.approx(y.count)


class TestFreeze:
    def test_freeze_snapshot_matches_source(self, uniform_values):
        histogram = DADOHistogram(24)
        for value in uniform_values:
            histogram.insert(float(value))
        snapshot = freeze(histogram)
        assert isinstance(snapshot, FrozenHistogram)
        _buckets_equal(histogram, snapshot)

    def test_freeze_is_decoupled_from_further_updates(self, uniform_values):
        histogram = DCHistogram(24)
        for value in uniform_values[:800]:
            histogram.insert(float(value))
        snapshot = freeze(histogram)
        before = snapshot.total_count
        for value in uniform_values[800:]:
            histogram.insert(float(value))
        assert snapshot.total_count == before


class TestDictRoundTrip:
    @pytest.mark.parametrize("histogram_class", [DCHistogram, DVOHistogram, DADOHistogram])
    def test_dynamic_round_trip_preserves_buckets(self, histogram_class, uniform_values):
        histogram = histogram_class(20)
        for value in uniform_values:
            histogram.insert(float(value))
        restored = histogram_from_dict(histogram_to_dict(histogram))
        assert type(restored) is histogram_class
        _buckets_equal(histogram, restored)
        assert restored.repartition_count == histogram.repartition_count

    @pytest.mark.parametrize("histogram_class", [DCHistogram, DADOHistogram])
    def test_restored_histogram_keeps_accepting_updates(self, histogram_class, uniform_values):
        original = histogram_class(20)
        for value in uniform_values[:1000]:
            original.insert(float(value))
        restored = histogram_from_dict(histogram_to_dict(original))

        truth = DataDistribution(uniform_values[:1000])
        for value in uniform_values[1000:]:
            original.insert(float(value))
            restored.insert(float(value))
            truth.add(float(value))
        assert restored.total_count == pytest.approx(original.total_count)
        assert ks_statistic(truth, restored, value_unit=1.0) < 0.1

    @pytest.mark.parametrize("histogram_class", [DVOHistogram, DADOHistogram])
    def test_serialised_rows_are_plain_floats_of_the_arrays(self, histogram_class, uniform_values):
        # The bulk tolist() rows must be exactly the per-element float() rows,
        # so the JSON text of a snapshot does not change.
        import json

        histogram = histogram_class(20)
        histogram.insert_many([float(v) for v in uniform_values[:3000]])
        array = histogram.bucket_array
        rows = histogram_to_dict(histogram)["buckets"]
        expected = [
            [float(left), float(right), [float(c) for c in counts]]
            for left, right, counts in zip(
                array.lefts, array.rights, array.sub_counts, strict=True
            )
        ]
        values = [value for left, right, counts in rows for value in (left, right, *counts)]
        assert all(type(value) is float for value in values)
        assert json.dumps(rows) == json.dumps(expected)

    def test_round_trip_during_loading_phase(self):
        histogram = DADOHistogram(16)
        histogram.insert(3.0)
        histogram.insert(5.0)
        restored = histogram_from_dict(histogram_to_dict(histogram))
        assert restored.is_loading
        assert restored.total_count == 2

    def test_static_histogram_round_trip_is_frozen(self, small_distribution):
        histogram = SSBMHistogram.build(small_distribution, 16)
        restored = histogram_from_dict(histogram_to_dict(histogram))
        assert isinstance(restored, FrozenHistogram)
        _buckets_equal(histogram, restored)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            histogram_from_dict({"format_version": 1, "kind": "mystery"})

    def test_unknown_version_rejected(self):
        with pytest.raises(ConfigurationError):
            histogram_from_dict({"format_version": 99, "kind": "dc"})


class TestFileRoundTrip:
    def test_save_and_load(self, tmp_path, uniform_values):
        histogram = DADOHistogram(20)
        for value in uniform_values:
            histogram.insert(float(value))
        path = tmp_path / "stats.json"
        save_histogram(histogram, path)
        restored = load_histogram(path)
        _buckets_equal(histogram, restored)

    def test_saved_file_is_json(self, tmp_path, uniform_values):
        import json

        histogram = DCHistogram(20)
        for value in uniform_values[:500]:
            histogram.insert(float(value))
        path = tmp_path / "stats.json"
        save_histogram(histogram, path)
        payload = json.loads(path.read_text())
        assert payload["kind"] == "dc"
        assert payload["bucket_budget"] == 20


class TestPR3SnapshotBackCompat:
    """PR-3-era JSON snapshots must load into the array core bit-identically.

    ``tests/data/pr3_snapshots.json`` holds histogram dicts serialised by the
    pre-array-core persistence layer together with estimates computed by that
    implementation.  The new core must restore them to the exact same
    answers, and a dict -> core -> dict round trip must be a fixed point
    (modulo the documented padding of legacy collapsed point-mass counter
    lists).
    """

    @pytest.fixture(scope="class")
    def fixture(self):
        import json
        from pathlib import Path

        path = Path(__file__).parent / "data" / "pr3_snapshots.json"
        return json.loads(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("kind", ["dado", "dc"])
    def test_legacy_snapshot_estimates_are_bit_identical(self, fixture, kind):
        restored = histogram_from_dict(fixture["snapshots"][kind])
        expected = fixture["expected"][kind]
        assert float(restored.total_count) == expected["total"]
        for (low, high), want in zip(fixture["queries"], expected["ranges"], strict=True):
            assert float(restored.estimate_range(float(low), float(high))) == want
        assert float(restored.estimate_equal(55.0)) == expected["equal_55"]
        assert float(restored.cdf(100.0)) == expected["cdf_100"]

    @pytest.mark.parametrize("kind", ["dado", "dc"])
    def test_old_dict_new_core_dict_round_trip(self, fixture, kind):
        state = fixture["snapshots"][kind]
        first = histogram_to_dict(histogram_from_dict(state))
        # The re-serialised dict must itself be a fixed point ...
        second = histogram_to_dict(histogram_from_dict(first))
        assert first == second
        # ... and semantically identical to the legacy dict: same buckets,
        # same configuration, same continued-maintenance behaviour.
        legacy = histogram_from_dict(state)
        modern = histogram_from_dict(first)
        _buckets_equal(legacy, modern)
        legacy.insert_many([float(v % 130) for v in range(300)], repartition_interval=4)
        modern.insert_many([float(v % 130) for v in range(300)], repartition_interval=4)
        _buckets_equal(legacy, modern)

    @pytest.mark.parametrize("kind", ["dado", "dc"])
    def test_store_snapshot_blob_restores(self, fixture, kind):
        from repro import HistogramStore

        store = HistogramStore()
        blob = {
            "name": "legacy",
            "kind": kind,
            "memory_kb": 1.0,
            "generation": 7,
            "inserted": 500,
            "deleted": 37,
            "histogram": fixture["snapshots"][kind],
        }
        stats = store.restore("legacy", blob)
        assert stats.generation > 7
        assert store.total_count("legacy") == fixture["expected"][kind]["total"]

    def test_legacy_collapsed_point_mass_rows_are_padded(self):
        # The pre-array core serialised point-mass buckets created by border
        # projection with a single collapsed counter; the array core pads the
        # row back to the configured sub-bucket width without losing mass.
        state = {
            "format_version": 1,
            "kind": "dado",
            "bucket_budget": 4,
            "sub_buckets": 2,
            "value_unit": 1.0,
            "repartition_threshold": 0.0,
            "repartition_count": 0,
            "buckets": [[0.0, 10.0, [3.0, 4.0]], [42.0, 42.0, [5.0]]],
        }
        restored = histogram_from_dict(state)
        assert restored.total_count == pytest.approx(12.0)
        array = restored.bucket_array
        assert array.sub_counts.shape == (2, 2)
        assert float(array.sub_counts[1, 0]) == 5.0
        assert float(array.sub_counts[1, 1]) == 0.0


class TestRestoreCacheInvariant:
    """Restored histograms must never serve a stale segment view.

    ``histogram_from_dict`` restores internal state directly, bypassing the
    insert/delete template methods that normally bump the view generation
    (the ROADMAP cache invariant).  These tests pin down that the restore
    paths re-establish the invariant explicitly: the first read after a
    restore reflects the restored buckets exactly, and reads stay consistent
    through the restore-triggered bootstrap and later updates.
    """

    @pytest.mark.parametrize("histogram_class", [DCHistogram, DVOHistogram, DADOHistogram])
    def test_first_read_after_restore_matches_buckets(self, histogram_class, uniform_values):
        original = histogram_class(20)
        for value in uniform_values:
            original.insert(float(value))
        # Warm the original's view cache so the serialised state comes from a
        # histogram whose cached view is live.
        assert original.total_count == pytest.approx(len(uniform_values))
        restored = histogram_from_dict(histogram_to_dict(original))

        # The very first read must be derived from the restored buckets, not
        # any stale cache: cross-check the vectorised path against a
        # from-scratch per-bucket recomputation.
        expected_total = sum(bucket.count for bucket in restored.buckets())
        assert restored.total_count == pytest.approx(expected_total)
        low, high = float(np.min(uniform_values)), float(np.max(uniform_values))
        expected_range = sum(
            bucket.count_in_range(low, high) for bucket in restored.buckets()
        )
        assert restored.estimate_range(low, high) == pytest.approx(expected_range)

    def test_restore_leaves_no_stale_view(self, uniform_values):
        original = DADOHistogram(20)
        for value in uniform_values:
            original.insert(float(value))
        restored = histogram_from_dict(histogram_to_dict(original))
        # Restoration is a mutation: the restore path must drop any cached
        # view so the first read derives one from the restored arrays.
        assert restored._view_cache is None
        view = restored.segment_view()
        assert view.total == pytest.approx(original.total_count)
        assert restored.segment_view() is view  # cached until the next mutation
        restored.insert(1234.5)
        assert restored.segment_view() is not view

    @pytest.mark.parametrize("histogram_class", [DVOHistogram, DADOHistogram])
    def test_read_path_bootstrap_after_loading_restore_refreshes_view(self, histogram_class):
        original = histogram_class(8)
        for value in (3.0, 5.0, 9.0):
            original.insert(value)
        restored = histogram_from_dict(histogram_to_dict(original))
        assert restored.is_loading

        # First read during the loading phase: point-mass view of the buffer.
        assert restored.total_count == pytest.approx(3.0)
        # sub_bucketed_buckets() forces the bootstrap from a *read* path; the
        # bucket shapes change, so the cached view must be refreshed.
        restored.sub_bucketed_buckets()
        assert not restored.is_loading
        assert restored.total_count == pytest.approx(3.0)
        expected_total = sum(bucket.count for bucket in restored.buckets())
        assert restored.total_count == pytest.approx(expected_total)

    @pytest.mark.parametrize("histogram_class", [DCHistogram, DVOHistogram, DADOHistogram])
    def test_reads_track_updates_after_restore(self, histogram_class, uniform_values):
        original = histogram_class(20)
        for value in uniform_values:
            original.insert(float(value))
        restored = histogram_from_dict(histogram_to_dict(original))
        before = restored.total_count
        restored.insert(42.0)
        assert restored.total_count == pytest.approx(before + 1)
        restored.delete(42.0)
        assert restored.total_count == pytest.approx(before)
