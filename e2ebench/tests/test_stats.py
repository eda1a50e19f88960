"""The reporting rules in stats.py."""

import pytest

import stats


def test_tail_needs_ten_samples_beyond_it():
    # Nearest rank: p99 of n samples has n - ceil(0.99 n) beyond it.
    assert stats.beyond(1000, 99.0) == 10
    assert stats.tail(list(range(1000)), 99.0) == 989
    assert stats.beyond(999, 99.0) == 9
    assert stats.tail(list(range(999)), 99.0) is None


def test_highest_tail_falls_back_to_a_supported_percentile():
    values = [float(v) for v in range(200)]
    # 200 samples: p99.9 and p99 have 0 and 2 beyond; p90 has 20.
    assert stats.highest_tail(values) == (90.0, 179.0)
    assert stats.highest_tail(values[:50]) is None
    assert stats.describe_tail("x", values) == "x p90 179.000 ms (n=200)"
    assert stats.describe_tail("x", values[:50]) == "x: no tail percentile (n=50)"


def test_median_and_percentile_edges():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert stats.percentile([5.0], 50.0) == 5.0
    with pytest.raises(ValueError):
        stats.median([])
    with pytest.raises(ValueError):
        stats.percentile([1.0], 100.0)


def test_union_length_merges_overlaps():
    assert stats.union_length([]) == 0.0
    assert stats.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert stats.union_length([(0, 10), (2, 3)]) == 10.0
