import pytest

from stats import beyond, mean, percentile


def test_percentile_known_lists():
    # n = 3, p = 50: Beta(2, 2) weights are 7/27, 13/27 and 7/27.
    assert percentile([10, 1, 2], 50) == pytest.approx((7 * 1 + 13 * 2 + 7 * 10) / 27)
    # Symmetric lists have their centre as the median.
    assert percentile(range(1, 101), 50) == pytest.approx(50.5)
    assert percentile([3.0] * 7, 95) == pytest.approx(3.0)
    # Estimates rise with p and stay inside the sample range.
    values = [0.1 * k * k for k in range(200)]
    estimates = [percentile(values, p) for p in (10, 50, 90, 95)]
    assert estimates == sorted(estimates)
    assert min(values) < estimates[0] and estimates[-1] < max(values)
    assert percentile(range(1000), 90) == pytest.approx(899.1, abs=0.5)


def test_percentile_is_steady_between_two_groups():
    # Half the samples near 1, half near 10: the estimate sits between the
    # groups rather than jumping to the edge of either.
    low = [1.0 + 0.001 * k for k in range(100)]
    high = [10.0 + 0.001 * k for k in range(100)]
    assert 2.0 < percentile(low + high, 50) < 9.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 100)


def test_beyond():
    assert beyond(list(range(100)), 90) == 10
    assert beyond(list(range(200)), 95) == 10


def test_mean():
    assert mean([1, 2, 3, 4]) == 2.5
    with pytest.raises(ValueError):
        mean([])
