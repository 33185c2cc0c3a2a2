import statistics

import pytest

from perfbench.stats import (
    MIN_BEYOND,
    beyond,
    percentile,
    quartiles,
    spread,
)


def test_percentile_needs_ten_samples_beyond():
    # p50 of 20 samples leaves 10 beyond it; of 19, only 9
    assert percentile(range(1, 21), 0.5) == 10
    assert percentile(range(1, 20), 0.5) is None


@pytest.mark.parametrize("q, enough", [(0.9, 100), (0.99, 1000)])
def test_tail_percentiles_at_the_threshold(q, enough):
    samples = list(range(1, enough + 1))
    assert beyond(enough, q) == MIN_BEYOND
    assert percentile(samples, q) == enough - MIN_BEYOND
    assert percentile(samples[:-1], q) is None


def test_percentile_is_nearest_rank_and_order_free():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 6
    assert percentile(samples, 0.5) == 3.0
    assert percentile(list(reversed(samples)), 0.5) == 3.0


def test_quartiles_and_spread_match_statistics():
    values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 11.1, 9.9, 10.4]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, median, q3)
    assert spread(values) == pytest.approx((q3 - q1) / median)

