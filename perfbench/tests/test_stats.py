"""The percentile rule and the order statistics the runner reports."""

import pytest

from perfbench.stats import percentile, tail_percentile


@pytest.mark.parametrize(
    "count, expected",
    [
        (0, None),
        (19, None),  # 9.5 samples above the median: no tail at all
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),  # exactly 10 beyond p90
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
        (100000, 99.99),
        (10 ** 7, 99.99),  # the ladder's top
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2
