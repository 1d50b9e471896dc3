"""Order statistics for the runner's metrics and the percentile rule."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

#: candidate percentiles, lowest first; the tail reported is the highest
#: one that still has at least ``MIN_BEYOND`` samples above it
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil(n * pct / 100)
    return float(ordered[min(len(ordered), int(rank)) - 1])


def samples_beyond(count: int, pct: float) -> float:
    """How many of ``count`` samples lie above the ``pct`` percentile."""
    # rounded: 100 - 99.9 is not exactly 0.1 in binary floating point
    return round(count * (100.0 - pct) / 100.0, 6)


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median has fewer than ``MIN_BEYOND`` samples
    above it (fewer than 20 samples): no tail can be claimed.
    """
    best = None
    for pct in PERCENTILE_LADDER:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            best = pct
    return best
