"""Latency summaries: the median and the highest percentile the sample supports."""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

#: Percentiles tried, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


class Tail(NamedTuple):
    percentile: float
    value: float
    samples: int
    beyond: int


def tail_percentile(values: Sequence[float], min_beyond: int = MIN_BEYOND) -> Tail | None:
    """The highest ladder percentile with ``min_beyond`` samples beyond it.

    Uses the nearest-rank definition: the p-th percentile of n sorted
    samples is the one at rank ceil(p n / 100), and n minus that rank
    samples lie beyond it.  None when even the median has too few.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in LADDER:
        rank = max(1, math.ceil(p * n / 100.0))
        if n - rank >= min_beyond:
            best = Tail(p, ordered[rank - 1], n, n - rank)
    return best
