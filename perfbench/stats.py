"""Percentiles the benchmark is allowed to report.

A percentile is the nearest-rank value: with n samples sorted ascending,
p-th percentile = sample number ceil(p/100 * n).  Every reported percentile
carries its sample count and the number of samples beyond it, and one with
fewer than MIN_BEYOND samples beyond it is refused: its value would rest on
a handful of frames.
"""

import math
import statistics
from dataclasses import dataclass

MIN_BEYOND = 10


class PercentileRefused(ValueError):
    """Too few samples beyond the requested percentile."""


@dataclass(frozen=True)
class Percentile:
    p: float
    value: float
    count: int   # samples the percentile was taken over
    beyond: int  # samples strictly above its rank

    def describe(self, unit):
        return "%.4f %s (p%g, n=%d, %d beyond)" % (
            self.value, unit, self.p, self.count, self.beyond)


def percentile(samples, p):
    """Nearest-rank p-th percentile (0 < p < 100) of `samples`.

    Raises PercentileRefused when fewer than MIN_BEYOND samples lie beyond
    the rank (this includes every percentile of an empty sample).
    """
    if not 0 < p < 100:
        raise ValueError("percentile must be in (0, 100), got %r" % (p,))
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(p / 100.0 * n))
    beyond = n - rank
    if n == 0 or beyond < MIN_BEYOND:
        raise PercentileRefused(
            "p%g of %d samples has %d beyond it (need %d)"
            % (p, n, max(beyond, 0), MIN_BEYOND))
    return Percentile(p=p, value=ordered[rank - 1], count=n, beyond=beyond)


def try_percentile(samples, p):
    """percentile() or None when refused."""
    try:
        return percentile(samples, p)
    except PercentileRefused:
        return None


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
