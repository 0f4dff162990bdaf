"""Summary statistics shared by the benchmark runner and its tests."""

from __future__ import annotations

import math

# percentiles tried from the top down; one is reported only when at least
# MIN_BEYOND samples lie strictly above it
PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(pct / 100.0 * len(ordered), 9)))   # 99.9% of 10000 is 9990
    return ordered[rank - 1]


def upper_percentile(values):
    """(pct, value) of the highest percentile with >= MIN_BEYOND samples beyond it.

    Returns None when no percentile of the ladder qualifies, which is the case
    for every sample of at most MIN_BEYOND values.
    """
    for pct in PERCENTILES:
        if not values:
            break
        value = percentile(values, pct)
        if sum(1 for v in values if v > value) >= MIN_BEYOND:
            return pct, value
    return None


def s_to_rel_err(wall_s, p_hat, n, rel_err=0.1):
    """Seconds to reach a relative standard error rel_err on a frequency.

    A run of wall_s seconds over n paths estimates p with relative variance
    (1 - p) / (n p); reaching rel_err**2 needs proportionally more paths.
    """
    if not 0.0 < p_hat <= 1.0 or n <= 0:
        raise ValueError(f"precision cell needs 0 < p_hat <= 1 and n > 0, got {p_hat}, {n}")
    return wall_s * (1.0 - p_hat) / (n * p_hat) / (rel_err * rel_err)
