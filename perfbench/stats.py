"""Percentiles and the sample-count report used for every timing."""

from __future__ import annotations

import numpy as np

# candidate tail percentiles in tenths of a percent, highest first
_TAIL_PERMILLE = (999, 990, 900)
_MIN_BEYOND_TAIL = 10


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if len(values) == 0:
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int) -> float | None:
    """Highest of p99.9, p99, p90 with at least ten of n samples beyond it."""
    for permille in _TAIL_PERMILLE:
        if n * (1000 - permille) >= _MIN_BEYOND_TAIL * 1000:
            return permille / 10.0
    return None


def timing_report(values) -> dict:
    """Median, the highest tail percentile the sample count supports, and n."""
    n = len(values)
    q = tail_percentile(n)
    return {
        "n": n,
        "p50": median(values),
        "tail_pct": q,
        "tail": percentile(values, q) if q is not None else None,
    }
