"""The percentile rule of the benchmark.

A timing is reported as its median plus the highest percentile that
still has at least `MIN_BEYOND` samples beyond it, with the sample
count stated.  A p99 needs at least 902 samples and a p90 at least
92; a shorter series reports its median alone.
"""

import math

MIN_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0)


def percentile(values, p):
    """The p-th percentile (0..100) by linear interpolation between the
    two closest ranks of the sorted samples."""
    if not values:
        raise ValueError("percentile of an empty series")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values):
    return percentile(values, 50.0)


def mean(values):
    return sum(values) / len(values)


def samples_beyond(n, p):
    """How many of n samples lie strictly beyond the p-th percentile's
    rank."""
    return n - 1 - math.floor((n - 1) * p / 100.0)


def tail_percentile(n):
    """The highest candidate percentile with >= MIN_BEYOND samples
    beyond it, or None when the series is too short for any."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def summary(values):
    """{"n", "p50", "tail_p", "tail"} of a timing series."""
    tail_p = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": median(values),
        "tail_p": tail_p,
        "tail": percentile(values, tail_p) if tail_p is not None else None,
    }
