"""Statistics of the folearn benchmark: percentiles, quartiles, failure share.

Kept apart from run.py so that test_stats.py can check them against
hand-computed fixtures.
"""

import math
import statistics

# Percentiles a timing may be reported at, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def rank(n, p):
    """1-based nearest rank of the p-th percentile (0 < p <= 100) among n
    samples.  Rounded before the ceiling so that 99.9% of 10000 is rank
    9990, not 9991 through float error."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p):
    """Nearest-rank p-th percentile of a non-empty list."""
    if not values:
        raise ValueError("percentile of no values")
    return sorted(values)[rank(len(values), p) - 1]


def beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - rank(n, p)


def tail_percentile(n):
    """The highest percentile of LADDER with at least MIN_BEYOND samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def quartiles(values):
    """(q1, median, q3) the way statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


class Tally:
    """Ops attempted and ops that failed: a non-zero exit, a refused or
    incomplete response, or an output that failed its correctness check.
    Each op is counted once, however many of its checks failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(problems)

    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0
