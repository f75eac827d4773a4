"""Order statistics for benchmark timings."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is only reported when at least this many samples lie
#: above it; with fewer, one outlier decides the number.
MIN_TAIL = 10


class TooFewSamples(ValueError):
    """The requested percentile would rest on fewer than MIN_TAIL samples."""


def min_samples(q: float) -> int:
    """Smallest sample count for which `percentile(values, q)` is defined."""
    n = 1
    while n - _rank(q, n) < MIN_TAIL:
        n += 1
    return n


def _rank(q: float, n: int) -> int:
    # Nearest rank, 1-based; the epsilon keeps 99 * 1000 / 100 at 990.
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile of `values`.

    Raises TooFewSamples unless at least MIN_TAIL samples rank above the
    returned one, so p99 needs 1000 samples and p95 needs 200.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    rank = _rank(q, n)
    if n - rank < MIN_TAIL:
        raise TooFewSamples(
            f"p{q:g} of {n} samples leaves {max(n - rank, 0)} above it; "
            f"need {MIN_TAIL}"
        )
    return float(sorted(values)[rank - 1])


def median(values) -> float:
    return float(statistics.median(values))
