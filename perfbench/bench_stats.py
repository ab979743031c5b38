"""Summary statistics for the benchmark's timings.

A timing is reported as its median plus the highest standard percentile
that still has at least :data:`MIN_TAIL_SAMPLES` samples beyond it, together
with the sample count (a tail percentile read from fewer samples would be
one or two outliers, not a percentile).
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

#: Samples that must lie beyond a percentile before it is reported.
MIN_TAIL_SAMPLES = 10

#: Percentiles considered for the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def _rank(p: float, count: int) -> int:
    """Nearest rank ``ceil(p/100 * count)``, exact for p with one decimal."""
    tenths = round(p * 10)
    return -(-tenths * count // 1000)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    return float(ordered[max(_rank(p, len(ordered)), 1) - 1])


def tail_percentile(count: int) -> Optional[float]:
    """Highest percentile of :data:`TAIL_PERCENTILES` with enough samples beyond it.

    ``None`` when even the median has fewer than :data:`MIN_TAIL_SAMPLES`
    samples above it (fewer than 20 samples).
    """
    for p in TAIL_PERCENTILES:
        # Samples strictly above the nearest-rank position.
        if count - _rank(p, count) >= MIN_TAIL_SAMPLES:
            return p
    return None


def summarize(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """``{"median", "tail_p", "tail", "n"}`` for a non-empty timing sample."""
    tail_p = tail_percentile(len(values))
    return {
        "median": median(values),
        "tail_p": tail_p,
        "tail": percentile(values, tail_p) if tail_p is not None else None,
        "n": len(values),
    }


def throughput(samples_per_epoch: int, epochs: int, duration: float) -> float:
    """Training samples of all epochs over the time they took (any time unit)."""
    if samples_per_epoch <= 0 or epochs <= 0:
        raise ValueError("samples_per_epoch and epochs must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    return samples_per_epoch * epochs / duration


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the steadiness test)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
