"""Percentiles for latency samples."""

from __future__ import annotations

import math
from dataclasses import dataclass

MIN_TAIL = 10   # a percentile is reported only with this many samples beyond it


@dataclass(frozen=True)
class Percentile:
    value: float
    beyond: int     # samples ranked above the percentile

    @property
    def tail_ok(self) -> bool:
        return self.beyond >= MIN_TAIL


def nearest_rank(values, q: float) -> Percentile:
    """Nearest-rank percentile: the ceil(q*n)-th smallest sample.

    With n samples, n - ceil(q*n) of them rank above it; ``tail_ok`` is
    false when fewer than MIN_TAIL do (for p90 that means n < 100).
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    ordered = sorted(values)
    if not ordered:
        return Percentile(0.0, 0)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return Percentile(ordered[rank - 1], len(ordered) - rank)
