"""Arithmetic of the end-to-end metrics."""

from __future__ import annotations

import math

P90 = 0.90
MIN_BEYOND = 10


def min_samples(q: float = P90, beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which ``beyond`` of them lie above the q-quantile."""
    return math.ceil(beyond / (1.0 - q) - 1e-9)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default, 'inclusive')."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def count_beyond(values: list[float], threshold: float) -> int:
    return sum(v > threshold for v in values)


def failed_frac(certified: list[bool]) -> tuple[float, int, int]:
    """(failed / attempted, failed, attempted) for a list of per-answer
    'certified' flags; an answer that did not reach a certified
    conclusion, for any reason, is a failure."""
    attempted = len(certified)
    failed = attempted - sum(certified)
    return (failed / attempted if attempted else 0.0), failed, attempted
