"""Small numeric and parsing helpers shared by the benchmark."""

from __future__ import annotations

import json
import math

# Percentiles tried by ``tail_percentile``, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile of ``values`` and the count of samples above its rank."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(values, min_beyond: int = 10):
    """The highest percentile of ``LADDER`` with at least ``min_beyond`` samples beyond it.

    Returns (q, value, samples, beyond), or None when even the median has
    fewer than ``min_beyond`` samples above it.
    """
    for q in reversed(LADDER):
        value, beyond = percentile(values, q)
        if beyond >= min_beyond:
            return q, value, len(values), beyond
    return None


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN, Infinity and -Infinity extensions."""
    return json.loads(text, parse_constant=_reject_constant)
