"""Latency summaries and accuracy digits for the benchmark's result line."""

from __future__ import annotations

import math

import numpy as np

# candidate tail percentiles in thousandths of a percent, so that "samples
# beyond" is computed in integers: 99.9 % of 10,000 leaves exactly 10
LADDER_MILLI = (50_000, 90_000, 95_000, 99_000, 99_500, 99_900, 99_950, 99_990, 99_995, 99_999)
MIN_BEYOND = 10
DIGITS_CAP = 15.0


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples beyond it.

    Below 20 samples no percentile qualifies and the tail is the maximum.
    """
    best = None
    for p in LADDER_MILLI:
        if n * (100_000 - p) >= MIN_BEYOND * 100_000:
            best = p
    return 100.0 if best is None else best / 1000.0


def latency_summary(latencies_s):
    """Median and tail latency in ms, with the tail's percentile and sample count."""
    lat = np.asarray(latencies_s, dtype=float) * 1e3
    p = tail_percentile(len(lat))
    return {
        "p50_ms": float(np.percentile(lat, 50.0)),
        "tail_ms": float(np.percentile(lat, p)),
        "tail_percentile": p,
        "n": len(lat),
    }


def digits(rel_err: float) -> float:
    """-log10 of a relative error, capped at 15 digits (an exact answer has 15)."""
    if rel_err <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(rel_err))
