"""Medians and quartiles of repeated host measurements."""

from __future__ import annotations

import statistics


def summary(samples: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and the samples."""
    samples = list(samples)
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


def spread(stats: dict) -> float:
    """Quartile distance as a share of the median (0 for a zero median)."""
    median = stats["median"]
    return (stats["q3"] - stats["q1"]) / abs(median) if median else 0.0
