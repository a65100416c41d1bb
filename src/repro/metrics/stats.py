"""Statistics helpers used across experiments."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np


def _as_float_array(values) -> np.ndarray:
    """Coerce samples to a float ndarray without needless copies.

    A float ndarray passes through untouched; other ndarrays and
    sequences convert directly; generators (which ``np.asarray`` would
    wrap as a 0-d object array) are materialized first.
    """
    if isinstance(values, np.ndarray):
        return values.astype(float, copy=False)
    if isinstance(values, (list, tuple)):
        return np.asarray(values, dtype=float)
    return np.asarray(list(values), dtype=float)


def jain_fairness(allocations: Sequence[float]) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1].

    1.0 = perfectly equal; 1/n = one user gets everything. The metric the
    paper implies when claiming fair sharing achieves "similar fairness
    characteristics to what WiFi achieves today" (§4.3).
    """
    xs = _as_float_array(allocations)
    if xs.size == 0:
        raise ValueError("fairness of an empty allocation is undefined")
    if (xs < 0).any():
        raise ValueError("allocations must be non-negative")
    denom = xs.size * float((xs ** 2).sum())
    if denom == 0:
        return 1.0  # all-zero: degenerate but equal
    return float(xs.sum()) ** 2 / denom


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0-100), linear interpolation."""
    if not 0 <= q <= 100:
        raise ValueError("percentile must be in [0, 100]")
    arr = _as_float_array(values)
    if arr.size == 0:
        raise ValueError("percentile of empty data is undefined")
    return float(np.percentile(arr, q))


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Mean / median / p95 / min / max / count in one dict."""
    arr = _as_float_array(values)
    if arr.size == 0:
        raise ValueError("cannot summarize empty data")
    # One percentile call sorts once for both quantiles (np.median is
    # just the 50th percentile; computing them separately sorts twice).
    median, p95 = np.percentile(arr, [50, 95])
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "median": float(median),
        "p95": float(p95),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }
