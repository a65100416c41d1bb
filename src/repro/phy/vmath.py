"""Bit-exact element maps for the vectorized PHY.

The TTI engine (``repro.mac.arena``) re-expresses the per-cell
radio refresh as array pipelines, but its contract is *byte-identical*
experiment tables against the scalar reference path. IEEE-754 add,
subtract, multiply and divide are exactly specified, so numpy and
plain Python produce bit-identical results for those — but the
transcendental kernels are not: numpy's SIMD ``np.log10`` / ``np.exp``
/ ``np.power`` round differently from libm (``math.log10`` etc.) on a
few percent of inputs (measured ~2-5% at 1 ulp on the reference box),
and ``np.hypot`` disagrees with ``math.hypot`` similarly.

A 1-ulp SINR difference crosses no CQI threshold, but it *does* change
the HARQ goodput factor's last bits and therefore the delivered-bits
tables. So the exact pipelines route their few transcendental choke
points through libm element-maps (one tight Python loop over a
contiguous float64 array) while numpy does all the exactly-specified
arithmetic around them. Refreshes only run when a UE moves, attaches,
or the interference environment changes — steady-state TTIs never
enter these maps — so the libm loops are off the per-TTI hot path by
construction.

``np.errstate`` is irrelevant here: inputs are pre-clamped by the
callers exactly as the scalar reference clamps them.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["log10_exact", "exp_exact", "db_to_linear_exact", "hypot_exact"]


def _as_f64(values: Sequence[float]) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64)


def log10_exact(values: Sequence[float]) -> np.ndarray:
    """Elementwise ``math.log10`` — bit-identical to the scalar path."""
    arr = _as_f64(values)
    f = math.log10
    return np.fromiter((f(v) for v in arr.tolist()), dtype=np.float64,
                       count=arr.size)


def exp_exact(values: Sequence[float]) -> np.ndarray:
    """Elementwise ``math.exp`` — bit-identical to the scalar path."""
    arr = _as_f64(values)
    f = math.exp
    return np.fromiter((f(v) for v in arr.tolist()), dtype=np.float64,
                       count=arr.size)


def db_to_linear_exact(db: Sequence[float]) -> np.ndarray:
    """Elementwise ``10.0 ** (db / 10.0)``, matching
    :func:`repro.phy.units.db_to_linear` bit for bit (CPython's float
    power is libm ``pow``; numpy's is not)."""
    arr = _as_f64(db) / 10.0
    return np.fromiter((10.0 ** v for v in arr.tolist()), dtype=np.float64,
                       count=arr.size)


def hypot_exact(dx: Sequence[float], dy: Sequence[float]) -> np.ndarray:
    """Elementwise ``math.hypot`` — matches ``Point.distance_to``."""
    ax = _as_f64(dx)
    ay = _as_f64(dy)
    f = math.hypot
    return np.fromiter((f(x, y) for x, y in zip(ax.tolist(), ay.tolist())),
                       dtype=np.float64, count=ax.size)
