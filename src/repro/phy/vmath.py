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
points through libm element maps while numpy does all the
exactly-specified arithmetic around them. These maps are on the per-TTI
path whenever a UE moves: a moving cell refreshes its rows every TTI,
and each refresh runs about a dozen of them over the moved rows. So
each map is ``np.fromiter(map(f, values))`` over the C builtin itself
(``math.exp``, ``math.hypot``, builtin ``pow``): the same libm call per
element, and no Python frame per element.

``np.errstate`` is irrelevant here: inputs are pre-clamped by the
callers exactly as the scalar reference clamps them.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Sequence

import numpy as np

__all__ = ["log10_exact", "exp_exact", "db_to_linear_exact", "hypot_exact"]


def _as_f64(values: Sequence[float]) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64)


def log10_exact(values: Sequence[float]) -> np.ndarray:
    """Elementwise ``math.log10`` — bit-identical to the scalar path."""
    arr = _as_f64(values)
    return np.fromiter(map(math.log10, arr.tolist()), dtype=np.float64,
                       count=arr.size)


def exp_exact(values: Sequence[float]) -> np.ndarray:
    """Elementwise ``math.exp`` — bit-identical to the scalar path."""
    arr = _as_f64(values)
    return np.fromiter(map(math.exp, arr.tolist()), dtype=np.float64,
                       count=arr.size)


def db_to_linear_exact(db: Sequence[float]) -> np.ndarray:
    """Elementwise ``10.0 ** (db / 10.0)``, matching
    :func:`repro.phy.units.db_to_linear` bit for bit (builtin ``pow`` is
    the ``**`` operator, CPython's float power is libm ``pow``; numpy's
    is not)."""
    arr = _as_f64(db) / 10.0
    return np.fromiter(map(pow, repeat(10.0), arr.tolist()),
                       dtype=np.float64, count=arr.size)


def hypot_exact(dx: Sequence[float], dy: Sequence[float]) -> np.ndarray:
    """Elementwise ``math.hypot`` — matches ``Point.distance_to``."""
    ax = _as_f64(dx)
    ay = _as_f64(dy)
    return np.fromiter(map(math.hypot, ax.tolist(), ay.tolist()),
                       dtype=np.float64, count=ax.size)
