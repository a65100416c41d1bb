"""Hybrid ARQ with chase combining.

§3.2: "hybrid ARQ increases throughput under weak signal conditions."

The model: a transport block sent at an MCS whose threshold exceeds the
actual SINR fails its first decode with a BLER that grows with the SINR
shortfall. Each HARQ retransmission is soft-combined (chase combining),
adding ~3 dB of effective SINR per copy, so blocks that miss by a few dB
still get through after one or two retransmissions instead of being lost.
WiFi's plain ARQ retransmits without combining: a retry faces the same
error probability as the original, so weak links collapse instead of
degrading.

``harq_goodput_factor`` gives the expected efficiency multiplier
(successful deliveries per transmission attempt) from which E4 computes
goodput; ``harq_goodput_factor_many`` is the same factor over per-UE
arrays, which the LTE MAC's TTI engine applies to every grant.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.phy.vmath import exp_exact

#: Effective SINR gain of soft-combining one extra copy (chase combining).
COMBINING_GAIN_DB = 3.0

#: Logistic BLER steepness: ~1.5 dB from 90% to 10% BLER.
_BLER_SLOPE_PER_DB = 1.5


def block_error_rate(sinr_db: float, mcs_threshold_db: float) -> float:
    """Initial-transmission BLER for an MCS at an operating SINR.

    Calibrated so BLER = 10% exactly at the table threshold (the tables'
    definition of "threshold"), rising logistically below it.
    """
    shortfall = mcs_threshold_db - sinr_db
    # logistic centred so that bler(threshold) = 0.1:
    # sigmoid(-log 9) = 0.1, and each dB of shortfall adds slope to x.
    x = _BLER_SLOPE_PER_DB * shortfall - math.log(9.0)
    return 1.0 / (1.0 + math.exp(-x))


def harq_goodput_factor(sinr_db: float, mcs_threshold_db: float,
                        max_retx: int = 3,
                        combining: bool = True) -> float:
    """Expected successfully-delivered blocks per transmission attempt.

    With combining, attempt k (0-based) sees an effective SINR of
    ``sinr + k * 3 dB``. Without (plain ARQ), every attempt sees the raw
    SINR. The factor multiplies the nominal MCS efficiency to give
    goodput; it accounts both for lost blocks (all attempts fail) and the
    airtime consumed by retransmissions.
    """
    if max_retx < 0:
        raise ValueError("max_retx must be non-negative")
    p_reach = 1.0  # probability the process reaches attempt k
    expected_attempts = 0.0
    p_delivered = 0.0
    for k in range(max_retx + 1):
        eff_sinr = sinr_db + (COMBINING_GAIN_DB * k if combining else 0.0)
        bler = block_error_rate(eff_sinr, mcs_threshold_db)
        expected_attempts += p_reach
        p_delivered += p_reach * (1.0 - bler)
        p_reach *= bler
    if expected_attempts == 0.0:
        return 0.0
    return p_delivered / expected_attempts


def harq_goodput_factor_many(sinr_db: Sequence[float],
                             mcs_threshold_db: Sequence[float],
                             max_retx: int = 3,
                             combining: bool = True) -> np.ndarray:
    """Vectorized :func:`harq_goodput_factor` over per-UE arrays.

    Bit-identical to the scalar loop, element by element: every
    attempt's logistic exponent is computed at once as one
    ``(max_retx + 1, n)`` array and the one transcendental — the
    logistic's ``exp`` — goes through a single libm element map
    (``repro.phy.vmath.exp_exact``), because numpy's SIMD ``exp``
    rounds differently on ~5% of inputs; the attempt recursion is then
    the same closed form unrolled over the rows (IEEE add/mul/div are
    exactly specified). The TTI engine calls it on the granted rows
    whose factor is stale (``UeArena.fill_harq``); the scalar function
    stays the reference.
    """
    if max_retx < 0:
        raise ValueError("max_retx must be non-negative")
    sinr = np.asarray(sinr_db, dtype=float)
    thresh = np.asarray(mcs_threshold_db, dtype=float)
    gain_db = COMBINING_GAIN_DB if combining else 0.0
    eff_sinr = sinr + gain_db * np.arange(max_retx + 1, dtype=float)[:, None]
    x = _BLER_SLOPE_PER_DB * (thresh - eff_sinr) - math.log(9.0)
    bler = 1.0 / (1.0 + exp_exact((-x).ravel()).reshape(x.shape))
    p_reach = np.ones_like(sinr)
    expected_attempts = np.zeros_like(sinr)
    p_delivered = np.zeros_like(sinr)
    for row in bler:
        expected_attempts = expected_attempts + p_reach
        p_delivered = p_delivered + p_reach * (1.0 - row)
        p_reach = p_reach * row
    return p_delivered / expected_attempts
