"""Rate tables: LTE CQI→efficiency and WiFi MCS→rate.

LTE adapts its modulation-and-coding in 15 CQI steps (3GPP TS 36.213
Table 7.2.3-1) reaching down to QPSK rate-0.08, usable near -7 dB SINR.
802.11n's lowest rate is BPSK rate-1/2, needing roughly +2 dB — and below
that the link is simply dead. That gap, plus HARQ (see ``phy.harq``), is
the quantitative core of the paper's "LTE outperforms WiFi over the more
tenuous links common in rugged areas" claim (§3.2), measured in E4.

SINR thresholds are the standard link-level-simulation operating points
(~10% initial BLER targets); absolute values vary by channel model in the
literature but the relative LTE-vs-WiFi structure is stable.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class McsEntry:
    """One row of a rate table.

    Attributes:
        index: CQI (LTE) or MCS (WiFi) index.
        modulation: e.g. ``"QPSK"``, ``"64QAM"``.
        code_rate: channel code rate (0-1).
        efficiency_bps_hz: net spectral efficiency at this entry.
        min_sinr_db: SINR at which this entry first meets its BLER target.
    """

    index: int
    modulation: str
    code_rate: float
    efficiency_bps_hz: float
    min_sinr_db: float


#: 3GPP TS 36.213 Table 7.2.3-1 efficiencies with standard SINR thresholds.
LTE_CQI_TABLE: List[McsEntry] = [
    McsEntry(1, "QPSK", 0.0762, 0.1523, -6.7),
    McsEntry(2, "QPSK", 0.1172, 0.2344, -4.7),
    McsEntry(3, "QPSK", 0.1885, 0.3770, -2.3),
    McsEntry(4, "QPSK", 0.3008, 0.6016, 0.2),
    McsEntry(5, "QPSK", 0.4385, 0.8770, 2.4),
    McsEntry(6, "QPSK", 0.5879, 1.1758, 4.3),
    McsEntry(7, "16QAM", 0.3691, 1.4766, 5.9),
    McsEntry(8, "16QAM", 0.4785, 1.9141, 8.1),
    McsEntry(9, "16QAM", 0.6016, 2.4063, 10.3),
    McsEntry(10, "64QAM", 0.4551, 2.7305, 11.7),
    McsEntry(11, "64QAM", 0.5537, 3.3223, 14.1),
    McsEntry(12, "64QAM", 0.6504, 3.9023, 16.3),
    McsEntry(13, "64QAM", 0.7539, 4.5234, 18.7),
    McsEntry(14, "64QAM", 0.8525, 5.1152, 21.0),
    McsEntry(15, "64QAM", 0.9258, 5.5547, 22.7),
]

#: 802.11n single-stream, 20 MHz, 800 ns GI: rates in bits/s/Hz over 20 MHz.
#: (PHY rates 6.5..65 Mbps; min-sensitivity SNRs per standard practice.)
WIFI_MCS_TABLE: List[McsEntry] = [
    McsEntry(0, "BPSK", 0.5, 6.5e6 / 20e6, 2.0),
    McsEntry(1, "QPSK", 0.5, 13.0e6 / 20e6, 5.0),
    McsEntry(2, "QPSK", 0.75, 19.5e6 / 20e6, 9.0),
    McsEntry(3, "16QAM", 0.5, 26.0e6 / 20e6, 11.0),
    McsEntry(4, "16QAM", 0.75, 39.0e6 / 20e6, 15.0),
    McsEntry(5, "64QAM", 0.6667, 52.0e6 / 20e6, 18.0),
    McsEntry(6, "64QAM", 0.75, 58.5e6 / 20e6, 20.0),
    McsEntry(7, "64QAM", 0.8333, 65.0e6 / 20e6, 25.0),
]

_LTE_THRESHOLDS = [e.min_sinr_db for e in LTE_CQI_TABLE]
_WIFI_THRESHOLDS = [e.min_sinr_db for e in WIFI_MCS_TABLE]

# Array mirrors of the LTE table for the TTI engine: CQI selection
# over a whole cell becomes one ``np.searchsorted`` (identical semantics
# to the ``bisect_right`` the scalar path uses — both are pure index
# arithmetic, so batch and scalar agree bit for bit). Row -1 of the
# gather targets backs the "below CQI 1" case with zeros.
_LTE_THRESHOLDS_ARR = np.array(_LTE_THRESHOLDS)
_LTE_EFFICIENCY_ARR = np.array(
    [e.efficiency_bps_hz for e in LTE_CQI_TABLE] + [0.0])
_LTE_MIN_SINR_ARR = np.array(_LTE_THRESHOLDS + [0.0])


def select_lte_cqi_index_many(sinr_db: Sequence[float]) -> np.ndarray:
    """Vectorized CQI row selection: index into ``LTE_CQI_TABLE`` per
    SINR, or -1 where the link is below CQI 1.

    ``select_lte_cqi(s)`` equals ``LTE_CQI_TABLE[i]`` (or ``None`` for
    -1) for every element — the TTI engine's CQI step.
    """
    sinr = np.asarray(sinr_db, dtype=float)
    return np.searchsorted(_LTE_THRESHOLDS_ARR, sinr, side="right") - 1


def lte_efficiency_for_index(indices: np.ndarray) -> np.ndarray:
    """Spectral efficiency per CQI row index (-1 maps to 0.0)."""
    return _LTE_EFFICIENCY_ARR[indices]


def lte_min_sinr_for_index(indices: np.ndarray) -> np.ndarray:
    """HARQ threshold (``min_sinr_db``) per CQI row index (-1 maps to
    0.0, never consumed: the TTI engine masks dead links first)."""
    return _LTE_MIN_SINR_ARR[indices]


def _select(table: List[McsEntry], thresholds: List[float],
            sinr_db: float) -> Optional[McsEntry]:
    idx = bisect.bisect_right(thresholds, sinr_db) - 1
    if idx < 0:
        return None
    return table[idx]


# The selection itself is a bisect, but it sits on the per-TTI hot path
# (every scheduled UE, every TTI, usually at a small set of stationary
# SINRs), so an LRU in front turns the common case into one dict hit.
# Entries are immutable module-level rows — caching returns the same
# objects the uncached path would.

@lru_cache(maxsize=4096)
def select_lte_cqi(sinr_db: float) -> Optional[McsEntry]:
    """Highest LTE CQI whose threshold is met, or None below CQI 1."""
    return _select(LTE_CQI_TABLE, _LTE_THRESHOLDS, sinr_db)


@lru_cache(maxsize=4096)
def select_wifi_mcs(snr_db: float) -> Optional[McsEntry]:
    """Highest WiFi MCS whose threshold is met, or None below MCS 0."""
    return _select(WIFI_MCS_TABLE, _WIFI_THRESHOLDS, snr_db)


def lte_efficiency_for_sinr(sinr_db: float) -> float:
    """LTE net spectral efficiency (bits/s/Hz) at ``sinr_db``; 0 if dead."""
    entry = select_lte_cqi(sinr_db)
    return entry.efficiency_bps_hz if entry else 0.0


def wifi_rate_for_snr(snr_db: float, bandwidth_hz: float = 20e6) -> float:
    """WiFi PHY rate in bits/s at ``snr_db``; 0 if below MCS 0."""
    entry = select_wifi_mcs(snr_db)
    return entry.efficiency_bps_hz * bandwidth_hz if entry else 0.0
