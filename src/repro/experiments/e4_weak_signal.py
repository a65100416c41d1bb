"""E4 — §3.2 "LTE Waveform": goodput under weak signal.

Uplink saturation at a fixed SINR, three arms:

* LTE with HARQ chase combining (the paper's mechanism),
* LTE with plain ARQ (ablation: combining disabled),
* WiFi 802.11 with plain ARQ.

Plus the SC-FDMA PAPR credit: at the same PA, the LTE uplink runs ~3 dB
hotter, which shifts its whole curve right. The claim reproduced: LTE
degrades gracefully below WiFi's MCS0 floor while WiFi goes to zero.
"""

from __future__ import annotations

from typing import List, Optional

from repro.metrics.tables import ResultTable
from repro.phy.harq import harq_goodput_factor
from repro.phy.mcs import (
    LTE_CQI_TABLE,
    WIFI_MCS_TABLE,
    select_lte_cqi,
    select_wifi_mcs,
)

SINR_SWEEP_DB = [-10, -8, -6, -4, -2, 0, 2, 4, 6, 10, 15, 20]

#: single-carrier uplink PAPR advantage (dB) applied to LTE arms
SCFDMA_ADVANTAGE_DB = 3.0


def lte_goodput_bps_hz(sinr_db: float, harq: bool = True,
                       max_retx: int = 3) -> float:
    """LTE link adaptation + (H)ARQ at an operating SINR.

    Link adaptation is goodput-optimal for the retransmission scheme in
    use: with chase combining the scheduler can afford an MCS *above*
    the channel (the combined retransmission finishes the decode), which
    is where HARQ's throughput gain comes from; plain ARQ must stay at
    or below the channel or every attempt fails alike.
    """
    best = 0.0
    for entry in LTE_CQI_TABLE:
        factor = harq_goodput_factor(sinr_db, entry.min_sinr_db,
                                     max_retx=max_retx, combining=harq)
        best = max(best, entry.efficiency_bps_hz * factor)
    # below any usable operating point the link is dead
    return best if best > 0.01 else 0.0


def wifi_goodput_bps_hz(snr_db: float, max_retries: int = 3) -> float:
    """WiFi link adaptation + plain ARQ (no combining), goodput-optimal."""
    best = 0.0
    for entry in WIFI_MCS_TABLE:
        factor = harq_goodput_factor(snr_db, entry.min_sinr_db,
                                     max_retx=max_retries, combining=False)
        best = max(best, entry.efficiency_bps_hz * factor)
    return best if best > 0.01 else 0.0


def run(sinrs_db: Optional[List[float]] = None) -> ResultTable:
    """Goodput (b/s/Hz) vs SINR for the three arms."""
    sweep = sinrs_db or SINR_SWEEP_DB
    table = ResultTable(
        "E4: uplink goodput (bits/s/Hz) vs channel SINR",
        ["channel_sinr_db", "lte_harq", "lte_plain_arq", "wifi"])
    for sinr in sweep:
        lte_sinr = sinr + SCFDMA_ADVANTAGE_DB
        table.add_row(
            channel_sinr_db=sinr,
            lte_harq=lte_goodput_bps_hz(lte_sinr, harq=True),
            lte_plain_arq=lte_goodput_bps_hz(lte_sinr, harq=False),
            wifi=wifi_goodput_bps_hz(sinr))
    return table


def harq_retx_ablation(sinr_db: float = -5.0) -> ResultTable:
    """Ablation: how many retransmissions HARQ needs to help."""
    table = ResultTable(
        f"E4 ablation: HARQ max retransmissions at {sinr_db:g} dB SINR",
        ["max_retx", "goodput_bps_hz"])
    for max_retx in (0, 1, 2, 3, 4, 6):
        table.add_row(max_retx=max_retx,
                      goodput_bps_hz=lte_goodput_bps_hz(
                          sinr_db, harq=True, max_retx=max_retx))
    return table


def link_death_sinrs() -> ResultTable:
    """The floor of each arm: lowest SINR with nonzero goodput."""
    table = ResultTable(
        "E4 summary: link-death SINR per arm",
        ["arm", "dies_below_db"])
    def floor(fn) -> float:
        sinr = 25.0
        while sinr > -25.0 and fn(sinr) > 0:
            sinr -= 0.25
        return sinr + 0.25
    table.add_row(arm="lte_harq",
                  dies_below_db=floor(lambda s: lte_goodput_bps_hz(
                      s + SCFDMA_ADVANTAGE_DB, harq=True)))
    table.add_row(arm="lte_plain_arq",
                  dies_below_db=floor(lambda s: lte_goodput_bps_hz(
                      s + SCFDMA_ADVANTAGE_DB, harq=False)))
    table.add_row(arm="wifi", dies_below_db=floor(wifi_goodput_bps_hz))
    return table
