"""E14 (extension) — §7: what 5G-NR buys a dLTE federation.

Three radio generations on the same rural AP mast, same dLTE
architecture around them:

* **LTE band 5** — the paper's deployed baseline (10 MHz, 850 MHz).
* **NR n28** — the like-for-like upgrade: 700 MHz coverage layer,
  20 MHz, 256QAM.
* **NR n78 + massive MIMO** — the capacity play: 3.5 GHz, 100 MHz,
  64-element beamforming to claw back the propagation loss.

Measured: downlink rate vs distance, the range where each dies, and the
air-interface latency ladder across numerologies.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.geo.points import Point
from repro.metrics.tables import ResultTable
from repro.phy.bands import get_band
from repro.phy.linkbudget import LinkBudget, Radio
from repro.phy.mcs import lte_efficiency_for_sinr
from repro.phy.nr import (
    LTE_TTI_S,
    NR_BANDS,
    Numerology,
    air_interface_latency_s,
    beamforming_gain_db,
    nr_efficiency_for_sinr,
)
from repro.phy.propagation import model_for_frequency

DISTANCES_M = [250, 1000, 2000, 4000, 8000, 16000, 30000]


def _arm_rate_bps(band, distance_m: float, efficiency_fn,
                  extra_gain_db: float = 0.0) -> float:
    budget = LinkBudget(model_for_frequency(band.dl_mhz), band.dl_mhz,
                        band.bandwidth_hz)
    ap = Radio(Point(0, 0), tx_power_dbm=43, antenna_gain_dbi=15,
               height_m=30.0)
    ue = Radio(Point(distance_m, 0), tx_power_dbm=23, height_m=1.5)
    snr = budget.snr_db(ap, ue) + extra_gain_db
    return efficiency_fn(snr) * band.bandwidth_hz


ARMS = [
    ("LTE band 5 (10 MHz)", get_band("lte5"), lte_efficiency_for_sinr, 0.0),
    ("NR n28 (20 MHz)", NR_BANDS["nr-n28"], nr_efficiency_for_sinr, 0.0),
    ("NR n78 (100 MHz, no BF)", NR_BANDS["nr-n78"],
     nr_efficiency_for_sinr, 0.0),
    ("NR n78 + 64-el beamforming", NR_BANDS["nr-n78"],
     nr_efficiency_for_sinr, beamforming_gain_db(64)),
]


def run(distances_m: Optional[List[float]] = None) -> ResultTable:
    """Downlink rate (Mbps) vs distance per radio generation."""
    distances = distances_m or DISTANCES_M
    table = ResultTable(
        "E14: dLTE radio upgrade — LTE vs NR, rate (Mbps) vs distance",
        ["arm"] + [f"d{int(d)}m" for d in distances])
    for name, band, eff_fn, gain in ARMS:
        row: Dict[str, object] = {"arm": name}
        for d in distances:
            row[f"d{int(d)}m"] = _arm_rate_bps(band, d, eff_fn, gain) / 1e6
        table.add_row(**row)
    return table


def latency_ladder() -> ResultTable:
    """Air-interface latency per numerology vs the LTE TTI."""
    table = ResultTable(
        "E14: air-interface scheduling latency per numerology",
        ["radio", "slot_ms", "air_latency_ms"])
    table.add_row(radio="LTE (1 ms TTI)", slot_ms=LTE_TTI_S * 1e3,
                  air_latency_ms=4 * LTE_TTI_S * 1e3)
    for mu in range(4):
        numerology = Numerology(mu)
        table.add_row(radio=f"NR mu={mu} ({numerology.scs_khz:g} kHz SCS)",
                      slot_ms=numerology.slot_duration_s * 1e3,
                      air_latency_ms=air_interface_latency_s(numerology) * 1e3)
    return table


def usable_range_m(arm_index: int) -> float:
    """Bisect the range where an arm's rate first hits zero."""
    name, band, eff_fn, gain = ARMS[arm_index]
    lo, hi = 100.0, 150_000.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if _arm_rate_bps(band, mid, eff_fn, gain) > 0:
            lo = mid
        else:
            hi = mid
    return lo


def range_summary() -> ResultTable:
    """Max usable range per radio generation."""
    table = ResultTable("E14: usable range per radio generation",
                        ["arm", "usable_km"])
    for i, (name, _band, _fn, _gain) in enumerate(ARMS):
        table.add_row(arm=name, usable_km=usable_range_m(i) / 1000.0)
    return table
