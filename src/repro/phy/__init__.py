"""Radio physical layer: bands, propagation, link budget, MCS, HARQ.

This package is the substrate behind the paper's §3.2 claims ("Spectrum
Bands" and "LTE Waveform"): LTE's sub-GHz band options propagate farther
than WiFi's ISM bands, and LTE's SC-FDMA uplink plus HARQ hold links
together at SINRs where WiFi's OFDM dies. All of these are consequences
of standard link-budget physics and the 3GPP/802.11 rate tables, which is
what this package implements.
"""

from repro.phy.antenna import OmniAntenna, SectorAntenna, sector_boresights
from repro.phy.bands import Band, LTE_BANDS, WIFI_BANDS, get_band
from repro.phy.fading import ShadowingField
from repro.phy.harq import HarqProcess, harq_goodput_factor
from repro.phy.linkbudget import LinkBudget, Radio, sinr_db
from repro.phy.mcs import (
    LTE_CQI_TABLE,
    WIFI_MCS_TABLE,
    McsEntry,
    lte_efficiency_for_sinr,
    select_lte_cqi,
    select_wifi_mcs,
    wifi_rate_for_snr,
)
from repro.phy.propagation import (
    Cost231Hata,
    FreeSpace,
    LogDistance,
    OkumuraHata,
    PropagationModel,
    TwoRayGround,
)
from repro.phy.resource_grid import ResourceGrid, prbs_for_bandwidth
from repro.phy.units import (
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    thermal_noise_dbm,
    watts_to_dbm,
)

__all__ = [
    "OmniAntenna", "SectorAntenna", "sector_boresights",
    "Band", "LTE_BANDS", "WIFI_BANDS", "get_band",
    "ShadowingField",
    "HarqProcess", "harq_goodput_factor",
    "LinkBudget", "Radio", "sinr_db",
    "LTE_CQI_TABLE", "WIFI_MCS_TABLE", "McsEntry",
    "lte_efficiency_for_sinr", "select_lte_cqi", "select_wifi_mcs",
    "wifi_rate_for_snr",
    "PropagationModel", "FreeSpace", "LogDistance", "TwoRayGround",
    "OkumuraHata", "Cost231Hata",
    "ResourceGrid", "prbs_for_bandwidth",
    "db_to_linear", "linear_to_db", "dbm_to_watts", "watts_to_dbm",
    "thermal_noise_dbm",
]
