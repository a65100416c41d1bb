"""Radio physical layer: bands, propagation, link budget, MCS, HARQ.

This package is the substrate behind the paper's §3.2 claims ("Spectrum
Bands" and "LTE Waveform"): LTE's sub-GHz band options propagate farther
than WiFi's ISM bands, and LTE's SC-FDMA uplink plus HARQ hold links
together at SINRs where WiFi's OFDM dies. All of these are consequences
of standard link-budget physics and the 3GPP/802.11 rate tables, which is
what this package implements.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bands": ("Band", "LTE_BANDS", "WIFI_BANDS", "get_band"),
    "fading": ("ShadowingField",),
    "harq": ("harq_goodput_factor",),
    "linkbudget": ("LinkBudget", "Radio", "sinr_db"),
    "mcs": (
        "LTE_CQI_TABLE", "WIFI_MCS_TABLE", "McsEntry",
        "lte_efficiency_for_sinr", "select_lte_cqi", "select_wifi_mcs",
        "wifi_rate_for_snr"),
    "propagation": (
        "Cost231Hata", "FreeSpace", "LogDistance", "OkumuraHata",
        "PropagationModel"),
    "resource_grid": ("ResourceGrid", "prbs_for_bandwidth"),
    "units": ("db_to_linear", "linear_to_db", "thermal_noise_dbm"),
})
