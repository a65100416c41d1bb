"""Frequency band catalogue.

§3.2 of the paper: "LTE supports over forty different bands … basestations
and clients are commonly available at reasonable prices in bands with
better propagation and higher allowed power than the ISM bands, such as
bands 5 (850MHz), 30, or even 31 (450MHz)."

We catalogue the bands the paper names (plus the common mid-band ones and
CBRS band 48), with downlink/uplink center frequencies and representative
regulatory EIRP limits, and the WiFi ISM bands for comparison. Regulatory
limits are simplified to a single rural-deployment EIRP number per band;
the experiments only rely on the *relative* ordering (sub-GHz licensed
allows far more EIRP than 2.4/5 GHz ISM), which is robust.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class Band:
    """One operating band.

    Attributes:
        name: catalogue key, e.g. ``"lte5"`` or ``"wifi2g4"``.
        number: 3GPP band number, or None for WiFi.
        dl_mhz: downlink center frequency in MHz.
        ul_mhz: uplink center frequency in MHz (equal to dl for TDD/ISM).
        duplex: ``"FDD"``, ``"TDD"``, or ``"ISM"``.
        licensed: True for bands requiring a (possibly lightweight) license.
        max_eirp_dbm: representative regulatory EIRP cap for a fixed AP.
        max_client_eirp_dbm: EIRP cap for the client/handset side.
        bandwidth_hz: typical usable channel bandwidth.
    """

    name: str
    number: Optional[int]
    dl_mhz: float
    ul_mhz: float
    duplex: str
    licensed: bool
    max_eirp_dbm: float
    max_client_eirp_dbm: float
    bandwidth_hz: float


#: LTE bands the paper names, plus common comparison points.
LTE_BANDS: Dict[str, Band] = {
    # Band 31 (450 MHz): the extreme rural-coverage option the paper cites.
    "lte31": Band("lte31", 31, 462.5, 452.5, "FDD", True, 60.0, 23.0, 5e6),
    # Band 5 (850 MHz): the band of the paper's Papua deployment (§5).
    "lte5": Band("lte5", 5, 881.5, 836.5, "FDD", True, 60.0, 23.0, 10e6),
    # Band 30 (2.3 GHz region; the paper calls it "800MHz TV White Space" —
    # we follow the paper's intent of a TVWS-like sub-GHz allocation).
    "lte30tvws": Band("lte30tvws", 30, 800.0, 755.0, "FDD", True, 56.0, 23.0, 10e6),
    # Band 3 (1.8 GHz): a common urban macro band, for contrast.
    "lte3": Band("lte3", 3, 1842.5, 1747.5, "FDD", True, 60.0, 23.0, 20e6),
    # Band 48 (CBRS 3.55 GHz): the §4.3 SAS-governed band.
    "lte48cbrs": Band("lte48cbrs", 48, 3625.0, 3625.0, "TDD", True, 47.0, 23.0, 20e6),
}

#: WiFi ISM bands (802.11n-era assumptions, 20 MHz channels).
WIFI_BANDS: Dict[str, Band] = {
    "wifi2g4": Band("wifi2g4", None, 2437.0, 2437.0, "ISM", False, 36.0, 20.0, 20e6),
    "wifi5g": Band("wifi5g", None, 5240.0, 5240.0, "ISM", False, 30.0, 20.0, 20e6),
}

_ALL_BANDS: Dict[str, Band] = {**LTE_BANDS, **WIFI_BANDS}


def get_band(name: str) -> Band:
    """Look up a band by catalogue name; raises KeyError with choices."""
    try:
        return _ALL_BANDS[name]
    except KeyError:
        raise KeyError(
            f"unknown band {name!r}; choices: {sorted(_ALL_BANDS)}") from None
