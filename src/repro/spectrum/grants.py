"""Spectrum grants and RF contention geometry.

A grant ties an AP to a band at a location. Two grants *contend* when
they share a band and their interference footprints overlap — that is
the "same RF contention domain" whose membership the registry must
report (§4.3). Footprint radius scales with wavelength and EIRP, so
sub-GHz rural cells have much larger coordination neighbourhoods than
CBRS midband ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.geo.points import Point
from repro.phy.bands import Band


@dataclass(frozen=True)
class ApRecord:
    """What an AP registers: identity, location, radio parameters.

    ``contact`` is the Internet rendezvous (host:port-like string) that
    peers use for X2-over-Internet coordination after discovery.
    """

    ap_id: str
    position: Point
    band: Band
    eirp_dbm: float
    contact: str = ""

    def __post_init__(self) -> None:
        if not self.ap_id:
            raise ValueError("ap_id must be non-empty")


@dataclass(frozen=True)
class SpectrumGrant:
    """A registry-issued license to operate.

    Attributes:
        grant_id: registry-unique id.
        record: the AP the grant covers.
        granted_at: simulated issue time.
        expires_at: lease end (None = does not expire).
    """

    grant_id: str
    record: ApRecord
    granted_at: float
    expires_at: Optional[float] = None

    def active_at(self, time_s: float) -> bool:
        """True when the grant is in force at ``time_s``."""
        return (time_s >= self.granted_at
                and (self.expires_at is None or time_s < self.expires_at))


def contention_radius_m(band: Band, eirp_dbm: float) -> float:
    """Interference footprint radius for an AP on ``band`` at ``eirp_dbm``.

    A planning-grade approximation: the distance at which the received
    level falls to a -100 dBm interference floor under a rural
    two-slope model. Doubles roughly per 6 dB of EIRP and shrinks with
    frequency — the point is the *ordering* (band 5 footprints are
    several times larger than CBRS footprints), which drives how many
    peers a dLTE AP must coordinate with.
    """
    interference_floor_dbm = -100.0
    # free space to 1 km, then exponent-3.5 beyond (rural clutter)
    fspl_1km = 20.0 * math.log10(band.dl_mhz) + 32.44
    budget_db = eirp_dbm - interference_floor_dbm - fspl_1km
    if budget_db <= 0:
        # footprint inside 1 km: invert free space directly
        return 1000.0 * 10.0 ** (budget_db / 20.0)
    return 1000.0 * 10.0 ** (budget_db / 35.0)


def in_contention(a: ApRecord, b: ApRecord) -> bool:
    """True when two registered APs share an RF contention domain."""
    if a.band.name != b.band.name:
        return False
    reach = (contention_radius_m(a.band, a.eirp_dbm)
             + contention_radius_m(b.band, b.eirp_dbm))
    return a.position.distance_to(b.position) <= reach
