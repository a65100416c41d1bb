"""Provisioning advisor (§7 future work).

"One area is investigating how tools can support users in making
provisioning decisions beneficial to the health of the entire ecosystem.
We are interested in how both human-in-the-loop and automated systems
can help avoid the degradation of WiFi typical in chaotic deployments."

The advisor scores candidate AP sites against the registry's picture of
the incumbents: how much *new* area a site would cover, how many
incumbents it would force into its contention domain (coordination
burden), and whether turning its power down would decouple it. The
score rewards coverage the ecosystem lacks and penalizes crowding —
the anti-chaos objective in one number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.geo.points import Point
from repro.phy.bands import Band
from repro.spectrum.grants import ApRecord, contention_radius_m, in_contention


@dataclass(frozen=True)
class SiteAssessment:
    """The advisor's verdict on one candidate site.

    Attributes:
        position: the candidate location.
        eirp_dbm: the evaluated transmit EIRP.
        new_coverage_km2: area the candidate would serve that no
            incumbent currently covers (Monte-Carlo estimate).
        overlap_fraction: share of the candidate's own footprint already
            served by incumbents.
        new_peers: incumbents pulled into the candidate's contention
            domain (each one is ongoing coordination work).
        score: the ranking figure (higher = better for the ecosystem).
    """

    position: Point
    eirp_dbm: float
    new_coverage_km2: float
    overlap_fraction: float
    new_peers: int
    score: float


#: service radius as a fraction of the interference footprint: the area a
#: site actually serves well is much smaller than the area it pollutes.
SERVICE_RADIUS_FACTOR = 0.25
#: score penalty per incumbent forced into coordination, as a fraction of
#: the candidate's own service disk — crowding a big footprint costs more.
PEER_PENALTY_FRACTION = 0.05


class ProvisioningAdvisor:
    """Scores and ranks candidate sites against registry incumbents."""

    def __init__(self, band: Band, incumbents: Sequence[ApRecord],
                 seed: int = 0, mc_samples: int = 2000) -> None:
        if mc_samples < 100:
            raise ValueError("need at least 100 Monte-Carlo samples")
        self.band = band
        self.incumbents = list(incumbents)
        self._rng = np.random.default_rng(seed)
        self.mc_samples = mc_samples

    def _service_radius_m(self, eirp_dbm: float) -> float:
        return SERVICE_RADIUS_FACTOR * contention_radius_m(self.band,
                                                           eirp_dbm)

    def _covered_by_incumbent(self, point: Point) -> bool:
        for record in self.incumbents:
            radius = self._service_radius_m(record.eirp_dbm)
            if record.position.distance_to(point) <= radius:
                return True
        return False

    def assess(self, position: Point, eirp_dbm: float) -> SiteAssessment:
        """Evaluate one (position, EIRP) candidate."""
        radius = self._service_radius_m(eirp_dbm)
        # Monte-Carlo the candidate's service disk against incumbents
        rr = radius * np.sqrt(self._rng.random(self.mc_samples))
        theta = self._rng.random(self.mc_samples) * 2 * math.pi
        fresh = 0
        for r, t in zip(rr, theta):
            sample = Point(position.x + r * math.cos(t),
                           position.y + r * math.sin(t))
            if not self._covered_by_incumbent(sample):
                fresh += 1
        disk_km2 = math.pi * (radius / 1000.0) ** 2
        new_km2 = disk_km2 * fresh / self.mc_samples
        overlap = 1.0 - fresh / self.mc_samples

        candidate = ApRecord("candidate", position, self.band, eirp_dbm)
        peers = sum(1 for record in self.incumbents
                    if in_contention(candidate, record))
        score = new_km2 - PEER_PENALTY_FRACTION * disk_km2 * peers
        return SiteAssessment(position=position, eirp_dbm=eirp_dbm,
                              new_coverage_km2=new_km2,
                              overlap_fraction=overlap,
                              new_peers=peers, score=score)

    def rank(self, candidates: Sequence[Point],
             eirp_dbm: float) -> List[SiteAssessment]:
        """Assess every candidate; best ecosystem score first."""
        if not candidates:
            raise ValueError("no candidate sites given")
        assessments = [self.assess(p, eirp_dbm) for p in candidates]
        return sorted(assessments, key=lambda a: -a.score)

    def recommend_eirp(self, position: Point,
                       eirp_options_dbm: Sequence[float]) -> SiteAssessment:
        """Among power levels at one site, pick the best score.

        This is the "turn it down" advice: past the point where extra
        EIRP only adds overlap and peers, less power scores higher.
        """
        if not eirp_options_dbm:
            raise ValueError("no EIRP options given")
        return max((self.assess(position, e) for e in eirp_options_dbm),
                   key=lambda a: a.score)
