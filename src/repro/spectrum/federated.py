"""The federated registry: DNS-like regional delegation.

"Different registry designs are also possible, such as a federated
system similar to the DNS" (§4.3). Space is divided into square regions,
each owned by an authority node. A client talks to the authority for its
own region (one referral RTT on first contact, cached after); neighbor
discovery near region edges fans out to adjacent authorities.

Characteristics measured in E10: joins almost as fast as the SAS,
discovery slightly slower near borders, and *partial* failure — one
authority down blacks out only its region.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Set, Tuple

from repro.geo.points import Point
from repro.simcore.simulator import Simulator
from repro.spectrum.grants import ApRecord, SpectrumGrant, contention_radius_m, in_contention
from repro.spectrum.registry import (
    DiscoverCallback,
    GrantCallback,
    SpectrumRegistry,
)

RegionKey = Tuple[int, int]


class FederatedRegistry(SpectrumRegistry):
    """Regional authorities over a square grid.

    Args:
        region_size_m: edge length of each authority's region.
        rtt_s: client-to-authority round trip.
        referral_rtt_s: extra root-referral RTT on first contact with a
            region (cached per client afterwards; we model the cache as
            per-AP).
    """

    def __init__(self, sim: Simulator, region_size_m: float = 20_000.0,
                 rtt_s: float = 0.040, referral_rtt_s: float = 0.040,
                 processing_s: float = 0.005) -> None:
        super().__init__(sim)
        if region_size_m <= 0:
            raise ValueError("region size must be positive")
        self.region_size_m = region_size_m
        self.rtt_s = rtt_s
        self.referral_rtt_s = referral_rtt_s
        self.processing_s = processing_s
        self._grants: Dict[RegionKey, Dict[str, SpectrumGrant]] = {}
        self._region_of: Dict[str, RegionKey] = {}
        self._grant_ids = itertools.count(1)
        self._failed_regions: Set[RegionKey] = set()
        self._known_regions: Dict[str, Set[RegionKey]] = {}  # ap -> cached
        self.refused = 0

    # -- geometry ---------------------------------------------------------------

    def region_key(self, position: Point) -> RegionKey:
        """The authority owning ``position``."""
        return (int(math.floor(position.x / self.region_size_m)),
                int(math.floor(position.y / self.region_size_m)))

    def _regions_within(self, position: Point, radius_m: float) -> List[RegionKey]:
        """All regions a footprint of ``radius_m`` around ``position`` touches."""
        lo_x, hi_x = position.x - radius_m, position.x + radius_m
        lo_y, hi_y = position.y - radius_m, position.y + radius_m
        keys = []
        for gx in range(int(math.floor(lo_x / self.region_size_m)),
                        int(math.floor(hi_x / self.region_size_m)) + 1):
            for gy in range(int(math.floor(lo_y / self.region_size_m)),
                            int(math.floor(hi_y / self.region_size_m)) + 1):
                keys.append((gx, gy))
        return keys

    # -- availability ---------------------------------------------------------------

    def fail_region(self, key: RegionKey) -> None:
        """Take one regional authority offline."""
        self._failed_regions.add(key)

    def is_available(self) -> bool:
        """True when at least one authority is serving (partial by design)."""
        return True  # the federation as a whole has no single off switch

    # -- operations --------------------------------------------------------------------

    def _contact_latency(self, ap_id: str, region: RegionKey) -> float:
        known = self._known_regions.setdefault(ap_id, set())
        if region in known:
            return self.rtt_s + self.processing_s
        known.add(region)
        return self.rtt_s + self.referral_rtt_s + self.processing_s

    def request_grant(self, record: ApRecord, callback: GrantCallback) -> None:
        region = self.region_key(record.position)
        latency = self._contact_latency(record.ap_id, region)
        if region in self._failed_regions:
            self.refused += 1
            self._m_refused.inc()
            self.sim.schedule(latency, callback, None)
            return
        self.sim.schedule(latency, self._issue, region, record, callback)

    def _issue(self, region: RegionKey, record: ApRecord,
               callback: GrantCallback) -> None:
        if region in self._failed_regions:
            callback(None)
            return
        grant = SpectrumGrant(grant_id=f"fed-{next(self._grant_ids)}",
                              record=record, granted_at=self.sim.now)
        self._grants.setdefault(region, {})[record.ap_id] = grant
        self._region_of[record.ap_id] = region
        self.grants_issued += 1
        self._m_grants.inc()
        callback(grant)

    def discover_neighbors(self, ap_id: str,
                           callback: DiscoverCallback) -> None:
        home = self._region_of.get(ap_id)
        if home is None:
            self.sim.schedule(self.rtt_s, callback, [])
            return
        me = self._grants[home][ap_id]
        radius = 2 * contention_radius_m(me.record.band, me.record.eirp_dbm)
        regions = self._regions_within(me.record.position, radius)
        # one (possibly referred) round trip per distinct authority,
        # queried in parallel: latency is the max of the contacts
        latency = max(self._contact_latency(ap_id, r) for r in regions)
        self.sim.schedule(latency, self._answer, ap_id, me, regions, callback)

    def _answer(self, ap_id: str, me: SpectrumGrant,
                regions: List[RegionKey], callback: DiscoverCallback) -> None:
        neighbors: List[ApRecord] = []
        for region in regions:
            if region in self._failed_regions:
                continue  # that slice of the map is dark
            for other_id, grant in self._grants.get(region, {}).items():
                if other_id != ap_id and in_contention(grant.record, me.record):
                    neighbors.append(grant.record)
        self.queries_served += 1
        self._m_queries.inc()
        callback(neighbors)

    @property
    def active_grants(self) -> int:
        """Grants across all regions."""
        return sum(len(g) for g in self._grants.values())
