"""The centralized SAS: one API-driven grant database (CBRS model).

"In the United States, the Citizen's Broadband Radio Service will use
automated Spectrum Access Systems, contracted by the FCC and reachable
via API, to dole out geolocated licenses … based on local demand" (§4.3,
ref [38]).

Characteristics measured in E10: fast joins and queries (one RTT plus
processing), but a single point of failure — when the SAS is down,
nobody can join or discover.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional

from repro.simcore.simulator import Simulator
from repro.spectrum.grants import ApRecord, SpectrumGrant, in_contention
from repro.spectrum.registry import (
    DiscoverCallback,
    GrantCallback,
    SpectrumRegistry,
)


class SasRegistry(SpectrumRegistry):
    """One central grant server.

    Args:
        rtt_s: client-to-SAS round trip.
        processing_s: server-side handling per request.
        max_density_per_domain: refuse a grant when the contention domain
            already holds this many grants (local-demand admission, as a
            SAS would enforce).
    """

    #: CBRS-style lease: a grant is valid this long past its last
    #: successful heartbeat; None disables leasing (perpetual grants).
    DEFAULT_LEASE_S = 240.0

    def __init__(self, sim: Simulator, rtt_s: float = 0.050,
                 processing_s: float = 0.010,
                 max_density_per_domain: Optional[int] = None,
                 lease_s: Optional[float] = None) -> None:
        super().__init__(sim)
        if rtt_s < 0 or processing_s < 0:
            raise ValueError("latencies must be non-negative")
        if lease_s is not None and lease_s <= 0:
            raise ValueError("lease must be positive (or None)")
        self.rtt_s = rtt_s
        self.processing_s = processing_s
        self.max_density_per_domain = max_density_per_domain
        self.lease_s = lease_s
        self._grants: Dict[str, SpectrumGrant] = {}
        self._grant_ids = itertools.count(1)
        self._down = False
        self.refused = 0
        self.heartbeats_served = 0
        self.grants_expired = 0
        self._sweeping = False

    # -- availability ------------------------------------------------------------

    def fail(self) -> None:
        """Take the SAS offline (E10 failure injection)."""
        self._down = True

    def restore(self) -> None:
        """Bring the SAS back."""
        self._down = False

    def is_available(self) -> bool:
        return not self._down

    # -- lease expiry ------------------------------------------------------------
    #
    # ``SpectrumGrant.active_at`` is the single authority on whether a
    # grant is in force: density admission, discovery, and renewal all
    # consult it, and the sweep merely reclaims the book-keeping for
    # grants it already says are dead.

    def purge_expired(self) -> int:
        """Drop every grant whose lease has lapsed; returns the count."""
        now = self.sim.now
        lapsed = [ap_id for ap_id, g in self._grants.items()
                  if not g.active_at(now)]
        for ap_id in lapsed:
            grant = self._grants.pop(ap_id)
            self.grants_expired += 1
            self._m_expired.inc()
            self.sim.trace("spectrum", "grant expired",
                           ap=ap_id, grant=grant.grant_id)
        return len(lapsed)

    def start_expiry_sweep(self, interval_s: Optional[float] = None) -> None:
        """Run :meth:`purge_expired` periodically (idempotent).

        Defaults to half the lease; a no-op for lease-free registries.
        """
        if self._sweeping or self.lease_s is None:
            return
        self._sweeping = True
        period = interval_s if interval_s is not None else self.lease_s / 2.0
        if period <= 0:
            raise ValueError("sweep interval must be positive")

        def sweep():
            while True:
                yield self.sim.timeout(period)
                self.purge_expired()

        self.sim.process(sweep())

    def _active_grant(self, ap_id: str) -> Optional[SpectrumGrant]:
        grant = self._grants.get(ap_id)
        if grant is not None and not grant.active_at(self.sim.now):
            return None
        return grant

    # -- operations --------------------------------------------------------------

    def request_grant(self, record: ApRecord, callback: GrantCallback) -> None:
        if self._down:
            self.sim.schedule(self.rtt_s, callback, None)  # timeout-ish
            return
        self.sim.schedule(self.rtt_s + self.processing_s,
                          self._decide_grant, record, callback)

    def _decide_grant(self, record: ApRecord, callback: GrantCallback) -> None:
        if self._down:
            callback(None)
            return
        if self.max_density_per_domain is not None:
            contenders = sum(
                1 for g in self._grants.values()
                if g.active_at(self.sim.now)
                and in_contention(g.record, record))
            if contenders >= self.max_density_per_domain:
                self.refused += 1
                self._m_refused.inc()
                callback(None)
                return
        expires = (self.sim.now + self.lease_s
                   if self.lease_s is not None else None)
        grant = SpectrumGrant(grant_id=f"sas-{next(self._grant_ids)}",
                              record=record, granted_at=self.sim.now,
                              expires_at=expires)
        self._grants[record.ap_id] = grant
        self.grants_issued += 1
        self._m_grants.inc()
        callback(grant)

    # -- CBRS heartbeat: leases must be renewed or transmission stops ---------------

    def heartbeat(self, ap_id: str,
                  callback: "Callable[[Optional[SpectrumGrant]], None]"
                  ) -> None:
        """Renew a grant's lease; ``callback(renewed_grant_or_None)``.

        CBRS semantics: a CBSD that cannot heartbeat must cease
        transmission when its lease lapses — so a SAS outage eventually
        silences *running* APs, not just joining ones (measured in E10).
        """
        if self._down:
            self.sim.schedule(self.rtt_s, callback, None)
            return
        self.sim.schedule(self.rtt_s + self.processing_s,
                          self._renew, ap_id, callback)

    def _renew(self, ap_id: str,
               callback: "Callable[[Optional[SpectrumGrant]], None]") -> None:
        if self._down:
            callback(None)
            return
        old = self._active_grant(ap_id)
        if old is None:
            # unknown or lapsed: a CBSD whose lease ran out during an
            # outage must re-register, not merely heartbeat
            self.purge_expired()
            callback(None)
            return
        self.heartbeats_served += 1
        self._m_heartbeats.inc()
        expires = (self.sim.now + self.lease_s
                   if self.lease_s is not None else None)
        renewed = SpectrumGrant(grant_id=old.grant_id, record=old.record,
                                granted_at=old.granted_at,
                                expires_at=expires)
        self._grants[ap_id] = renewed
        callback(renewed)

    def discover_neighbors(self, ap_id: str,
                           callback: DiscoverCallback) -> None:
        if self._down:
            self.sim.schedule(self.rtt_s, callback, [])
            return
        self.sim.schedule(self.rtt_s + self.processing_s,
                          self._answer_neighbors, ap_id, callback)

    def _answer_neighbors(self, ap_id: str, callback: DiscoverCallback) -> None:
        if self._down:
            callback([])
            return
        self.queries_served += 1
        self._m_queries.inc()
        me = self._active_grant(ap_id)
        if me is None:
            callback([])
            return
        now = self.sim.now
        neighbors = [g.record for other_id, g in self._grants.items()
                     if other_id != ap_id and g.active_at(now)
                     and in_contention(g.record, me.record)]
        callback(neighbors)

    @property
    def active_grants(self) -> int:
        """Grants currently in force (``active_at`` now)."""
        now = self.sim.now
        return sum(1 for g in self._grants.values() if g.active_at(now))
