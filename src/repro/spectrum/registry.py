"""The registry interface every design implements.

The dLTE architecture's only requirement (§4.3): "the registry is open
and accurately reports which access points operate in each region." The
interface is asynchronous — every operation takes a callback fired after
the design's characteristic latency — so E10 can measure the designs
head-to-head, and failure injection is first-class so availability can
be measured too.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, List, Optional

from repro.spectrum.grants import ApRecord, SpectrumGrant
from repro.simcore.simulator import Simulator


GrantCallback = Callable[[Optional[SpectrumGrant]], None]
DiscoverCallback = Callable[[List[ApRecord]], None]


class SpectrumRegistry(ABC):
    """Base class: join (request a grant), discover peers, leave."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.grants_issued = 0
        self.queries_served = 0
        kind = type(self).__name__
        metrics = sim.metrics
        self._m_grants = metrics.counter("spectrum.grants_issued",
                                         registry=kind)
        self._m_queries = metrics.counter("spectrum.queries_served",
                                          registry=kind)
        self._m_refused = metrics.counter("spectrum.grants_refused",
                                          registry=kind)
        self._m_expired = metrics.counter("spectrum.grants_expired",
                                          registry=kind)
        self._m_heartbeats = metrics.counter("spectrum.heartbeats_served",
                                             registry=kind)

    @abstractmethod
    def request_grant(self, record: ApRecord, callback: GrantCallback) -> None:
        """Ask for a license; ``callback(grant_or_None)`` when decided.

        None means refused or the registry was unreachable.
        """

    @abstractmethod
    def discover_neighbors(self, ap_id: str,
                           callback: DiscoverCallback) -> None:
        """Fetch the APs sharing the caller's contention domain.

        The callback receives an empty list when the AP is unknown or
        the registry is unreachable.
        """

    @abstractmethod
    def deregister(self, ap_id: str) -> None:
        """Withdraw an AP's grant (idempotent)."""

    @abstractmethod
    def is_available(self) -> bool:
        """Can the registry currently serve requests?"""
