"""The dLTE published-key registry (§4.2).

"LTE's authentication relies on symmetric key encryption at the link
layer, so users can simply pre-publish their keys to allow any
associated dLTE AP to authenticate with them."

The registry is an Internet-hosted table of IMSI -> K for users who have
opted into open dLTE access. A stub core queries it on the first attach
of an unknown IMSI (paying one registry RTT) and caches the result, so
steady-state attaches are fully local. Publication is per-profile: a
user's carrier SIM stays private while their dLTE e-SIM identity is open
(the e-SIM multi-profile model the paper cites).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.epc.subscriber import SubscriberProfile
from repro.simcore.simulator import Simulator


class PublishedKeyRegistry:
    """A public IMSI->key table with a query latency.

    Lookups are asynchronous: callers pass a callback which fires after
    ``lookup_rtt_s`` of simulated time, mimicking an HTTPS query to a
    registry service.
    """

    def __init__(self, sim: Simulator, lookup_rtt_s: float = 0.050) -> None:
        if lookup_rtt_s < 0:
            raise ValueError("lookup RTT must be non-negative")
        self.sim = sim
        self.lookup_rtt_s = lookup_rtt_s
        self._keys: Dict[str, bytes] = {}
        self.lookups = 0
        self.publishes = 0

    def publish(self, profile: SubscriberProfile) -> None:
        """Publish a profile's key; only ``published=True`` profiles allowed.

        The guard models user consent — carriers' private SIMs must never
        end up in the open registry.
        """
        if not profile.published:
            raise ValueError(
                f"profile {profile.imsi} is not marked published; refusing "
                f"to expose a private key")
        self._keys[profile.imsi] = profile.key
        self.publishes += 1

    def lookup(self, imsi: str,
               callback: Callable[[Optional[bytes]], None]) -> None:
        """Query the registry; ``callback(key_or_None)`` after the RTT."""
        self.lookups += 1
        key = self._keys.get(imsi)
        self.sim.schedule(self.lookup_rtt_s, callback, key)

    def __len__(self) -> int:
        return len(self._keys)
