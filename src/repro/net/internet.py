"""The Internet core: a latency fabric between attachment points.

dLTE coordinates "directly with peer APs via the Internet" (Fig. 1) and
serves clients from OTT services across it, so the Internet itself is a
first-class substrate. We model it as one router with per-attachment
access delays: the path A->B costs A's access delay + B's access delay
(+ forwarding), which captures the triangle-free geometry of a well-
peered core without modelling individual ASes.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.nodes import NetworkNode, Router
from repro.simcore.simulator import Simulator


class InternetCore(Router):
    """A single well-connected core router.

    Attach edge nodes with :meth:`attach`, giving each the one-way access
    delay from that edge into the core (e.g. 10 ms for a rural satellite-
    free fiber POP, 300 ms for GEO satellite backhaul).
    """

    def __init__(self, sim: Simulator, name: str = "internet",
                 forwarding_delay_s: float = 1e-4) -> None:
        super().__init__(sim, name, forwarding_delay_s)
        self._access_delay_s: Dict[str, float] = {}

    def attach(self, edge: NetworkNode, prefix: str,
               access_delay_s: float = 0.010,
               access_rate_bps: float = float("inf"),
               queue_packets: int = 1000) -> None:
        """Connect ``edge`` and route ``prefix`` toward it.

        Creates symmetric links carrying the access delay, and installs
        the route so any attached node can reach any prefix.
        """
        if access_delay_s < 0:
            raise ValueError("access delay must be non-negative")
        self.attach_link(edge, access_rate_bps, access_delay_s, queue_packets)
        edge.attach_link(self, access_rate_bps, access_delay_s, queue_packets)
        self.add_route(prefix, edge.name)
        self._access_delay_s[edge.name] = access_delay_s
        if isinstance(edge, Router) and edge.default_route is None:
            edge.default_route = self.name

    def rtt_between_s(self, edge_a: str, edge_b: str) -> float:
        """Round-trip time between two attached edges (for planning)."""
        try:
            one_way = (self._access_delay_s[edge_a]
                       + self._access_delay_s[edge_b]
                       + self.forwarding_delay_s)
        except KeyError as missing:
            raise KeyError(f"edge {missing} is not attached to {self.name}") from None
        return 2.0 * one_way

    def access_delay_s(self, edge: str) -> Optional[float]:
        """The configured one-way access delay for an edge, if attached."""
        return self._access_delay_s.get(edge)
