"""Forwarding nodes: hosts and longest-prefix-match routers."""

from __future__ import annotations

import ipaddress
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.net.addressing import IPv4Address, address_key
from repro.net.links import Link
from repro.net.packet import Packet
from repro.simcore.simulator import Simulator

PrefixLike = Union[str, ipaddress.IPv4Network]


class NetworkNode:
    """Base node: named, owns outgoing links, receives packets."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.links: Dict[str, Link] = {}  # neighbour name -> link
        self.received = 0

    def attach_link(self, neighbor: "NetworkNode", rate_bps: float = float("inf"),
                    delay_s: float = 0.0, queue_packets: int = 100) -> Link:
        """Create (or replace) the unidirectional link to ``neighbor``."""
        link = Link(self.sim, rate_bps, delay_s, queue_packets,
                    name=f"{self.name}->{neighbor.name}")
        link.connect(neighbor.receive)
        self.links[neighbor.name] = link
        return link

    def connect_bidirectional(self, other: "NetworkNode",
                              rate_bps: float = float("inf"),
                              delay_s: float = 0.0,
                              queue_packets: int = 100) -> Tuple[Link, Link]:
        """Symmetric links both ways; returns (out_link, in_link)."""
        out = self.attach_link(other, rate_bps, delay_s, queue_packets)
        back = other.attach_link(self, rate_bps, delay_s, queue_packets)
        return out, back

    def receive(self, packet: Packet) -> None:
        """Entry point for packets arriving on any inbound link."""
        self.received += 1
        hops = packet.hops  # the hop record, kept inline: once per hop
        if hops is None:
            packet.hops = [self.name]
        else:
            hops.append(self.name)
        self.handle(packet)

    def handle(self, packet: Packet) -> None:
        """Node-specific processing; default drops silently-but-counted."""

    def send_via(self, neighbor_name: str, packet: Packet) -> bool:
        """Push a packet onto the link toward a named neighbour."""
        try:
            link = self.links[neighbor_name]
        except KeyError:
            raise KeyError(
                f"{self.name} has no link to {neighbor_name!r}; "
                f"neighbours: {sorted(self.links)}") from None
        return link.send(packet)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class Host(NetworkNode):
    """An endpoint with one or more addresses and an application callback."""

    def __init__(self, sim: Simulator, name: str,
                 address: Optional[IPv4Address] = None) -> None:
        super().__init__(sim, name)
        self.addresses: List[IPv4Address] = [address] if address else []
        self.on_packet: Optional[Callable[[Packet], None]] = None
        self.default_gateway: Optional[str] = None

    @property
    def address(self) -> Optional[IPv4Address]:
        """Primary address (first configured), or None."""
        return self.addresses[0] if self.addresses else None

    def add_address(self, address: IPv4Address) -> None:
        """Configure an additional address (multihoming / re-attach)."""
        if address not in self.addresses:
            self.addresses.append(address)

    def remove_address(self, address: IPv4Address) -> None:
        """Drop an address (e.g. on leaving an AP)."""
        self.addresses.remove(address)

    def handle(self, packet: Packet) -> None:
        if self.on_packet is not None:
            self.on_packet(packet)

    def send(self, packet: Packet) -> bool:
        """Send via the default gateway (or the only link)."""
        gateway = self.default_gateway
        if gateway is None:
            if len(self.links) != 1:
                raise RuntimeError(
                    f"{self.name}: no default gateway and {len(self.links)} links")
            gateway = next(iter(self.links))
        return self.send_via(gateway, packet)


class Router(NetworkNode):
    """Longest-prefix-match forwarding over static routes.

    The next hop is looked up at *ingress* and the packet offered to
    that link for ``now + forwarding_delay_s`` (:meth:`Link.send_at`):
    a transit hop is no event of its own, and ``forwarded``/``no_route``
    count at arrival. A route change re-decides the offers still inside
    the delay; popping an entry of ``links`` or assigning
    ``default_route`` does not (withdraw routes first).
    """

    def __init__(self, sim: Simulator, name: str,
                 forwarding_delay_s: float = 20e-6) -> None:
        super().__init__(sim, name)
        self.forwarding_delay_s = forwarding_delay_s
        self._routes: List[Tuple[ipaddress.IPv4Network, str]] = []
        #: forwarding cache: address_key(dst) -> matched neighbour *name*
        #: (None: no prefix matches, use the live ``default_route``)
        self._fib: Dict[int, Optional[str]] = {}
        #: time the latest offer falls due (are any inside the delay?)
        self._offered_until = 0.0
        self.default_route: Optional[str] = None
        self.forwarded = 0
        self.no_route = 0
        if sim.checker is not None:
            sim.checker.watch_router(self)

    def add_route(self, prefix: PrefixLike, neighbor_name: str) -> None:
        """Install a static route; most-specific prefix wins on lookup,
        equal-length prefixes keep insertion order."""
        net = ipaddress.IPv4Network(prefix)
        routes = self._routes
        index = len(routes)
        while index and routes[index - 1][0].prefixlen < net.prefixlen:
            index -= 1
        routes.insert(index, (net, neighbor_name))
        self._routes_changed()

    def remove_routes_to(self, neighbor_name: str) -> int:
        """Withdraw every route via a neighbour; returns count removed."""
        before = len(self._routes)
        self._routes = [r for r in self._routes if r[1] != neighbor_name]
        self._routes_changed()
        return before - len(self._routes)

    def _routes_changed(self) -> None:
        """Drop cached lookups and re-decide, for the same instant, the
        offers still inside the forwarding delay (rare: none, usually)."""
        self._fib.clear()
        now = self.sim.now
        if self._offered_until > now:
            recalled: List[Tuple[float, Packet]] = []
            for link in self.links.values():
                recalled += link.recall_offers(now)
            recalled.sort(key=itemgetter(0))  # re-offer in time order
            for at, packet in recalled:
                link = self.links.get(self.lookup(packet.dst))
                if link is None:
                    self.forwarded -= 1
                    self.no_route += 1
                else:
                    link.send_at(at, packet)

    def lookup(self, dst: IPv4Address) -> Optional[str]:
        """Next-hop neighbour for ``dst`` (longest match, then default)."""
        key = address_key(dst)
        try:
            neighbor = self._fib[key]
        except KeyError:
            neighbor = self._fib[key] = next(
                (name for net, name in self._routes if dst in net), None)
        return neighbor if neighbor is not None else self.default_route

    def receive(self, packet: Packet) -> None:
        """Count and record the hop, then offer ``packet`` to the next
        hop's link for ``now + forwarding_delay_s``. The body of
        :meth:`NetworkNode.receive` and :meth:`lookup`'s cache hit are
        written out here: this is the hop every transit packet pays."""
        self.received += 1
        hops = packet.hops
        if hops is None:
            packet.hops = [self.name]
        else:
            hops.append(self.name)
        try:
            neighbor = self._fib[address_key(packet.dst)]
        except KeyError:
            neighbor = self.lookup(packet.dst)
        except AttributeError:  # no destination address
            self.no_route += 1
            return
        link = self.links.get(
            self.default_route if neighbor is None else neighbor)
        if link is None:
            self.no_route += 1
            return
        self.forwarded += 1
        self._offered_until = at = self.sim.now + self.forwarding_delay_s
        link.send_at(at, packet)
