"""NAT: the gateway model dLTE explicitly avoids.

§4.2: dLTE clients get "a new publicly routable IP address" from the AP
— they are first-class Internet hosts. The common alternative (WiFi
hotspots, CGNAT'd carriers) hides clients behind a translator: outbound
flows work, but *unsolicited inbound* traffic has no binding and is
dropped, so clients cannot host services or accept peer-to-peer
connections. :class:`NatRouter` implements that asymmetry at flow
granularity so E15 can measure what public addressing is worth.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.addressing import IPv4Address
from repro.net.nodes import NetworkNode, Router
from repro.net.packet import Packet
from repro.simcore.simulator import Simulator


class NatRouter(Router):
    """A flow-granular source NAT on the site's public address.

    Private clients live behind ``private_prefix``; every outbound flow
    installs a binding (flow_id -> private address); inbound packets are
    translated back through the binding or dropped as unsolicited.
    """

    def __init__(self, sim: Simulator, name: str,
                 public_address: IPv4Address, private_prefix: str,
                 forwarding_delay_s: float = 20e-6) -> None:
        import ipaddress

        super().__init__(sim, name, forwarding_delay_s)
        self.public_address = public_address
        self.private_network = ipaddress.IPv4Network(private_prefix)
        self._bindings: Dict[str, IPv4Address] = {}
        self.translated_out = 0
        self.translated_in = 0
        self.unsolicited_drops = 0
        if sim.checker is not None:
            sim.checker.watch_nat(self)

    def binding_for(self, flow_id: str) -> Optional[IPv4Address]:
        """The private address a flow is bound to, if any."""
        return self._bindings.get(flow_id)

    @property
    def active_bindings(self) -> int:
        """Currently installed flow bindings."""
        return len(self._bindings)

    def _is_private(self, address: Optional[IPv4Address]) -> bool:
        return address is not None and address in self.private_network

    def receive(self, packet: Packet) -> None:
        """Translate, then forward as any router does."""
        if packet.dst == self.public_address:
            private = self._bindings.get(packet.flow_id)
            if private is None:
                # unsolicited: counted and recorded, nobody to deliver to
                NetworkNode.receive(self, packet)
                self.unsolicited_drops += 1
                return
            packet.dst = private
            self.translated_in += 1
        elif self._is_private(packet.src) and not self._is_private(packet.dst):
            # outbound: bind and masquerade before the route lookup
            if packet.flow_id:
                self._bindings[packet.flow_id] = packet.src
            packet.src = self.public_address
            self.translated_out += 1
        super().receive(packet)
