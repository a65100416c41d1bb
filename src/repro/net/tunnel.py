"""GTP-U tunnels: how carrier LTE carries user traffic, and what dLTE removes.

In EPC-based LTE every user datagram is wrapped in GTP-U (outer IP + UDP
+ 8-byte GTP header, 36 bytes total) from the eNodeB to the S-GW and
again to the P-GW. dLTE's local core still speaks GTP between its eNodeB
and stub (the client expects a standard bearer) but the stub terminates
it on-box, so no tunnel crosses the backhaul (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.net.addressing import IPv4Address
from repro.net.packet import Packet

#: Outer IPv4 (20) + UDP (8) + GTP-U (8) headers.
GTP_HEADER_BYTES = 36


@dataclass(frozen=True)
class GtpTunnel:
    """One direction of a GTP-U bearer between two tunnel endpoints."""

    teid: int
    local_addr: IPv4Address
    remote_addr: IPv4Address

    def __post_init__(self) -> None:
        if not 0 < self.teid < 2**32:
            raise ValueError(f"TEID must be a 32-bit positive value, got {self.teid}")


class TunnelEndpoint:
    """Encapsulates / decapsulates packets for a set of GTP tunnels.

    Lives inside an S-GW, P-GW, eNodeB, or dLTE stub. ``encapsulate``
    rewrites the packet toward the tunnel peer and grows it by the GTP
    overhead; ``decapsulate`` pops the outer header and restores the
    inner addresses. The saved inner header rides on the packet's
    ``encap_stack``, so nesting (eNB->S-GW inside S-GW->P-GW) works.
    """

    def __init__(self, address: IPv4Address) -> None:
        self.address = address
        self._by_teid: Dict[int, GtpTunnel] = {}
        self.encapsulated = 0
        self.decapsulated = 0

    def add_tunnel(self, tunnel: GtpTunnel) -> None:
        """Register a tunnel terminating here; TEIDs must be unique."""
        if tunnel.local_addr != self.address:
            raise ValueError(
                f"tunnel local addr {tunnel.local_addr} is not this "
                f"endpoint ({self.address})")
        if tunnel.teid in self._by_teid:
            raise ValueError(f"TEID {tunnel.teid} already registered")
        self._by_teid[tunnel.teid] = tunnel

    def tunnel(self, teid: int) -> Optional[GtpTunnel]:
        """Look up a registered tunnel."""
        return self._by_teid.get(teid)

    def encapsulate(self, packet: Packet, teid: int) -> Packet:
        """Wrap ``packet`` for transport to the tunnel peer (in place)."""
        tunnel = self._by_teid.get(teid)
        if tunnel is None:
            raise KeyError(f"no tunnel with TEID {teid} at {self.address}")
        stack = packet.encap_stack
        if stack is None:
            stack = packet.encap_stack = []
        stack.append({
            "src": packet.src, "dst": packet.dst, "teid": teid,
        })
        packet.src = tunnel.local_addr
        packet.dst = tunnel.remote_addr
        packet.size_bytes += GTP_HEADER_BYTES
        self.encapsulated += 1
        return packet

    def decapsulate(self, packet: Packet) -> Packet:
        """Pop the outermost GTP layer (in place); validates addressing."""
        if not packet.encap_stack:
            raise ValueError("packet is not GTP-encapsulated")
        if packet.dst != self.address:
            raise ValueError(
                f"packet dst {packet.dst} is not this endpoint ({self.address})")
        inner = packet.encap_stack.pop()
        packet.src = inner["src"]
        packet.dst = inner["dst"]
        packet.size_bytes -= GTP_HEADER_BYTES
        self.decapsulated += 1
        return packet
