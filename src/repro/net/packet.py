"""The packet: what every layer of the reproduction passes around."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.net.addressing import IPv4Address

#: IPv4 + transport header budget charged to every packet.
IP_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8

_packet_ids = itertools.count(1)

#: ECN codepoints (two-bit field, RFC 3168): transports that opt in mark
#: their data segments ECT; an AQM under congestion rewrites ECT -> CE
#: instead of dropping; the receiver echoes CE back as ECE.
ECN_NOT_ECT = 0
ECN_ECT = 1
ECN_CE = 3


@dataclass(slots=True)
class Packet:
    """A simulated IP datagram.

    Slotted and lazily listed: ``hops`` and ``encap_stack`` start as
    ``None`` and materialise on first use, because the transport fast
    path creates millions of packets that never traverse a recorded
    node or a tunnel — two list allocations per packet for nothing
    (see PERFORMANCE.md).

    Attributes:
        src / dst: IP endpoints. Tunnels rewrite these and stash the
            originals on the ``encap_stack``.
        size_bytes: total on-wire size including headers; tunneling adds
            to it, decapsulation subtracts.
        flow_id: transport flow tag, "" for control traffic.
        seq: transport sequence number (flow-scoped).
        payload: opaque application/control content (e.g. a NAS message).
        created_at: simulated birth time, for latency accounting.
        hops: network nodes traversed, appended by the forwarding engine —
            this is how F1 reports path length. ``None`` until the first
            hop is recorded.
        encap_stack: saved (src, dst, size) frames pushed by tunnels.
            ``None`` until the first encapsulation.
        ecn: the ECN codepoint (:data:`ECN_NOT_ECT` default; transports
            set :data:`ECN_ECT`, congested AQMs rewrite to
            :data:`ECN_CE`).
    """

    src: Optional[IPv4Address]
    dst: Optional[IPv4Address]
    size_bytes: int
    flow_id: str = ""
    seq: int = 0
    payload: Any = None
    created_at: float = 0.0
    packet_id: int = 0
    hops: Optional[List[str]] = None
    encap_stack: Optional[List[Dict[str, Any]]] = None
    ecn: int = ECN_NOT_ECT

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.size_bytes}")
        if self.packet_id == 0:
            self.packet_id = next(_packet_ids)

    @property
    def hop_count(self) -> int:
        """Number of forwarding nodes traversed so far."""
        hops = self.hops
        return len(hops) if hops is not None else 0

    @property
    def tunnel_depth(self) -> int:
        """How many encapsulation layers are currently on the packet."""
        stack = self.encap_stack
        return len(stack) if stack is not None else 0

    def record_hop(self, node_name: str) -> None:
        """Append a traversed node (called by the forwarding engine)."""
        hops = self.hops
        if hops is None:
            hops = self.hops = []
        hops.append(node_name)

    def age(self, now: float) -> float:
        """Seconds since the packet was created."""
        return now - self.created_at
