"""X2-AP over the Internet: the dLTE peer protocol.

The LTE spec already defines X2 for eNodeB-to-eNodeB handover and load
information (§4.3, ref [19]); dLTE "will run a version of X2 extended
with information about the dLTE operating mode and dLTE peer status."
Here the messages are dataclasses with representative sizes, and an
:class:`X2Endpoint` manages one AP's set of peer channels, counting
every byte. E9's "sizing X2 bandwidth" analysis (ref [28]) is computed
from the message sizes declared here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List

from repro.epc.agents import ControlAgent, ControlChannel, ControlMessage
from repro.simcore.simulator import Simulator


@dataclass
class X2Message:
    """Base X2-AP message."""

    sender_ap: str
    size_bytes: int = 100


@dataclass
class LoadInformation(X2Message):
    """Periodic load/interference report (standard X2)."""

    prb_utilization: float = 0.0
    attached_ues: int = 0
    size_bytes: int = 150


@dataclass
class HandoverRequest(X2Message):
    """Source AP -> target AP: take this UE (X2 handover).

    Its 250 B budget covers the UE's identity and its cached
    authentication material (key context), so the target stub could
    admit the client without a registry fetch — the dLTE analogue of
    LTE's X2 security-context transfer, and the paper's "fast
    re-authentication technologies" (§6). E9 reads only the size.
    """

    size_bytes: int = 250


@dataclass
class HandoverRequestAck(X2Message):
    """Target AP -> source AP: admitted; UE may be told to move."""

    size_bytes: int = 150


@dataclass
class DlteModeInfo(X2Message):
    """dLTE extension: operating mode + peer status (§4.3)."""

    mode: str = "fair-sharing"       # or "cooperative"
    peer_status: str = "active"
    size_bytes: int = 120


@dataclass
class PrbClaim(X2Message):
    """dLTE extension: this AP's claim on the shared grid.

    ``demand_weight`` is 1.0 for plain fair sharing; demand-weighted
    sharing (the E5 ablation) reports actual load.
    """

    n_prbs: int = 0
    demand_weight: float = 1.0
    epoch: int = 0
    size_bytes: int = 130


class X2Endpoint(ControlAgent):
    """One AP's X2 stack: peer channels, dispatch, byte accounting."""

    def __init__(self, sim: Simulator, ap_id: str,
                 service_time_s: float = 0.2e-3) -> None:
        super().__init__(sim, f"x2:{ap_id}", service_time_s)
        self.ap_id = ap_id
        self.peers: Dict[str, ControlChannel] = {}
        self.handlers: List[Callable[[str, X2Message], None]] = []
        #: called with the peer ap_id whenever a new channel is
        #: established (either side may initiate); liveness monitors use
        #: this to grant a fresh window instead of judging a rejoining
        #: peer by its stale pre-crash timestamp
        self.on_peer_connected: List[Callable[[str], None]] = []
        self.bytes_sent = 0
        self.messages_sent = 0

    def connect_peer(self, peer: "X2Endpoint",
                     one_way_delay_s: float) -> ControlChannel:
        """Create (or return) the bidirectional channel to ``peer``.

        Internet-backhaul latency lives here: two rural APs peering over
        a national ISP can easily see tens of ms.
        """
        if peer.ap_id in self.peers:
            return self.peers[peer.ap_id]
        channel = ControlChannel(self.sim, self, peer, one_way_delay_s,
                                 name=f"x2:{self.ap_id}<->{peer.ap_id}")
        self.peers[peer.ap_id] = channel
        peer.peers[self.ap_id] = channel
        for hook in self.on_peer_connected:
            hook(peer.ap_id)
        for hook in peer.on_peer_connected:
            hook(self.ap_id)
        return channel

    def disconnect_peer(self, peer_ap_id: str) -> None:
        """Drop the peering (both directions)."""
        channel = self.peers.pop(peer_ap_id, None)
        if channel is not None:
            other = channel.other_end(self)
            if isinstance(other, X2Endpoint):
                other.peers.pop(self.ap_id, None)

    @property
    def peer_ids(self) -> FrozenSet[str]:
        """Currently connected peer AP ids."""
        return frozenset(self.peers)

    def send(self, peer_ap_id: str, message: X2Message) -> None:
        """Send to one peer (KeyError if not connected)."""
        channel = self.peers[peer_ap_id]
        self.bytes_sent += message.size_bytes
        self.messages_sent += 1
        channel.send(self, message)

    def broadcast(self, message: X2Message) -> None:
        """Send to every connected peer."""
        for peer_ap_id in list(self.peers):
            self.send(peer_ap_id, message)

    def add_handler(self, handler: Callable[[str, X2Message], None]) -> None:
        """Subscribe to inbound messages: ``handler(from_ap, message)``."""
        self.handlers.append(handler)

    def handle(self, message: ControlMessage) -> None:
        payload = message.payload
        if not isinstance(payload, X2Message):
            return
        for handler in self.handlers:
            handler(payload.sender_ap, payload)
