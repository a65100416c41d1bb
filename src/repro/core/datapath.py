"""User-plane data paths: local breakout vs EPC tunneling (Figure 1).

dLTE needs no machinery here — the stub terminates GTP on-box and the
AP's router forwards plain IP. Carrier LTE's user plane is this module:

* :class:`EnbDataPlane` — at each cell site: uplink traffic is GTP-
  encapsulated toward the EPC; downlink GTP from the EPC is terminated
  and handed to the client.
* :class:`EpcDataPlane` — at the EPC site (S-GW/P-GW user plane,
  co-located): terminates uplink tunnels and forwards to the Internet;
  wraps downlink traffic for whichever eNodeB currently serves the UE.

Every user packet therefore crosses the Internet *twice* on the carrier
path (AP -> EPC -> Internet), carrying 36 bytes of GTP overhead on the
first leg — exactly the triangle F1 measures.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.net.addressing import IPv4Address
from repro.net.nodes import Host, NetworkNode
from repro.net.packet import Packet
from repro.net.tunnel import GtpTunnel, TunnelEndpoint
from repro.simcore.simulator import Simulator

_teids = itertools.count(5000)


class EnbDataPlane(NetworkNode):
    """Cell-site user plane: the S1-U end of the bearer."""

    def __init__(self, sim: Simulator, name: str, address: IPv4Address,
                 epc_address: IPv4Address, uplink_via: str) -> None:
        super().__init__(sim, name)
        self.address = address
        self.epc_address = epc_address
        self.uplink_via = uplink_via          # neighbour name toward the EPC
        self.tunnels = TunnelEndpoint(address)
        if sim.checker is not None:
            sim.checker.watch_tunnel(self.tunnels)
        self._ue_host_by_addr: Dict[IPv4Address, str] = {}
        self._uplink_teid: Optional[int] = None
        #: optional per-bearer QoS gate (repro.epc.qos.BearerPolicer);
        #: None keeps the seed's unpoliced path at one is-None check
        self.policer = None

    def open_bearer(self) -> int:
        """Create the site's uplink tunnel toward the EPC (idempotent)."""
        if self._uplink_teid is None:
            teid = next(_teids)
            self.tunnels.add_tunnel(GtpTunnel(teid, self.address,
                                              self.epc_address))
            self._uplink_teid = teid
        return self._uplink_teid

    def register_ue(self, ue_address: IPv4Address, ue_host: Host) -> None:
        """Bind a UE's bearer address to its host (downlink delivery)."""
        self._ue_host_by_addr[ue_address] = ue_host.name

    def deregister_ue(self, ue_address: IPv4Address) -> None:
        """Remove the binding on detach/handover-away."""
        self._ue_host_by_addr.pop(ue_address, None)

    def handle(self, packet: Packet) -> None:
        if packet.dst == self.address and packet.tunnel_depth > 0:
            # downlink: terminate GTP, deliver to the client
            self.tunnels.decapsulate(packet)
            host_name = self._ue_host_by_addr.get(packet.dst)
            if host_name is not None and host_name in self.links:
                self.send_via(host_name, packet)
            return
        # uplink from a UE: wrap and push toward the EPC
        if self._uplink_teid is None:
            return  # no bearer yet: drop
        if self.policer is not None and not self.policer.admit(packet):
            return  # shed at the cell site, accounted by the policer
        self.tunnels.encapsulate(packet, self._uplink_teid)
        self.send_via(self.uplink_via, packet)


class EpcDataPlane(NetworkNode):
    """EPC-site user plane: S-GW/P-GW combined (co-located gateways)."""

    def __init__(self, sim: Simulator, name: str, address: IPv4Address,
                 internet_via: str,
                 processing_delay_s: float = 0.2e-3) -> None:
        super().__init__(sim, name)
        self.address = address
        self.internet_via = internet_via
        self.processing_delay_s = processing_delay_s
        self.tunnels = TunnelEndpoint(address)
        if sim.checker is not None:
            sim.checker.watch_tunnel(self.tunnels)
        self._enb_by_ue_addr: Dict[IPv4Address, IPv4Address] = {}
        self._teid_by_enb: Dict[IPv4Address, int] = {}
        self.uplink_packets = 0
        self.downlink_packets = 0
        #: optional per-bearer QoS gate (repro.epc.qos.BearerPolicer)
        self.policer = None

    def register_ue(self, ue_address: IPv4Address,
                    enb_address: IPv4Address) -> None:
        """Point a UE's downlink bearer at its serving eNodeB.

        Re-registering with a new eNodeB is the data-plane half of an
        MME path switch.
        """
        self._enb_by_ue_addr[ue_address] = enb_address
        if enb_address not in self._teid_by_enb:
            teid = next(_teids)
            self.tunnels.add_tunnel(GtpTunnel(teid, self.address, enb_address))
            self._teid_by_enb[enb_address] = teid

    def deregister_ue(self, ue_address: IPv4Address) -> None:
        """Release a UE's downlink binding."""
        self._enb_by_ue_addr.pop(ue_address, None)

    def handle(self, packet: Packet) -> None:
        self.sim.schedule(self.processing_delay_s, self._process, packet)

    def _process(self, packet: Packet) -> None:
        if packet.dst == self.address and packet.tunnel_depth > 0:
            # uplink: terminate the bearer, forward to the Internet
            self.tunnels.decapsulate(packet)
            if self.policer is not None and not self.policer.admit(packet):
                return  # shed at the S-GW/P-GW, accounted by the policer
            self.uplink_packets += 1
            self.send_via(self.internet_via, packet)
            return
        # downlink: find the serving eNodeB and wrap
        enb_address = self._enb_by_ue_addr.get(packet.dst)
        if enb_address is None:
            return  # UE unknown (detached): drop
        if self.policer is not None and not self.policer.admit(packet):
            return
        self.downlink_packets += 1
        self.tunnels.encapsulate(packet, self._teid_by_enb[enb_address])
        self.send_via(self.internet_via, packet)
