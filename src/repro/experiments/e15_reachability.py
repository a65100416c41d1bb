"""E15 (extension) — §4.2: public addressing vs NAT — who can host?

"Just like WiFi, access point owners maintain routing control since dLTE
terminates all LTE tunnels at the AP and outputs the client's
unencapsulated IP traffic" — and clients get "a new publicly routable IP
address." That makes a dLTE client a first-class Internet host: it can
*receive* connections — run a village web server, accept a peer-to-peer
call — which a client behind a typical NATed hotspot cannot.

Two arms, identical topology except the gateway:

* **dLTE (public addressing)** — the client holds a routable address
  from the AP's pool;
* **NATed hotspot** — the client sits behind a flow-NAT on the AP's
  single public address.

Measured per arm: outbound request/response success (both must work),
unsolicited inbound connection success (only public addressing), and the
NAT's drop counter.
"""

from __future__ import annotations

import ipaddress

from repro.metrics.tables import ResultTable
from repro.net import Host, InternetCore, NatRouter, Router
from repro.simcore.simulator import Simulator
from repro.transport.base import ConnectionState, TransportDemux
from repro.transport.quic import QuicConnection, QuicListener

IP = ipaddress.IPv4Address
REMOTE_ADDR = IP("203.0.113.10")


class ReachabilityHarness:
    """One client behind a gateway (NAT or plain), one remote peer."""

    def __init__(self, nat: bool, seed: int = 1) -> None:
        self.sim = Simulator(seed)
        sim = self.sim
        self.nat = nat
        self.internet = InternetCore(sim)
        public_gw_addr = IP("198.51.100.1")
        if nat:
            self.gateway = NatRouter(sim, "ap-gw", public_gw_addr,
                                     private_prefix="192.168.0.0/24")
            self.internet.attach(self.gateway, "198.51.100.0/24",
                                 access_delay_s=0.020)
            client_addr = IP("192.168.0.10")
        else:
            self.gateway = Router(sim, "ap-gw")
            self.internet.attach(self.gateway, "10.1.0.0/16",
                                 access_delay_s=0.020)
            client_addr = IP("10.1.0.10")
        self.client = Host(sim, "client", client_addr)
        self.client.connect_bidirectional(self.gateway, rate_bps=20e6,
                                          delay_s=5e-3)
        self.gateway.add_route(f"{client_addr}/32", "client")
        self.gateway.default_route = "internet"

        remote_edge = Router(sim, "remote-edge")
        self.internet.attach(remote_edge, "203.0.113.0/24",
                             access_delay_s=0.010)
        self.remote = Host(sim, "remote", REMOTE_ADDR)
        self.remote.connect_bidirectional(remote_edge, rate_bps=1e9,
                                          delay_s=0.5e-3)
        remote_edge.add_route(f"{REMOTE_ADDR}/32", "remote")

        self.client_demux = TransportDemux(self.client)
        self.remote_demux = TransportDemux(self.remote)

    @property
    def client_reachable_address(self) -> IP:
        """The address the outside world would have to dial."""
        if self.nat:
            return self.gateway.public_address
        return self.client.address

    def outbound_connect(self) -> bool:
        """Client dials the remote peer; True if established."""
        QuicListener(self.sim, self.remote_demux)
        conn = QuicConnection(sim=self.sim, demux=self.client_demux,
                              peer_addr=REMOTE_ADDR)
        conn.connect()
        self.sim.run(until=self.sim.now + 2.0)
        established = conn.state is ConnectionState.ESTABLISHED
        if established:
            conn.send_app_data(1200)
            self.sim.run(until=self.sim.now + 2.0)
            established = conn.bytes_acked >= 1200
        return established

    def inbound_connect(self) -> bool:
        """The remote peer dials the client; True if established."""
        QuicListener(self.sim, self.client_demux)
        conn = QuicConnection(sim=self.sim, demux=self.remote_demux,
                              peer_addr=self.client_reachable_address)
        conn.connect()
        self.sim.run(until=self.sim.now + 3.0)
        if conn.state is not ConnectionState.ESTABLISHED:
            return False
        conn.send_app_data(1200)
        self.sim.run(until=self.sim.now + 3.0)
        return conn.bytes_acked >= 1200


def run(seed: int = 1) -> ResultTable:
    """Outbound vs inbound connectivity per addressing model."""
    table = ResultTable(
        "E15: public addressing vs NAT — connection reachability",
        ["arm", "outbound_ok", "inbound_ok", "nat_unsolicited_drops"])
    for nat, label in ((False, "dLTE (public address)"),
                       (True, "NATed hotspot")):
        out_h = ReachabilityHarness(nat, seed)
        outbound = out_h.outbound_connect()
        in_h = ReachabilityHarness(nat, seed + 1)
        inbound = in_h.inbound_connect()
        drops = (in_h.gateway.unsolicited_drops
                 if isinstance(in_h.gateway, NatRouter) else 0)
        table.add_row(arm=label,
                      outbound_ok="yes" if outbound else "no",
                      inbound_ok="yes" if inbound else "no",
                      nat_unsolicited_drops=drops)
    return table
