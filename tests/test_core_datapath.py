"""Unit tests for the carrier user-plane data path (repro.core.datapath)."""

import ipaddress

from repro.core.datapath import EnbDataPlane, EpcDataPlane
from repro.net import Host, InternetCore, Packet, Router
from repro.net.tunnel import GTP_HEADER_BYTES
from repro.simcore import Simulator

IP = ipaddress.IPv4Address


class CarrierPath:
    """Minimal carrier user plane: UE -- eNB -- (internet) -- EPC -- server."""

    def __init__(self, seed=0):
        self.sim = Simulator(seed)
        sim = self.sim
        self.internet = InternetCore(sim)
        # EPC site
        epc_router = Router(sim, "epc-gw")
        self.internet.attach(epc_router, "10.200.0.0/16",
                             access_delay_s=0.030)
        self.internet.add_route("172.16.0.0/24", "epc-gw")
        self.epc_data = EpcDataPlane(sim, "epc-data", IP("172.16.0.1"),
                                     internet_via="epc-gw")
        self.epc_data.connect_bidirectional(epc_router)
        epc_router.add_route("172.16.0.1/32", "epc-data")
        epc_router.add_route("10.200.0.0/16", "epc-data")
        epc_router.default_route = "internet"
        # cell site
        site_router = Router(sim, "site-gw")
        self.internet.attach(site_router, "172.17.0.0/24",
                             access_delay_s=0.020)
        self.enb_data = EnbDataPlane(sim, "enb-data", IP("172.17.0.1"),
                                     epc_address=IP("172.16.0.1"),
                                     uplink_via="site-gw")
        self.enb_data.connect_bidirectional(site_router)
        site_router.add_route("172.17.0.1/32", "enb-data")
        site_router.default_route = "internet"
        self.enb_data.open_bearer()
        # server
        server_edge = Router(sim, "server-edge")
        self.internet.attach(server_edge, "203.0.113.0/24",
                             access_delay_s=0.005)
        self.server = Host(sim, "server", IP("203.0.113.10"))
        self.server.connect_bidirectional(server_edge)
        server_edge.add_route("203.0.113.10/32", "server")
        # UE
        self.ue_host = Host(sim, "ue-host", IP("10.200.0.5"))
        self.ue_host.connect_bidirectional(self.enb_data)
        self.ue_host.default_gateway = "enb-data"
        self.enb_data.register_ue(IP("10.200.0.5"), self.ue_host)
        self.epc_data.register_ue(IP("10.200.0.5"), IP("172.17.0.1"))


def test_uplink_traverses_epc_and_sheds_gtp():
    path = CarrierPath()
    got = []
    path.server.on_packet = lambda p: got.append(p)
    path.ue_host.send(Packet(src=IP("10.200.0.5"), dst=IP("203.0.113.10"),
                             size_bytes=500))
    path.sim.run()
    assert len(got) == 1
    packet = got[0]
    assert packet.size_bytes == 500           # GTP removed at the EPC
    assert packet.tunnel_depth == 0
    assert "epc-data" in packet.hops          # the detour happened
    assert path.epc_data.uplink_packets == 1


def test_downlink_wrapped_and_delivered():
    path = CarrierPath()
    got = []
    path.ue_host.on_packet = lambda p: got.append(p)
    path.server.send(Packet(src=IP("203.0.113.10"), dst=IP("10.200.0.5"),
                            size_bytes=800))
    path.sim.run()
    assert len(got) == 1
    packet = got[0]
    assert packet.size_bytes == 800           # decapsulated at the eNB
    assert packet.tunnel_depth == 0
    assert "enb-data" in packet.hops
    assert path.epc_data.downlink_packets == 1


def test_downlink_for_unknown_ue_dropped():
    path = CarrierPath()
    got = []
    path.ue_host.on_packet = lambda p: got.append(p)
    # 10.200.0.6 routes to the EPC, which holds no binding for it
    path.server.send(Packet(src=IP("203.0.113.10"), dst=IP("10.200.0.6"),
                            size_bytes=100))
    path.sim.run()
    assert got == []
    assert path.epc_data.received == 1
    assert path.epc_data.downlink_packets == 0


def test_uplink_before_bearer_dropped():
    sim = Simulator(0)
    enb = EnbDataPlane(sim, "enb", IP("172.17.0.1"),
                       epc_address=IP("172.16.0.1"), uplink_via="nowhere")
    # no open_bearer() call
    enb.receive(Packet(src=IP("10.200.0.5"), dst=IP("8.8.8.8"),
                       size_bytes=100))
    sim.run()  # no crash, packet dropped


def test_open_bearer_idempotent():
    path = CarrierPath()
    teid1 = path.enb_data.open_bearer()
    teid2 = path.enb_data.open_bearer()
    assert teid1 == teid2


def test_handover_repoints_downlink():
    """Re-registering the UE at a new eNB address moves the tunnel."""
    path = CarrierPath()
    sim = path.sim
    # second site
    site2 = Router(sim, "site2-gw")
    path.internet.attach(site2, "172.18.0.0/24", access_delay_s=0.020)
    enb2 = EnbDataPlane(sim, "enb2-data", IP("172.18.0.1"),
                        epc_address=IP("172.16.0.1"), uplink_via="site2-gw")
    enb2.connect_bidirectional(site2)
    site2.add_route("172.18.0.1/32", "enb2-data")
    site2.default_route = "internet"
    enb2.open_bearer()
    # move the UE host
    path.ue_host.links.clear()
    path.ue_host.connect_bidirectional(enb2)
    path.ue_host.default_gateway = "enb2-data"
    enb2.register_ue(IP("10.200.0.5"), path.ue_host)
    path.epc_data.register_ue(IP("10.200.0.5"), IP("172.18.0.1"))

    got = []
    path.ue_host.on_packet = lambda p: got.append(p)
    path.server.send(Packet(src=IP("203.0.113.10"), dst=IP("10.200.0.5"),
                            size_bytes=200))
    sim.run()
    assert len(got) == 1
    assert "enb2-data" in got[0].hops
    assert "enb-data" not in got[0].hops


def test_gtp_overhead_on_the_wire():
    """Between eNB and EPC the packet carries the 36-byte GTP header."""
    path = CarrierPath()
    seen_sizes = []
    original = path.epc_data.handle

    def spy(packet):
        seen_sizes.append(packet.size_bytes)
        original(packet)

    path.epc_data.handle = spy
    path.ue_host.send(Packet(src=IP("10.200.0.5"), dst=IP("203.0.113.10"),
                             size_bytes=500))
    path.sim.run()
    assert seen_sizes == [500 + GTP_HEADER_BYTES]
