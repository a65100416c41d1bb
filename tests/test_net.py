"""Unit tests for the IP substrate (addressing, links, nodes, tunnels, internet)."""

import ipaddress

import pytest

from repro.net import (
    AddressPool,
    GTP_HEADER_BYTES,
    GtpTunnel,
    Host,
    InternetCore,
    Link,
    Packet,
    Router,
    TunnelEndpoint,
)
from repro.net.addressing import PoolExhausted
from repro.simcore import Simulator

IP = ipaddress.IPv4Address


@pytest.fixture
def sim():
    return Simulator(seed=0)


# -- addressing ---------------------------------------------------------------

def test_pool_allocates_unique_hosts():
    pool = AddressPool("10.0.0.0/29")  # 6 hosts
    addrs = [pool.allocate() for _ in range(6)]
    assert len(set(addrs)) == 6
    assert all(a in ipaddress.IPv4Network("10.0.0.0/29") for a in addrs)
    network = ipaddress.IPv4Network("10.0.0.0/29")
    assert network.network_address not in addrs
    assert network.broadcast_address not in addrs


def test_pool_exhaustion():
    pool = AddressPool("10.0.0.0/30")
    pool.allocate(), pool.allocate()
    with pytest.raises(PoolExhausted):
        pool.allocate()


def test_pool_release_reuses_lowest():
    pool = AddressPool("10.0.0.0/29")
    a1, a2 = pool.allocate(), pool.allocate()
    pool.release(a2)
    pool.release(a1)
    assert pool.allocate() == a1


def test_pool_rejects_double_free_and_foreign():
    pool = AddressPool("10.0.0.0/29")
    addr = pool.allocate()
    pool.release(addr)
    with pytest.raises(ValueError):
        pool.release(addr)
    with pytest.raises(ValueError):
        pool.release(IP("192.168.1.1"))


def test_pool_contains():
    pool = AddressPool("10.1.0.0/16")
    assert pool.contains(IP("10.1.2.3"))
    assert not pool.contains(IP("10.2.0.1"))
    assert not pool.contains(None)


def test_pool_too_small_rejected():
    with pytest.raises(ValueError):
        AddressPool("10.0.0.0/31")


# -- packets --------------------------------------------------------------------

def test_packet_validates_size():
    with pytest.raises(ValueError):
        Packet(src=None, dst=None, size_bytes=0)


def test_packet_age_and_hops():
    p = Packet(src=None, dst=None, size_bytes=100, created_at=1.0)
    assert p.hop_count == 0 and p.hops is None
    p.hops = ["a", "b"]
    assert p.hop_count == 2
    assert p.created_at == 1.0


def test_packet_ids_unique():
    a = Packet(src=None, dst=None, size_bytes=1)
    b = Packet(src=None, dst=None, size_bytes=1)
    assert a.packet_id != b.packet_id


# -- links ------------------------------------------------------------------------

def test_link_delivery_time(sim):
    got = []
    link = Link(sim, rate_bps=8000.0, delay_s=0.1)  # 1000 bytes/s
    link.connect(lambda p: got.append(sim.now))
    link.send(Packet(src=None, dst=None, size_bytes=500))
    sim.run()
    # 500 B at 1000 B/s = 0.5 s serialize + 0.1 s propagate
    assert got == [pytest.approx(0.6)]


def test_link_serializes_back_to_back(sim):
    got = []
    link = Link(sim, rate_bps=8000.0, delay_s=0.0)
    link.connect(lambda p: got.append(sim.now))
    for _ in range(3):
        link.send(Packet(src=None, dst=None, size_bytes=1000))
    sim.run()
    assert got == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]


def test_link_drop_tail(sim):
    link = Link(sim, rate_bps=8.0, delay_s=0, queue_packets=2)
    link.connect(lambda p: None)
    results = [link.send(Packet(src=None, dst=None, size_bytes=100))
               for _ in range(5)]
    # one serializing + 2 queued accepted; rest dropped
    assert results == [True, True, True, False, False]
    assert link.dropped == 2


def test_link_infinite_rate(sim):
    got = []
    link = Link(sim, rate_bps=float("inf"), delay_s=0.25)
    link.connect(lambda p: got.append(sim.now))
    link.send(Packet(src=None, dst=None, size_bytes=10**9))
    sim.run()
    assert got == [0.25]


def test_link_requires_receiver(sim):
    link = Link(sim, rate_bps=1e6, delay_s=0)
    with pytest.raises(RuntimeError):
        link.send(Packet(src=None, dst=None, size_bytes=10))
    with pytest.raises(RuntimeError):
        link.send_at(0.0, Packet(src=None, dst=None, size_bytes=10))
    assert link.offered == 0


def test_link_connect_rejects_none(sim):
    # only the first send checks for a receiver, so a link is never
    # handed a missing one
    link = Link(sim, rate_bps=1e6, delay_s=0)
    with pytest.raises(ValueError):
        link.connect(None)
    assert link.receiver is None


def test_link_validates_params(sim):
    with pytest.raises(ValueError):
        Link(sim, rate_bps=0, delay_s=0)
    with pytest.raises(ValueError):
        Link(sim, rate_bps=1, delay_s=-1)
    with pytest.raises(ValueError):
        Link(sim, rate_bps=1, delay_s=0, queue_packets=0)


# -- routing -----------------------------------------------------------------------

def _linear_topology(sim):
    r1, r2 = Router(sim, "r1"), Router(sim, "r2")
    dst = Host(sim, "dst", IP("10.2.0.5"))
    r1.connect_bidirectional(r2, delay_s=0.01)
    r2.connect_bidirectional(dst, delay_s=0.001)
    r1.add_route("10.2.0.0/16", "r2")
    r2.add_route("10.2.0.5/32", "dst")
    return r1, r2, dst


def test_router_forwards_by_longest_prefix(sim):
    r1, r2, dst = _linear_topology(sim)
    got = []
    dst.on_packet = lambda p: got.append(p.hops)
    r1.receive(Packet(src=IP("10.1.0.1"), dst=IP("10.2.0.5"), size_bytes=100))
    sim.run()
    assert got == [["r1", "r2", "dst"]]


def test_longest_prefix_beats_shorter(sim):
    router = Router(sim, "r")
    router.add_route("10.0.0.0/8", "coarse")
    router.add_route("10.5.0.0/16", "fine")
    assert router.lookup(IP("10.5.1.1")) == "fine"
    assert router.lookup(IP("10.9.1.1")) == "coarse"


def test_default_route_fallback(sim):
    router = Router(sim, "r")
    router.default_route = "up"
    assert router.lookup(IP("8.8.8.8")) == "up"


def test_no_route_counted(sim):
    router = Router(sim, "r")
    router.receive(Packet(src=None, dst=IP("9.9.9.9"), size_bytes=50))
    sim.run()
    assert router.no_route == 1


def test_route_withdrawal(sim):
    router = Router(sim, "r")
    router.add_route("10.0.0.0/8", "a")
    router.add_route("10.5.0.0/16", "a")
    assert router.remove_routes_to("a") == 2
    assert router.lookup(IP("10.1.1.1")) is None


def test_host_multihoming(sim):
    host = Host(sim, "h", IP("10.0.0.1"))
    host.add_address(IP("10.9.0.1"))
    assert host.address == IP("10.0.0.1")
    assert len(host.addresses) == 2
    host.remove_address(IP("10.0.0.1"))
    assert host.address == IP("10.9.0.1")


def test_send_via_unknown_neighbor_raises(sim):
    host = Host(sim, "h")
    with pytest.raises(KeyError, match="no link"):
        host.send_via("ghost", Packet(src=None, dst=None, size_bytes=1))


# -- tunnels -----------------------------------------------------------------------

def test_gtp_encap_decap_roundtrip():
    enb = TunnelEndpoint(IP("192.168.0.1"))
    sgw = TunnelEndpoint(IP("192.168.0.2"))
    enb.add_tunnel(GtpTunnel(101, IP("192.168.0.1"), IP("192.168.0.2")))
    sgw.add_tunnel(GtpTunnel(101, IP("192.168.0.2"), IP("192.168.0.1")))

    p = Packet(src=IP("10.0.0.5"), dst=IP("8.8.8.8"), size_bytes=1000)
    enb.encapsulate(p, 101)
    assert p.size_bytes == 1000 + GTP_HEADER_BYTES
    assert p.dst == IP("192.168.0.2") and p.tunnel_depth == 1

    sgw.decapsulate(p)
    assert p.size_bytes == 1000
    assert p.src == IP("10.0.0.5") and p.dst == IP("8.8.8.8")
    assert p.tunnel_depth == 0


def test_gtp_nested_tunnels():
    a = TunnelEndpoint(IP("1.1.1.1"))
    b = TunnelEndpoint(IP("2.2.2.2"))
    a.add_tunnel(GtpTunnel(1, IP("1.1.1.1"), IP("2.2.2.2")))
    b.add_tunnel(GtpTunnel(2, IP("2.2.2.2"), IP("3.3.3.3")))
    p = Packet(src=IP("10.0.0.1"), dst=IP("8.8.8.8"), size_bytes=500)
    a.encapsulate(p, 1)
    p.dst = IP("2.2.2.2")
    b.encapsulate(p, 2)
    assert p.tunnel_depth == 2
    assert p.size_bytes == 500 + 2 * GTP_HEADER_BYTES


def test_gtp_validates():
    ep = TunnelEndpoint(IP("1.1.1.1"))
    with pytest.raises(ValueError):
        GtpTunnel(0, IP("1.1.1.1"), IP("2.2.2.2"))
    with pytest.raises(ValueError):
        ep.add_tunnel(GtpTunnel(1, IP("9.9.9.9"), IP("2.2.2.2")))
    ep.add_tunnel(GtpTunnel(1, IP("1.1.1.1"), IP("2.2.2.2")))
    with pytest.raises(ValueError):
        ep.add_tunnel(GtpTunnel(1, IP("1.1.1.1"), IP("3.3.3.3")))
    with pytest.raises(KeyError):
        ep.encapsulate(Packet(src=None, dst=None, size_bytes=10), 99)
    with pytest.raises(ValueError):
        ep.decapsulate(Packet(src=None, dst=None, size_bytes=10))


def test_gtp_decap_wrong_endpoint_rejected():
    a = TunnelEndpoint(IP("1.1.1.1"))
    b = TunnelEndpoint(IP("5.5.5.5"))
    a.add_tunnel(GtpTunnel(7, IP("1.1.1.1"), IP("2.2.2.2")))
    p = Packet(src=IP("10.0.0.1"), dst=IP("8.8.8.8"), size_bytes=100)
    a.encapsulate(p, 7)
    with pytest.raises(ValueError, match="not this endpoint"):
        b.decapsulate(p)


# -- internet core ------------------------------------------------------------------

def test_internet_end_to_end(sim):
    inet = InternetCore(sim)
    edge_a, edge_b = Router(sim, "a"), Router(sim, "b")
    inet.attach(edge_a, "10.1.0.0/16", access_delay_s=0.02)
    inet.attach(edge_b, "10.2.0.0/16", access_delay_s=0.03)
    dst = Host(sim, "dst", IP("10.2.0.9"))
    edge_b.connect_bidirectional(dst)
    edge_b.add_route("10.2.0.9/32", "dst")
    got = []
    dst.on_packet = lambda p: got.append(sim.now)
    edge_a.receive(Packet(src=IP("10.1.0.1"), dst=IP("10.2.0.9"), size_bytes=100))
    sim.run()
    assert got and 0.05 < got[0] < 0.06


def test_internet_rtt_estimate(sim):
    inet = InternetCore(sim)
    a, b = Router(sim, "a"), Router(sim, "b")
    inet.attach(a, "10.1.0.0/16", access_delay_s=0.02)
    inet.attach(b, "10.2.0.0/16", access_delay_s=0.03)
    assert inet.rtt_between_s("a", "b") == pytest.approx(0.1002)
    with pytest.raises(KeyError):
        inet.rtt_between_s("a", "zzz")


def test_internet_sets_default_route(sim):
    inet = InternetCore(sim)
    edge = Router(sim, "edge")
    inet.attach(edge, "10.1.0.0/16")
    assert edge.default_route == "internet"
