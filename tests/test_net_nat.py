"""Unit tests for the NAT gateway (repro.net.nat)."""

import ipaddress

import pytest

from repro.experiments.e15_reachability import ReachabilityHarness
from repro.net import Host, InternetCore, NatRouter, Packet, Router
from repro.net.links import Link
from repro.simcore import Simulator

IP = ipaddress.IPv4Address


def _nat_setup(seed=0):
    sim = Simulator(seed)
    internet = InternetCore(sim)
    nat = NatRouter(sim, "nat", IP("198.51.100.1"),
                    private_prefix="192.168.0.0/24")
    internet.attach(nat, "198.51.100.0/24", access_delay_s=0.01)
    client = Host(sim, "client", IP("192.168.0.10"))
    client.connect_bidirectional(nat)
    nat.add_route("192.168.0.10/32", "client")
    nat.default_route = "internet"
    edge = Router(sim, "edge")
    internet.attach(edge, "203.0.113.0/24", access_delay_s=0.01)
    server = Host(sim, "server", IP("203.0.113.10"))
    server.connect_bidirectional(edge)
    edge.add_route("203.0.113.10/32", "server")
    return sim, nat, client, server


def test_outbound_masquerades_source():
    sim, nat, client, server = _nat_setup()
    got = []
    server.on_packet = got.append
    client.send(Packet(src=client.address, dst=server.address,
                       size_bytes=100, flow_id="f1"))
    sim.run()
    assert len(got) == 1
    assert got[0].src == nat.public_address       # private addr hidden
    assert nat.translated_out == 1
    assert nat.active_bindings == 1


def test_reply_translated_back_through_binding():
    sim, nat, client, server = _nat_setup()
    server.on_packet = lambda p: server.send(
        Packet(src=server.address, dst=p.src, size_bytes=80,
               flow_id=p.flow_id))
    got = []
    client.on_packet = got.append
    client.send(Packet(src=client.address, dst=server.address,
                       size_bytes=100, flow_id="f2"))
    sim.run()
    assert len(got) == 1
    assert got[0].dst == client.address
    assert nat.translated_in == 1


def test_unsolicited_inbound_dropped():
    sim, nat, client, server = _nat_setup()
    got = []
    client.on_packet = got.append
    server.send(Packet(src=server.address, dst=nat.public_address,
                       size_bytes=100, flow_id="cold-call"))
    sim.run()
    assert got == []
    assert nat.unsolicited_drops == 1
    assert nat.active_bindings == 0


def test_unsolicited_inbound_is_counted_and_recorded_not_forwarded():
    sim, nat, client, server = _nat_setup()
    packet = Packet(src=server.address, dst=nat.public_address,
                    size_bytes=100, flow_id="cold-call")
    server.send(packet)
    sim.run()
    assert packet.hops == ["edge", "internet", "nat"]
    assert (nat.received, nat.unsolicited_drops) == (1, 1)
    assert (nat.forwarded, nat.no_route, nat.translated_in) == (0, 0, 0)
    assert all(link.offered == 0 for link in nat.links.values())


def test_outbound_is_masqueraded_before_it_is_offered(monkeypatch):
    sim, nat, client, server = _nat_setup()
    uplink = nat.links["internet"]
    offered = []

    class SpyingLink(Link):
        __slots__ = ()  # the layout of a Link, so the class can swap

        def send_at(self, at, packet):
            offered.append(packet.src)
            super().send_at(at, packet)

    monkeypatch.setattr(uplink, "__class__", SpyingLink)
    server.on_packet = lambda p: None
    client.send(Packet(src=client.address, dst=server.address,
                       size_bytes=100, flow_id="f1"))
    sim.run()
    assert offered == [nat.public_address]
    assert (nat.received, nat.forwarded, nat.translated_out) == (1, 1, 1)


@pytest.mark.parametrize("seed, dial, counts", [
    # recorded before the hop was fused into Router.receive
    (1, "outbound_connect", (True, 4, 4, 0, 2, 2, 0, 1)),
    (2, "inbound_connect", (False, 1, 0, 0, 0, 0, 1, 0)),
])
def test_e15_flow_translation_counts(seed, dial, counts):
    harness = ReachabilityHarness(nat=True, seed=seed)
    ok = getattr(harness, dial)()
    gw = harness.gateway
    assert (ok, gw.received, gw.forwarded, gw.no_route, gw.translated_out,
            gw.translated_in, gw.unsolicited_drops,
            gw.active_bindings) == counts


def test_private_to_private_not_translated():
    sim, nat, client, server = _nat_setup()
    other = Host(sim, "other", IP("192.168.0.20"))
    other.connect_bidirectional(nat)
    nat.add_route("192.168.0.20/32", "other")
    got = []
    other.on_packet = got.append
    client.send(Packet(src=client.address, dst=other.address,
                       size_bytes=60, flow_id="lan"))
    sim.run()
    assert len(got) == 1
    assert got[0].src == client.address  # LAN traffic keeps its source
    assert nat.translated_out == 0


def test_bindings_accumulate_per_flow():
    sim, nat, client, server = _nat_setup()
    server.on_packet = lambda p: None
    for i in range(5):
        client.send(Packet(src=client.address, dst=server.address,
                           size_bytes=100, flow_id=f"flow{i}"))
    sim.run()
    assert nat.active_bindings == 5


def test_harness_reachable_address_semantics():
    nat_h = ReachabilityHarness(nat=True)
    open_h = ReachabilityHarness(nat=False)
    assert nat_h.client_reachable_address == nat_h.gateway.public_address
    assert open_h.client_reachable_address == open_h.client.address
