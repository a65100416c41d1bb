"""Tests for the packet-datapath fast lane (see PERFORMANCE.md).

Covers the tentpole pieces — link egress pipelining, one event per
router hop (deferred offers + the forwarding cache) and timer-heap
hygiene — plus the scheduling fast path they ride on. The contract
under test everywhere is *semantic equivalence*: the fast lane must
produce the same delivery times, the same drop accounting, and the same
FIFO order as the naive implementations it replaced.
"""

import hashlib
import ipaddress
import json
import random

import pytest

from repro.invariants import InvariantChecker
from repro.net import Host, NatRouter, Router
from repro.net.aqm import CoDelDiscipline
from repro.net.links import Link
from repro.net.packet import ECN_ECT, Packet
from repro.net.shardlink import CrossShardLink, CrossShardLinkExit
from repro.simcore import Simulator
from repro.simcore.sharded import ShardBoundary
from repro.simcore.trace import Tracer
from repro.telemetry.exporters import write_events_jsonl
from repro.transport import BulkTransferApp, TcpConnection, TcpListener, \
    TransportDemux

IP = ipaddress.IPv4Address


@pytest.fixture
def sim():
    return Simulator(seed=7)


def _packet(size=1000, **kw):
    return Packet(src=IP("10.0.0.1"), dst=IP("10.0.0.2"), size_bytes=size,
                  **kw)


# -- link egress pipelining ---------------------------------------------------

def test_pipelined_deliveries_keep_serialization_chain(sim):
    """Back-to-back sends serialize sequentially; each delivery lands at
    its own serialization-done + propagation instant."""
    link = Link(sim, rate_bps=1e6, delay_s=0.01, name="l")
    arrivals = []
    link.connect(lambda p: arrivals.append((sim.now, p.seq)))
    for seq in range(4):
        assert link.send(_packet(size=1250, seq=seq))  # 10 ms each at 1 Mbps
    sim.run()
    expect = [(0.01 * (i + 1) + 0.01, i) for i in range(4)]
    assert [(pytest.approx(t), s) for t, s in expect] == arrivals


def test_busy_link_keeps_one_live_heap_event(sim):
    """A deep egress queue costs one wake-up event, not one per packet."""
    link = Link(sim, rate_bps=1e6, delay_s=0.05, queue_packets=100, name="l")
    link.connect(lambda p: None)
    for seq in range(50):
        link.send(_packet(size=1250, seq=seq))
    # 50 packets queued or in flight, but only the single drain wake-up
    # (plus nothing else) sits in the run queue
    assert link.in_flight == 50
    assert sim.live_queue_length == 1
    sim.run()
    assert link.delivered == 50


def test_overflow_at_depth_counts_and_conserves(sim):
    """Sends past the drop-tail cap are refused with cause=overflow and
    the conservation law (offered = delivered + dropped + in_flight)
    holds throughout."""
    link = Link(sim, rate_bps=1e6, delay_s=0.001, queue_packets=5, name="l")
    delivered = []
    link.connect(delivered.append)
    accepted = sum(link.send(_packet(size=1250, seq=i)) for i in range(10))
    # one in service + 5 queued fit; the other 4 overflow
    assert accepted == 6
    assert link.dropped_overflow == 4
    assert link.offered == link.delivered + link.dropped + link.in_flight
    sim.run()
    assert len(delivered) == 6
    assert link.queue_depth == 0
    assert link.offered == link.delivered + link.dropped + link.in_flight


def test_down_mid_flight_drops_at_delivery_time(sim):
    """A packet already serialized when the link is cut is lost at its
    delivery instant, not retroactively."""
    link = Link(sim, rate_bps=1e6, delay_s=0.1, name="l")
    arrivals = []
    link.connect(arrivals.append)
    link.send(_packet(size=1250))          # in service until t=0.01
    link.send(_packet(size=1250, seq=1))   # queued
    sim.schedule(0.005, link.set_up, False)
    sim.run()
    assert arrivals == []
    # the queued packet was lost to the cut immediately; the in-service
    # one rode out its flight and was dropped on arrival
    assert link.dropped_down == 2
    assert link.in_flight == 0
    assert link.offered == link.delivered + link.dropped


def test_loss_draws_deterministic_across_runs():
    """The cached per-link loss stream reproduces exactly from the seed."""
    def run_once():
        sim = Simulator(seed=42)
        link = Link(sim, rate_bps=1e9, delay_s=0.001, name="lossy")
        link.set_loss_rate(0.3)
        got = []
        link.connect(lambda p: got.append(p.seq))
        for seq in range(40):
            link.send(_packet(seq=seq))
        sim.run()
        return got
    first, second = run_once(), run_once()
    assert first == second
    assert 0 < len(first) < 40


def test_queue_depth_promotes_lazily(sim):
    """Reading queue_depth after time passed reflects completed service
    even though no event has touched the link in between."""
    link = Link(sim, rate_bps=1e6, delay_s=1.0, name="l")
    link.connect(lambda p: None)
    for seq in range(3):
        link.send(_packet(size=1250, seq=seq))
    assert link.queue_depth == 2
    sim.run(until=0.025)  # 2 of 3 serializations (10 ms each) done
    assert link.queue_depth == 0


# -- one event per router hop -------------------------------------------------
#
# Literals below were recorded at the parent commit, where every transit
# hop was a Router._forward event followed by Link.send: the fused path
# must reproduce them exactly.

A, B = IP("10.0.0.1"), IP("10.0.1.1")


def _bottleneck_chain(trace=False):
    """a -> r1 -> (2 Mbps, CoDel+ECN, 1% loss) -> r2 -> b, offered ~1.4x
    the bottleneck in 40 bursts, with the bottleneck cut mid-flight."""
    sim = Simulator(seed=11)
    if trace:
        sim.tracer = Tracer()
    a, b = Host(sim, "a", A), Host(sim, "b", B)
    r1, r2 = Router(sim, "r1"), Router(sim, "r2")
    a.connect_bidirectional(r1, rate_bps=100e6, delay_s=1e-3)
    r1.connect_bidirectional(r2, rate_bps=2e6, delay_s=10e-3,
                             queue_packets=30)
    r2.connect_bidirectional(b, rate_bps=100e6, delay_s=1e-3)
    r1.add_route("10.0.1.0/24", "r2")
    r2.add_route("10.0.1.1/32", "b")
    bottleneck = r1.links["r2"]
    bottleneck.set_aqm(CoDelDiscipline(target_s=0.005, interval_s=0.05,
                                       ecn=True))
    bottleneck.set_loss_rate(0.01)
    arrivals = []
    b.on_packet = lambda p: arrivals.append((sim.now, p.seq, p.ecn))

    def burst(first, size, ecn):
        for seq in range(first, first + 10):
            packet = Packet(src=A, dst=B, size_bytes=size, seq=seq)
            packet.ecn = ecn
            a.send(packet)

    for k in range(40):
        sim.schedule(0.030 * k, burst, 10 * k, 1000 + 40 * (k % 3),
                     ECN_ECT if k % 2 == 0 else 0)
    sim.schedule(0.4001, bottleneck.set_up, False)
    sim.schedule(0.4603, bottleneck.set_up, True)
    return sim, r1, r2, bottleneck, arrivals


def _digest(records):
    return hashlib.sha256(repr(records).encode()).hexdigest()[:16]


def test_fused_hops_reproduce_parent_deliveries_and_ledgers():
    sim, r1, r2, bottleneck, arrivals = _bottleneck_chain()
    sim.run()
    assert len(arrivals) == 281
    assert arrivals[:3] == [(0.0162, 0, 1), (0.0202, 1, 1),
                            (0.024200000000000003, 2, 1)]
    assert arrivals[-3:] == [(1.266923200000003, 392, 0),
                             (1.270923200000003, 394, 0),
                             (1.274923200000003, 396, 0)]
    assert _digest(arrivals) == "f816d2ededab1909"
    ledger = {name: getattr(bottleneck, name) for name in (
        "offered", "delivered", "dropped", "dropped_overflow",
        "dropped_down", "dropped_loss", "dropped_aqm", "marked_ecn",
        "offered_bytes", "delivered_bytes", "dropped_bytes",
        "in_flight_bytes", "bytes_sent")}
    assert ledger == {
        "offered": 400, "delivered": 281, "dropped": 119,
        "dropped_overflow": 15, "dropped_down": 52, "dropped_loss": 1,
        "dropped_aqm": 51, "marked_ecn": 74,
        "offered_bytes": 415600, "delivered_bytes": 292040,
        "dropped_bytes": 123560, "in_flight_bytes": 0,
        "bytes_sent": 296200}
    assert (r1.forwarded, r1.no_route) == (400, 0)
    assert (r2.forwarded, r2.no_route) == (281, 0)
    # 1689 at the parent, where each of the 681 forwards was an event
    assert sim.events_executed < 1100


def test_deferred_drops_are_traced_at_their_admission_time(tmp_path):
    """A loss/overflow verdict reached when the link is next touched is
    stamped with the instant the packet was offered for, and the
    exported trace stays time-ordered."""
    sim, _r1, _r2, _bottleneck, _arrivals = _bottleneck_chain(trace=True)
    sim.run()
    path = tmp_path / "trace.jsonl"
    write_events_jsonl(str(path), tracers=[("sim", sim.tracer)])
    records = [json.loads(line) for line in path.read_text().splitlines()]
    times = [r["time_s"] for r in records]
    assert times == sorted(times)
    drops = [(r["time_s"], r["message"]) for r in records
             if r["category"] == "drop"]
    assert len(drops) == 91
    assert [d for d in drops if d[1].endswith("loss")] == [
        (0.5116248000000003, "link r1->r2: loss")]
    assert drops[:2] == [(0.06358, "link r1->r2: aqm"),
                         (0.15110639999999997, "link r1->r2: aqm")]
    assert drops[-1] == (1.2658232000000031, "link r1->r2: aqm")
    assert _digest(drops) == "cf42c85430599ac6"


def test_due_offer_is_admitted_before_a_direct_send(sim):
    """Tie rule: send_at(t) and send() at t leave in that order."""
    link = Link(sim, rate_bps=1e6, delay_s=0.01, name="l")
    arrivals = []
    link.connect(lambda p: arrivals.append((sim.now, p.seq)))
    sim.schedule(1.0, link.send, _packet(size=1250, seq=2))
    link.send_at(1.0, _packet(size=1250, seq=1))
    sim.run()
    assert arrivals == [(pytest.approx(1.02), 1), (pytest.approx(1.03), 2)]
    assert link.offered == link.delivered == 2


def test_offer_is_decided_as_of_its_own_time(sim):
    """An offer made while the link is up, for an instant after it was
    cut, is dropped 'down' — and one for after the repair is carried."""
    link = Link(sim, rate_bps=1e6, delay_s=0.01, name="l")
    arrivals = []
    link.connect(lambda p: arrivals.append(p.seq))
    link.send_at(0.5, _packet(seq=1))
    sim.schedule(0.2, link.set_up, False)
    sim.schedule(0.3, link.send_at, 0.9, _packet(seq=2))
    sim.schedule(0.7, link.set_up, True)
    sim.run()
    assert arrivals == [2]
    assert (link.offered, link.dropped_down, link.delivered) == (2, 1, 1)


def _forked_router(sim, delay_s=1e-3):
    """r with routes 10.1/16 -> x and default -> y; returns sinks too."""
    r = Router(sim, "r", forwarding_delay_s=delay_s)
    x, y = Host(sim, "x"), Host(sim, "y")
    got = {"x": [], "y": []}
    x.on_packet = lambda p: got["x"].append(sim.now)
    y.on_packet = lambda p: got["y"].append(sim.now)
    r.attach_link(x, delay_s=0.01)
    r.attach_link(y, delay_s=0.01)
    r.add_route("10.1.0.0/16", "x")
    r.default_route = "y"
    return r, got


def test_route_withdrawn_inside_forwarding_delay_redirects_packet(sim):
    """The table a packet meets is the one in force when its forwarding
    delay ends (as when forwarding was its own event): withdrawing the
    route takes the offer back and re-decides it, at the same instant."""
    r, got = _forked_router(sim)
    packet = Packet(src=A, dst=IP("10.1.0.9"), size_bytes=100)
    r.receive(packet)
    assert len(r.links["x"]._offers) == 1
    sim.schedule(0.5e-3, r.remove_routes_to, "x")
    sim.run()
    assert got == {"x": [], "y": [pytest.approx(1e-3 + 0.01)]}
    assert (r.forwarded, r.no_route) == (1, 0)
    assert r.links["x"].offered == 0 and r.links["y"].offered == 1


def test_route_added_inside_forwarding_delay_and_no_route(sim):
    r, got = _forked_router(sim)
    r.receive(Packet(src=A, dst=IP("10.2.0.9"), size_bytes=100))  # -> y
    sim.schedule(0.5e-3, r.add_route, "10.2.0.0/16", "x")
    sim.run()
    assert len(got["x"]) == 1 and got["y"] == []
    r.default_route = None
    r.receive(Packet(src=A, dst=IP("10.2.0.9"), size_bytes=100))  # -> x
    r.remove_routes_to("x")
    sim.run()
    assert len(got["x"]) == 1
    assert (r.forwarded, r.no_route) == (1, 1)


def test_popped_link_still_carries_what_it_was_offered(sim):
    """Documented limit of lookup-at-ingress: removing the ``links``
    entry (without a route change) does not recall an accepted packet."""
    r, got = _forked_router(sim)
    r.receive(Packet(src=A, dst=IP("10.1.0.9"), size_bytes=100))
    sim.schedule(0.5e-3, r.links.pop, "x")
    sim.run()
    assert len(got["x"]) == 1
    # ... and afterwards the cached name no longer resolves to a link
    r.receive(Packet(src=A, dst=IP("10.1.0.9"), size_bytes=100))
    assert r.no_route == 1


def test_nat_translation_still_taken(sim):
    nat = NatRouter(sim, "nat", IP("198.51.100.1"), "192.168.0.0/24")
    client = Host(sim, "client", IP("192.168.0.10"))
    server = Host(sim, "server", IP("203.0.113.5"))
    client.connect_bidirectional(nat, delay_s=1e-3)
    server.connect_bidirectional(nat, delay_s=1e-3)
    nat.add_route("192.168.0.10/32", "client")
    nat.add_route("203.0.113.5/32", "server")
    seen = []
    server.on_packet = lambda p: seen.append(("server", p.src, p.dst))
    client.on_packet = lambda p: seen.append(("client", p.src, p.dst))
    client.send(Packet(src=client.address, dst=server.address,
                       size_bytes=100, flow_id="f"))
    sim.run()
    server.send(Packet(src=server.address, dst=nat.public_address,
                       size_bytes=100, flow_id="f"))
    sim.run()
    assert seen == [("server", nat.public_address, server.address),
                    ("client", server.address, client.address)]
    assert (nat.translated_out, nat.translated_in, nat.forwarded) == (1, 1, 2)


def test_cross_shard_link_send_at_sends_at_that_instant():
    sim = Simulator(3)
    boundary = ShardBoundary(sim, 0, 1)
    arrivals = []
    CrossShardLinkExit(sim, boundary, "x",
                       lambda p: arrivals.append((sim.now, p.seq)))
    xlink = CrossShardLink(sim, boundary, rate_bps=1e6, delay_s=0.01,
                           dst_shard=0, name="x")
    xlink.send_at(0.5, _packet(size=1250, seq=1))
    xlink.send_at(0.5, _packet(size=1250, seq=2))
    sim.run(until=0.4)
    assert xlink.offered == 0
    sim.run(until=1.0)
    assert arrivals == [(pytest.approx(0.52), 1), (pytest.approx(0.53), 2)]
    assert xlink.crossed == xlink.offers_admitted == 2


def test_transit_hop_costs_one_event_and_a_dict_hit(monkeypatch):
    """Count gate (times nothing): on a 3-router chain the run executes
    barely more events than link deliveries, and after each router's
    first lookup no packet walks the route table."""
    sim = Simulator(seed=5)
    a, b = Host(sim, "a", A), Host(sim, "b", B)
    routers = [Router(sim, f"r{i}") for i in range(3)]
    chain = [a, *routers, b]
    for left, right in zip(chain, chain[1:]):
        left.connect_bidirectional(right, rate_bps=10e6, delay_s=2e-3)
    for i, router in enumerate(routers):
        for octet in range(2, 40):  # a table worth walking
            router.add_route(f"10.{octet}.0.0/16", chain[i].name)
        router.add_route("10.0.0.0/16", chain[i + 2].name)  # matched last
    contains = [0]
    real = ipaddress.IPv4Network.__contains__

    def counting_contains(self, other):
        contains[0] += 1
        return real(self, other)

    monkeypatch.setattr(ipaddress.IPv4Network, "__contains__",
                        counting_contains)
    n = 200
    for seq in range(n):
        sim.schedule(0.003 * seq, a.send,
                     Packet(src=A, dst=B, size_bytes=1000, seq=seq))
    sim.run()
    links = [node.links[nxt.name] for node, nxt in zip(chain, chain[1:])]
    deliveries = sum(link.delivered for link in links)
    assert deliveries == 4 * n and b.received == n
    # the n source sends are events of the test's own making
    assert sim.events_executed - n <= 1.15 * deliveries, sim.events_executed
    # one table walk per router (39 prefixes each), then cache hits
    assert contains[0] == 3 * 39
    assert all(r.forwarded == n for r in routers)


def test_add_route_inserts_where_the_stable_sort_put_it():
    rng = random.Random(4)
    prefixes = [(f"10.{a}.{b if plen > 16 else 0}.0/{plen}", f"n{k}")
                for k, (a, b, plen) in enumerate(
                    (rng.randrange(8), rng.randrange(8),
                     rng.choice([8, 16, 24, 24, 32]))
                    for _ in range(60))]
    prefixes = [(str(ipaddress.IPv4Network(p, strict=False)), n)
                for p, n in prefixes]
    rng.shuffle(prefixes)
    router = Router(Simulator(), "r")
    reference = []
    for prefix, neighbor in prefixes:
        router.add_route(prefix, neighbor)
        reference.append((ipaddress.IPv4Network(prefix), neighbor))
        reference.sort(key=lambda r: r[0].prefixlen, reverse=True)
        assert router._routes == reference
    # longest match wins; the first of equal-length duplicates wins
    for prefix, _ in prefixes:
        net = ipaddress.IPv4Network(prefix)
        want = next(n for p, n in reference if net.network_address in p)
        assert router.lookup(net.network_address) == want


def test_loss_stream_is_fetched_on_first_lossy_setting(sim):
    link = Link(sim, rate_bps=1e9, delay_s=0.001, name="quiet")
    link.set_loss_rate(0.0)
    assert "link-loss:quiet" not in sim.rng._streams
    link.set_loss_rate(0.2)
    assert link._loss_rng is sim.rng("link-loss:quiet")


def test_invariants_catch_a_stuck_offer_and_a_leaked_forward(sim):
    r, _got = _forked_router(sim)
    checker = InvariantChecker(sim)
    checker.watch_link(r.links["x"])
    checker.watch_router(r)
    r.receive(Packet(src=A, dst=IP("10.1.0.9"), size_bytes=100))
    sim.run(until=0.5e-3)
    assert checker.check_now() == []       # pending, not yet due: legal
    sim.run()
    assert checker.check_now() == []
    r.forwarded += 1                       # a forward no link ever saw
    assert [v.check for v in checker.check_now()] == ["router-offers"]
    r.forwarded -= 1
    link = r.links["x"]
    link._offers.append((sim.now, _packet()))
    link._admit_due = lambda now: None     # a touch that admits nothing
    assert "still pending" in checker.check_now()[0].detail


# -- timer-heap hygiene -------------------------------------------------------

def test_same_time_fifo_survives_cancellation_and_compaction():
    """Cancelling enough entries to trigger heap compaction must not
    disturb the FIFO order of surviving same-time events."""
    sim = Simulator()
    order = []
    survivors = []
    doomed = []
    for i in range(200):
        handle = sim.at(1.0, order.append, i)
        (doomed if i % 3 else survivors).append((i, handle))
    before = sim.queue_length
    for _i, handle in doomed:
        handle.cancel()
    # compaction fired at least once along the way: most of the dead
    # entries are physically gone, and the live count is exact
    assert sim.queue_length < before
    assert sim.live_queue_length == len(survivors)
    sim.run()
    assert order == [i for i, _h in survivors]


def test_cancel_counts_and_compaction_threshold():
    sim = Simulator()
    handles = [sim.at(1.0, lambda: None) for _ in range(100)]
    for handle in handles[:60]:
        handle.cancel()
    # 60 cancelled of 100: compaction (needs >64) has not fired yet,
    # but live_queue_length already excludes the garbage
    assert sim.queue_length == 100
    assert sim.live_queue_length == 40
    for handle in handles[60:70]:
        handle.cancel()
    # the 65th cancellation crossed the threshold (>64 with garbage
    # dominating) and compacted down to the then-live 35; the last five
    # cancels accumulate as fresh garbage
    assert sim.queue_length == 35
    assert sim.live_queue_length == 30


def test_double_cancel_counted_once():
    sim = Simulator()
    keep = sim.at(1.0, lambda: None)
    handle = sim.at(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.live_queue_length == 1
    sim.run()  # dispatch decrements the garbage counter exactly once
    assert sim.live_queue_length == 0
    assert keep.cancelled is False


def test_post_at_interleaves_fifo_with_at():
    """Handle-free fast-path events share the same (time, seq) ordering
    as normal ones."""
    sim = Simulator()
    order = []
    sim.at(1.0, order.append, "a")
    sim.post_at(1.0, order.append, "b")
    sim.at(1.0, order.append, "c")
    sim.post_at(0.5, order.append, "early")
    sim.run()
    assert order == ["early", "a", "b", "c"]


def test_rto_rearm_churn_does_not_grow_heap():
    """A bulk transfer re-arms its RTO on every ack; the lazy-deadline
    timer must keep the live queue flat instead of pushing one heap
    entry per ack."""
    sim = Simulator(seed=3)
    a = Host(sim, "a", IP("10.0.0.1"))
    b = Host(sim, "b", IP("10.0.0.2"))
    a.connect_bidirectional(b, rate_bps=50e6, delay_s=0.01)
    demux_a, demux_b = TransportDemux(a), TransportDemux(b)
    TcpListener(sim, demux_b)
    app = BulkTransferApp(sim, demux_a, b.address, TcpConnection,
                          total_bytes=400_000)
    app.start()
    sim.run(until=30)
    assert app.done_at is not None
    # every acked MSS re-armed the RTO at least once
    assert app.conn.bytes_acked >= 400_000
    # cancel/re-push per ack would have driven the high-water mark (or
    # the garbage count) toward one entry per ack; the lazy timer keeps
    # the whole footprint near the handful of live events
    assert sim.heap_high_water < 32
    assert sim.live_queue_length <= sim.queue_length <= \
        sim.live_queue_length + 2


# -- transport over the fast lane ---------------------------------------------

def test_bulk_transfer_acks_every_byte():
    """End-to-end: a transfer over freshly built ``Packet`` segments
    completes with the same byte accounting as ever."""
    sim = Simulator(seed=11)
    a = Host(sim, "a", IP("10.0.0.1"))
    b = Host(sim, "b", IP("10.0.0.2"))
    a.connect_bidirectional(b, rate_bps=50e6, delay_s=0.005)
    demux_a, demux_b = TransportDemux(a), TransportDemux(b)
    TcpListener(sim, demux_b)
    app = BulkTransferApp(sim, demux_a, b.address, TcpConnection,
                          total_bytes=250_000)
    app.start()
    sim.run(until=30)
    assert app.done_at is not None
    assert app._acked_total() == 250_000


# -- observability plumbing ---------------------------------------------------

def test_heap_high_water_reported_through_hub():
    from repro.telemetry.hub import HUB

    HUB.start_run()
    try:
        sim = Simulator()
        for i in range(10):
            sim.schedule(i * 0.1, lambda: None)
        sim.run()
    except BaseException:
        HUB.abort_run()
        raise
    run = HUB.finish_run()
    assert run.heap_high_water == sim.heap_high_water == 10
