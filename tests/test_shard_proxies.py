"""Shard-boundary proxy equivalence and conservation.

The co-location contract (net/shardlink.py): a CrossShardChannel /
CrossShardLink pair whose halves live in the same shard must be
indistinguishable — delivery times, sender identities, counters — from
the monolithic ControlChannel / Link it stands in for. These tests pin
that contract, the cross-shard conservation laws, the queued-packet
promotion chain, and the documented divergences (down-mid-flight,
unsupported AQM).
"""

import pytest

from repro.epc.agents import ControlChannel
from repro.net.links import Link
from repro.net.packet import Packet
from repro.net.shardlink import (
    CrossShardChannel,
    CrossShardLink,
    CrossShardLinkExit,
    RemoteAgentStub,
)
from repro.simcore import ShardBoundary, ShardHost, ShardedSimulator, Simulator
from tests.callback_agent import CallbackAgent


def _packet(seq, size=1250):
    return Packet(src=None, dst=None, size_bytes=size, flow_id="t", seq=seq)


def _colocated(seed=3):
    sim = Simulator(seed)
    return sim, ShardBoundary(sim, 0, 1)


# -- control channel: co-located half pair == ControlChannel ---------------


def _run_channel_script(sim, a, b, send):
    """Drive the same traffic over any channel-ish send function."""
    for t, sender, value in [(0.00, a, 1), (0.00, b, 10), (0.05, a, 2),
                             (0.12, b, 20), (0.12, a, 3)]:
        sim.at(t, send, sender, value)
    sim.run(until=1.0)


def test_colocated_channel_matches_control_channel():
    logs = {}
    counts = {}
    # monolithic reference
    sim = Simulator(3)
    log_a, log_b = [], []
    a = CallbackAgent(sim, "a", lambda m: log_a.append(
        (sim.now, m.payload, m.sender.name, m.sent_at)))
    b = CallbackAgent(sim, "b", lambda m: log_b.append(
        (sim.now, m.payload, m.sender.name, m.sent_at)))
    channel = ControlChannel(sim, a, b, 0.02, "ch")
    _run_channel_script(sim, a, b, channel.send)
    logs["mono"] = (log_a, log_b)
    counts["mono"] = channel.messages

    # co-located cross-shard half pair sharing the name
    sim, boundary = _colocated()
    log_a, log_b = [], []
    a = CallbackAgent(sim, "a", lambda m: log_a.append(
        (sim.now, m.payload, m.sender.name, m.sent_at)))
    b = CallbackAgent(sim, "b", lambda m: log_b.append(
        (sim.now, m.payload, m.sender.name, m.sent_at)))
    half_a = CrossShardChannel(sim, boundary, a, "b", 0, 0.02, "ch")
    half_b = CrossShardChannel(sim, boundary, b, "a", 0, 0.02, "ch")

    def send(sender, value):
        (half_a if sender is a else half_b).send(sender, value)

    _run_channel_script(sim, a, b, send)
    assert (log_a, log_b) == logs["mono"]
    assert half_a.messages + half_b.messages == counts["mono"]
    assert half_a.received == len(log_a)
    assert half_b.received == len(log_b)


def test_colocated_channel_resolves_real_peer_identity():
    sim, boundary = _colocated()
    seen = []
    a = CallbackAgent(sim, "a")
    b = CallbackAgent(sim, "b", lambda m: seen.append(m.sender))
    half_a = CrossShardChannel(sim, boundary, a, "b", 0, 0.01, "ch")
    half_b = CrossShardChannel(sim, boundary, b, "a", 0, 0.01, "ch")
    # both halves registered: other_end is the real object, not a stub
    assert half_a.other_end(a) is b
    assert half_b.other_end(b) is a
    half_a.send(a, "hello")
    sim.run(until=1.0)
    # relays compare `message.sender is channel.other_end(self)` — the
    # co-located path must carry the real sender for that check to hold
    assert seen == [a]
    assert seen[0] is half_b.other_end(b)


def test_cross_half_peer_is_stub_with_remote_name():
    sim, boundary = _colocated()
    a = CallbackAgent(sim, "a")
    # peer half never registered locally => remote: expect the stub
    half = CrossShardChannel(sim, boundary, a, "far", 0, 0.01, "ch")
    peer = half.other_end(a)
    assert isinstance(peer, RemoteAgentStub)
    assert peer.name == "far"
    assert half.other_end(a) is peer  # stable identity across calls


def test_channel_down_drops_at_sending_half_only():
    sim, boundary = _colocated()
    got_a, got_b = [], []
    a = CallbackAgent(sim, "a", lambda m: got_a.append(m.payload))
    b = CallbackAgent(sim, "b", lambda m: got_b.append(m.payload))
    half_a = CrossShardChannel(sim, boundary, a, "b", 0, 0.01, "ch")
    half_b = CrossShardChannel(sim, boundary, b, "a", 0, 0.01, "ch")
    half_a.set_up(False)
    half_a.send(a, "lost")
    half_b.send(b, "through")  # reverse direction unaffected
    sim.run(until=1.0)
    assert got_b == []
    assert got_a == ["through"]
    assert half_a.dropped == 1
    assert half_b.dropped == 0


def test_channel_validations():
    sim, boundary = _colocated()
    a = CallbackAgent(sim, "a")
    stranger = CallbackAgent(sim, "stranger")
    half = CrossShardChannel(sim, boundary, a, "b", 0, 0.01, "ch")
    with pytest.raises(ValueError, match="not an end"):
        half.other_end(stranger)
    with pytest.raises(ValueError, match="not the local end"):
        half.send(stranger, "x")
    with pytest.raises(ValueError, match="non-negative"):
        CrossShardChannel(sim, boundary, a, "b", 0, -0.01, "neg")


# -- data link: co-located CrossShardLink == plain Link --------------------


def test_colocated_link_matches_plain_link():
    # 1250 B at 1 Mbit/s = 10 ms serialization; queue of 2; five sends
    # at t=0 -> one in service, two queued, two overflow drops
    sim = Simulator(3)
    mono_log = []
    link = Link(sim, rate_bps=1e6, delay_s=0.01, queue_packets=2,
                name="ref")
    link.connect(lambda p: mono_log.append((sim.now, p.seq)))
    accepted_mono = [link.send(_packet(i)) for i in range(5)]
    sim.run(until=1.0)

    sim, boundary = _colocated()
    cross_log = []
    xlink = CrossShardLink(sim, boundary, rate_bps=1e6, delay_s=0.01,
                           dst_shard=0, queue_packets=2, name="x")
    CrossShardLinkExit(sim, boundary, "x",
                       lambda p: cross_log.append((sim.now, p.seq)))
    accepted_cross = [xlink.send(_packet(i)) for i in range(5)]
    sim.run(until=1.0)

    assert accepted_cross == accepted_mono == [True, True, True, False, False]
    assert cross_log == mono_log
    assert mono_log == [(0.01 * (k + 2), k) for k in range(3)]
    assert xlink.offered == link.offered == 5
    assert xlink.dropped_overflow == link.dropped_overflow == 2
    assert xlink.delivered == link.delivered == 3
    assert xlink.bytes_sent == link.bytes_sent


def test_cross_link_conservation_colocated():
    sim, boundary = _colocated()
    exit_ = CrossShardLinkExit(sim, boundary, "x", lambda p: None)
    xlink = CrossShardLink(sim, boundary, rate_bps=1e6, delay_s=0.01,
                           dst_shard=0, queue_packets=3, name="x")
    for i in range(6):
        xlink.send(_packet(i))
    sim.run(until=1.0)
    assert xlink.offered == xlink.delivered + xlink.dropped + xlink.in_flight
    assert xlink.in_flight == 0
    assert xlink.crossed == exit_.received == 4
    assert exit_.received_bytes == 4 * 1250


def test_cross_link_down_keeps_crossed_packets():
    # Documented divergence from Link: packets that already crossed the
    # boundary are beyond this shard's reach, so cutting the link drops
    # the queue but not the crossing in progress.
    sim, boundary = _colocated()
    exit_log = []
    xlink = CrossShardLink(sim, boundary, rate_bps=1e6, delay_s=0.01,
                           dst_shard=0, queue_packets=5, name="x")
    CrossShardLinkExit(sim, boundary, "x",
                       lambda p: exit_log.append(p.seq))
    for i in range(3):
        xlink.send(_packet(i))
    sim.at(0.005, xlink.set_up, False)  # mid-serialization of packet 0
    sim.run(until=1.0)
    # packet 0 crossed at send time; packets 1 and 2 died in the queue
    assert exit_log == [0]
    assert xlink.dropped_down == 2
    assert xlink.crossed == 1


def test_cross_link_unsupported_surface():
    sim, boundary = _colocated()
    xlink = CrossShardLink(sim, boundary, rate_bps=1e6, delay_s=0.01,
                           dst_shard=0, name="x")
    with pytest.raises(NotImplementedError, match="AQM"):
        xlink.set_aqm(object())
    with pytest.raises(NotImplementedError, match="CrossShardLinkExit"):
        xlink.connect(lambda p: None)
    with pytest.raises(RuntimeError, match="boundary"):
        xlink.receiver(_packet(0))


# -- promotion chain across a real shard boundary --------------------------


def _build_burst_shard(spec):
    """Shard 0 bursts packets into a rate-limited cross link; shard 1
    records arrival times at the exit."""
    shard = spec["shard"]
    sim = Simulator(3)
    boundary = ShardBoundary(sim, shard, 2)
    out = {}
    if shard == 0:
        xlink = CrossShardLink(sim, boundary, rate_bps=1e6, delay_s=0.03,
                               dst_shard=1, queue_packets=8, name="burst")
        for i in range(4):
            sim.at(0.0, xlink.send, _packet(i))
        out["link"] = xlink
    else:
        log = []
        CrossShardLinkExit(sim, boundary, "burst",
                           lambda p, log=log: log.append((sim.now, p.seq)))
        out["log"] = log

    def harvest(host):
        if "link" in out:
            return {"crossed": out["link"].crossed,
                    "delivered": out["link"].delivered}
        return {"log": out["log"]}

    return ShardHost(sim, boundary, harvest=harvest)


def test_cross_shard_burst_promotion_chain():
    # The hazard: with delivery happening in another shard, nothing in
    # shard 0's heap would ever promote the queued packets unless the
    # link arms its own wake-up per serialization. Four queued packets
    # must serialize back to back: arrivals at 10k ms + 30 ms (shard 1).
    specs = [{"shard": s} for s in range(2)]
    sharded = ShardedSimulator(_build_burst_shard, specs)
    results = sharded.run(until=1.0)
    merged = {}
    for r in results:
        merged.update(r)
    assert merged["crossed"] == merged["delivered"] == 4
    # written as the link computes them (done + delay on accumulated
    # done-times), which equals k*0.01 + 0.03 exactly for these values
    assert merged["log"] == [((k + 1) * 0.01 + 0.03, k) for k in range(4)]
    # lookahead came from the link's propagation delay
    assert sharded.lookahead_s == 0.03
