"""Hypothesis twin: sharded windows at their edges.

Random federations of two or three shards run twice. One is built from
``ControlAgent``, ``ControlChannel`` and ``CrossShardChannel`` and
driven by ``ShardHost``; the other from :mod:`tests.reference.control`'s
one-event-per-arrival classes, driven by :class:`_SteppedHost`, which
advances a window one event at a time and stops at the first event that
is not strictly before the window's edge (at or after the horizon, for
the last window). That is what "a window is exclusive of its right
edge" means, written without ``Simulator.run(until=)``.

Everything is on one binary tick, and the cross-shard delay is the
window or a whole multiple of it, so records fall due exactly on window
edges. Agents with zero service time finish the instant a message
arrives, so an event on an edge makes more events at that edge: if a
window ran its edge, those would run before the records injected for
that edge, not after. Arrivals meet injected records at the edge too:
a record's arrival event is posted at the barrier, after every arrival
the window posted for the same instant. Both runs must agree on every
``handle`` in every shard (time, agent, message, ``queued_at``,
``sent_at``, sender, in order), every agent's ledger and peak, and the
records withheld past the horizon.

The twin kills the mutant no E19 cell and no test in
``test_sharded_sim.py`` catches: a non-final window run inclusive of
its edge.
"""

import math
from dataclasses import dataclass

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.epc.agents import ControlAgent, ControlChannel
from repro.net.shardlink import CrossShardChannel
from repro.simcore import Simulator
from repro.simcore.sharded import ShardBoundary, ShardedSimulator, ShardHost
from tests.reference.control import (
    ReferenceAgent,
    ReferenceChannel,
    ReferenceCrossShardChannel,
)

TICK = 2.0 ** -10
WINDOW = 4            # ticks: the smallest cross-shard delay
HORIZON = 13 * WINDOW


@dataclass
class Note:
    """A payload carrying ``(uid, hops left)`` where NAS carries a UE id."""

    ue_id: tuple
    size_bytes: int = 80


_scenarios = st.integers(2, 3).flatmap(lambda n: st.fixed_dictionaries({
    "shards": st.just(n),
    "service": st.lists(st.lists(st.sampled_from([0, 0, 1, 2, 3]),
                                 min_size=1, max_size=3),
                        min_size=n, max_size=n),
    "local": st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 2),
                                st.integers(0, 2),
                                st.sampled_from([0, 1, 2, WINDOW])),
                      max_size=4),
    "cross": st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 2),
                                st.integers(1, n - 1), st.integers(0, 2),
                                st.sampled_from([WINDOW, WINDOW,
                                                 2 * WINDOW])),
                      min_size=1, max_size=4),
    "sends": st.lists(st.tuples(st.integers(0, HORIZON), st.integers(0, 8),
                                st.booleans(), st.integers(0, 3)),
                      min_size=1, max_size=25),
    "bursts": st.lists(st.tuples(st.integers(0, HORIZON // WINDOW),
                                 st.integers(0, n - 1), st.integers(0, 2),
                                 st.integers(0, 2)), max_size=4),
}))


def _agent_class(base):
    class EdgeAgent(base):
        """Logs each message it serves and relays it while hops remain."""

        def __init__(self, sim, name, service_time_s, log):
            super().__init__(sim, name, service_time_s)
            self.log = log
            self.channels = []

        def handle(self, message):
            uid, hops = message.payload.ue_id
            self.log.append((self.sim.now, self.name, uid, message.queued_at,
                             message.sent_at, message.sender.name))
            if hops and self.channels:
                channel = self.channels[(uid * 5 + hops) % len(self.channels)]
                channel.send(self, Note(ue_id=(uid, hops - 1)))

    EdgeAgent.__name__ = f"Edge{base.__name__}"
    return EdgeAgent


class _SteppedHost(ShardHost):
    """A window advanced event by event: run the next event while it is
    strictly before the edge (at or before it, in the last window)."""

    __slots__ = ()

    def advance(self, until, final):
        sim = self.sim
        heap = sim._heap
        while heap and (heap[0][0] < until or (final and heap[0][0] <= until)):
            sim.run(max_events=1)
        sim.now = until
        self.windows += 1


class _InclusiveHost(ShardHost):
    """Mutant: every window runs its right edge."""

    __slots__ = ()

    def advance(self, until, final):
        self.sim.run(until=until)
        self.windows += 1


def _builder(scenario, agent_base, channel_cls, cross_cls, host_cls):
    agent_cls = _agent_class(agent_base)
    n = scenario["shards"]

    def name(shard, i):
        return f"s{shard}a{i % len(scenario['service'][shard])}"

    def build(shard):
        sim = Simulator(seed=5)
        boundary = ShardBoundary(sim, shard, n)
        log = []
        agents = {name(shard, i): agent_cls(sim, name(shard, i),
                                            service * TICK, log)
                  for i, service in enumerate(scenario["service"][shard])}
        channels = []   # (channel, its ends in this shard)
        for k, (home, i, j, delay) in enumerate(scenario["local"]):
            if home != shard:
                continue
            a, b = agents[name(shard, i)], agents[name(shard, j)]
            channel = channel_cls(sim, a, b, delay * TICK, name=f"l{k}")
            channels.append((channel, (a, b)))
        for k, (src, i, offset, j, delay) in enumerate(scenario["cross"]):
            dst = (src + offset) % n
            here = {src: (i, dst, j), dst: (j, src, i)}.get(shard)
            if here is None:
                continue
            local, remote_shard, remote = here
            agent = agents[name(shard, local)]
            half = cross_cls(sim, boundary, agent, name(remote_shard, remote),
                             remote_shard, delay * TICK, f"x{k}")
            channels.append((half, (agent, agent)))
        for channel, (a, b) in channels:
            a.channels.append(channel)
            if b is not a:
                b.channels.append(channel)
        uids = iter(range(shard * 10_000, (shard + 1) * 10_000))

        def send(channel, sender, hops):
            channel.send(sender, Note(ue_id=(next(uids), hops)))

        for tick, which, forward, hops in scenario["sends"]:
            if not channels:
                break
            channel, ends = channels[which % len(channels)]
            sim.at(tick * TICK, send, channel, ends[0 if forward else 1], hops)
        for window, home, i, hops in scenario["bursts"]:
            if home != shard:
                continue
            agent = agents[name(shard, i)]
            for channel in agent.channels:
                sim.at(window * WINDOW * TICK, send, channel, agent, hops)

        def harvest(host):
            return {"log": log, "ledger": sorted(
                (a.name, a.enqueued, a.processed, a.shed, a.queue_depth,
                 a.peak_queue_depth, a.busy_time_s) for a in agents.values())}

        return host_cls(sim, boundary, harvest=harvest)

    return build


def _run(scenario, agent_base, channel_cls, cross_cls, host_cls):
    federation = ShardedSimulator(
        _builder(scenario, agent_base, channel_cls, cross_cls, host_cls),
        list(range(scenario["shards"])))
    results = federation.run(until=HORIZON * TICK)
    assert federation.lookahead_s in (None, WINDOW * TICK,
                                      2 * WINDOW * TICK)
    withheld = sorted((r[0], r[5]) for r in federation.undelivered)
    return {"shards": results, "withheld": withheld}


def _twin_property(host_cls, **overrides):
    @given(_scenarios)
    @settings(max_examples=150, deadline=None, derandomize=True,
              report_multiple_bugs=False, **overrides)
    def holds(scenario):
        production = _run(scenario, ControlAgent, ControlChannel,
                          CrossShardChannel, host_cls)
        reference = _run(scenario, ReferenceAgent, ReferenceChannel,
                         ReferenceCrossShardChannel, _SteppedHost)
        assert production == reference
    return holds


test_windows_match_an_event_by_event_drive_at_their_edges = _twin_property(
    ShardHost)


def test_the_stepped_drive_is_the_window_rule():
    """The oracle itself: the last event a non-final window runs is
    strictly before its edge, and the next window starts at the edge."""
    sim = Simulator(seed=0)
    ran = []
    for tick in (0, WINDOW - 1, WINDOW, WINDOW + 1):
        sim.at(tick * TICK, lambda t=tick: ran.append(t))
    host = _SteppedHost(sim, ShardBoundary(sim, 0, 1))
    host.advance(WINDOW * TICK, final=False)
    assert ran == [0, WINDOW - 1] and sim.now == WINDOW * TICK
    host.advance(WINDOW * TICK, final=True)
    assert ran == [0, WINDOW - 1, WINDOW]
    assert math.isclose(sim.now, WINDOW * TICK)


def test_the_twin_kills_an_inclusive_window():
    with pytest.raises(AssertionError):
        # generate only: nobody reads the shrunk example
        _twin_property(_InclusiveHost, phases=[Phase.generate])()
