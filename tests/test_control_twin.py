"""Hypothesis twin: production control agents against the reference.

Random agent graphs run twice, once built from ``ControlAgent`` /
``ControlChannel`` and once from :mod:`tests.reference.control`'s
``ReferenceAgent`` / ``ReferenceChannel``: one arrival event per
message, a service start through ``_serve_next`` and a queue gauge set
on every change. The graphs vary service times and channel delays on
one binary tick (so float sums tie exactly, and arrivals land on
busy-period ends), mix self-channels with ordinary ones, and drive them
with single sends, same-instant broadcasts, multi-hop relays, overload
policies installed and cleared mid-run (chosen so that priority
eviction, the queue-full fallback and admission refusal are all
reached), direct ``enqueue`` calls,
``run(until=)`` stops and reads between and inside runs, on the arrival
grid and half a tick off it. Both runs must agree on every ``handle``
(time, agent, message, ``queued_at``, ``sent_at``, sender, in order),
on every agent's depth, in-flight count, peak and ledger at every read,
on the simulator's ``agent_peak_queue``, and on every exported row.

A hand-made mutant shows the comparison has teeth: an idle agent that
starts service through an event of its own at ``now`` instead of
inline, which ``enqueue``'s docstring says would reorder seeded
schedules.
"""

from dataclasses import dataclass

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.epc.agents import ControlAgent, ControlChannel, ControlMessage
from repro.epc.nas import AttachRequest, Paging
from repro.epc.overload import OverloadPolicy
from repro.simcore import Simulator
from tests.reference.control import ReferenceAgent, ReferenceChannel

TICK = 2.0 ** -10
POLICIES = (OverloadPolicy(queue_limit=2),
            OverloadPolicy(queue_limit=1),
            OverloadPolicy(queue_limit=2, admission_limit=2))
#: the shed causes the POLICIES must reach across the generated graphs
CAUSES = {"priority", "queue-full", "congestion"}


@dataclass
class Note:
    """A payload the priority classifier files as procedure work."""

    ue_id: str
    size_bytes: int = 80


KINDS = {"note": Note, "attach": AttachRequest, "paging": Paging}

_scenarios = st.integers(2, 5).flatmap(lambda n: st.fixed_dictionaries({
    "service": st.lists(st.sampled_from([0, 1, 2, 3, 4]), min_size=n,
                        max_size=n),
    "policy": st.lists(st.sampled_from([None, None, None, 0, 1, 2]),
                       min_size=n, max_size=n),
    "channels": st.lists(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1),
                                   st.sampled_from([0, 1, 2, 3, 5])),
                         min_size=1, max_size=7),
    "sends": st.lists(st.tuples(st.integers(0, 40), st.integers(0, 20),
                                st.booleans(), st.integers(0, 3),
                                st.sampled_from(list(KINDS))),
                      min_size=1, max_size=30),
    "bursts": st.lists(st.tuples(st.integers(0, 40), st.integers(0, n - 1),
                                 st.integers(0, 2)), max_size=6),
    "ops": st.lists(st.tuples(st.integers(0, 60), st.sampled_from([0, 0.5]),
                              st.integers(0, n - 1),
                              st.sampled_from(["read", "read", "policy",
                                               "clear", "enqueue"])),
                    max_size=6),
    "stops": st.lists(st.integers(0, 60), max_size=3),
}))


def _agent_class(base):
    class TwinAgent(base):
        """Logs each message it serves and relays it while hops remain."""

        def __init__(self, sim, name, service_time_s, log, routes):
            super().__init__(sim, name, service_time_s)
            self.log = log
            self.routes = routes
            self.channels = []

        def handle(self, message):
            uid, hops, kind = self.routes[id(message.payload)]
            self.log.append((self.sim.now, self.name, uid, message.queued_at,
                             message.sent_at, message.sender.name))
            if hops and self.channels:
                channel = self.channels[(uid * 7 + hops) % len(self.channels)]
                channel.send(self, self.routes.payload(uid, hops - 1, kind))

    TwinAgent.__name__ = f"Twin{base.__name__}"
    return TwinAgent


class _Routes(dict):
    """payload identity -> (uid, hops left, kind)"""

    def payload(self, uid, hops, kind):
        payload = KINDS[kind](ue_id=f"u{uid}")
        self[id(payload)] = (uid, hops, kind)
        return payload


def _state(sim, agents):
    return ([(a.name, a.queue_depth, a.in_flight, a.peak_queue_depth,
              a.enqueued, a.processed, a.shed, dict(a.shed_by_cause),
              a.busy_time_s) for a in agents],
            sim.agent_peak_queue)


def _run(scenario, agent_cls, channel_cls):
    """Build and drive one graph; returns everything the twins share."""
    sim = Simulator(seed=3)
    log, reads, routes = [], [], _Routes()
    agents = [agent_cls(sim, f"a{i}", service * TICK, log, routes)
              for i, service in enumerate(scenario["service"])]
    for agent, policy in zip(agents, scenario["policy"]):
        if policy is not None:
            agent.configure_overload(POLICIES[policy])
    channels = []
    for k, (i, j, delay) in enumerate(scenario["channels"]):
        channel = channel_cls(sim, agents[i], agents[j], delay * TICK,
                              name=f"c{k}")
        channels.append(channel)
        agents[i].channels.append(channel)
        if j != i:
            agents[j].channels.append(channel)
    uids = iter(range(10_000))

    def send(channel, sender, hops, kind):
        channel.send(sender, routes.payload(next(uids), hops, kind))

    def burst(agent, hops):
        for channel in agent.channels:
            send(channel, agent, hops, "note")

    def op(kind, agent):
        if kind == "read":
            reads.append((sim.now, _state(sim, agents),
                          sim.metrics.snapshot()))
        elif kind == "policy":
            agent.configure_overload(POLICIES[0])
        elif kind == "clear":
            agent.configure_overload(None)
        else:
            payload = routes.payload(next(uids), 1, "note")
            agent.enqueue(ControlMessage(payload=payload, sender=agent))

    for tick, which, forward, hops, kind in scenario["sends"]:
        channel = channels[which % len(channels)]
        sender = channel.ends[0 if forward else 1]
        sim.at(tick * TICK, send, channel, sender, hops, kind)
    for tick, which, hops in scenario["bursts"]:
        sim.at(tick * TICK, burst, agents[which], hops)
    for tick, offset, which, kind in scenario["ops"]:
        sim.at((tick + offset) * TICK, op, kind, agents[which])
    for stop in sorted(scenario["stops"]):
        sim.run(until=stop * TICK)
        reads.append(("stop", sim.now, _state(sim, agents),
                      sim.metrics.snapshot()))
    sim.run()
    return {"log": log, "reads": reads, "final": _state(sim, agents),
            "rows": sim.metrics.snapshot()}


def _twin_property(agent_base, causes=None, **overrides):
    """The twin comparison as a property; each shed cause a production
    run reaches is added to ``causes`` when one is given."""
    agent_cls = _agent_class(agent_base)
    reference_cls = _agent_class(ReferenceAgent)

    @given(_scenarios)
    @settings(max_examples=200, deadline=None, derandomize=True,
              report_multiple_bugs=False, **overrides)
    def holds(scenario):
        production = _run(scenario, agent_cls, ControlChannel)
        reference = _run(scenario, reference_cls, ReferenceChannel)
        for key in reference:
            assert production[key] == reference[key], key
        if causes is not None:
            for *_, by_cause, _busy in production["final"][0]:
                causes.update(by_cause)
    return holds


def test_agents_match_one_event_per_arrival():
    reached = set()
    _twin_property(ControlAgent, causes=reached)()
    assert reached == CAUSES


def test_a_read_at_an_arrival_instant_sees_what_arrives_then():
    """A reader running at exactly the instant messages arrive, keyed
    after their arrival events, counts them, as the reference does."""
    for agent_cls, channel_cls in (
            (_agent_class(ControlAgent), ControlChannel),
            (_agent_class(ReferenceAgent), ReferenceChannel)):
        sim = Simulator(seed=0)
        log, routes = [], _Routes()
        source = agent_cls(sim, "src", 0.0, log, routes)
        core = agent_cls(sim, "core", 4 * TICK, log, routes)
        channel = channel_cls(sim, source, core, TICK, name="c")
        for uid in range(3):  # one in service from TICK, two waiting
            channel.send(source, routes.payload(uid, 0, "note"))
        depths = []
        sim.at(TICK, lambda: depths.append(core.queue_depth))
        sim.at(2 * TICK, lambda: depths.append(core.queue_depth))
        sim.run()
        assert depths == [2, 2]
        assert [uid for _t, name, uid, *_ in log] == [0, 1, 2]


# -- a mutant the twin must kill ----------------------------------------------

class _PostedStart(ControlAgent):
    """Mutant: an arrival that finds the agent idle only joins the
    queue, and service starts in an event of its own posted at ``now``."""

    def enqueue(self, message):
        idle = not self._busy
        # the inline start sees a busy agent; admission cannot tell, as
        # no policy in POLICIES refuses below an admission limit of 2
        self._busy = True
        super().enqueue(message)
        if idle:
            self._busy = False
            self.sim.post_at(self.sim.now, self._start)

    def _start(self):
        if self._busy or not self._queue:
            return
        self._busy = True
        message = self._queue.popleft()
        now = self.sim.now
        self._m_wait.observe(now - message.queued_at)
        self.sim.post_at(now + self.service_time_s, self._finish_cb, message)


@pytest.mark.parametrize("agent_base", [_PostedStart],
                         ids=["service-start-posted"])
def test_the_twin_kills_a_mutant(agent_base):
    with pytest.raises(AssertionError):
        # generate only: nobody reads the shrunk example
        _twin_property(agent_base, phases=[Phase.generate])()
