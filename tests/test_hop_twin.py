"""Hypothesis twin: the fused router hop against the nine-frame oracle.

Random chains ``a -> r0 -> ... -> rk -> b`` (every router also has a
side sink) run twice, once built from ``Router`` / ``Link`` and once
from :mod:`tests.reference.hop`'s ``ReferenceRouter`` / ``ReferenceLink``,
whose bodies are the hop as it ran before ``Router.receive`` was fused
and the drain admitted due offers itself. The chains vary routes,
forwarding delays, rates, queues, CoDel / RED with and without ECN,
loss, ``set_up`` flaps, ``add_route`` / ``remove_routes_to`` landing
inside a forwarding delay (the offers are recalled and decided again),
and a direct ``send()`` at the instant an offer falls due (the offer is
admitted first). Both runs must agree on every delivery (time,
receiver, hops, ECN codepoint, in arrival order), every link's ledger
and drop causes, every router's counters, the events executed, and the
tracer's records in arrival order, including the ``at=`` stamps of
lazily admitted drops.

Two hand-made mutants show the comparison has teeth: a drain that
delivers before it admits, and a router that does not stamp
``_offered_until`` (so a route change recalls nothing).
"""

import ipaddress

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.net import Host, Router
from repro.net.addressing import address_key
from repro.net.aqm import CoDelDiscipline, RedDiscipline
from repro.net.links import Link
from repro.net.packet import ECN_ECT, Packet
from repro.simcore import Simulator
from repro.simcore.trace import Tracer
from tests.reference.hop import ReferenceLink, ReferenceRouter

IP = ipaddress.IPv4Address
A, B = IP("10.0.0.1"), IP("10.0.1.1")
#: destinations a send may carry: b, one that only a default route
#: reaches, and none at all
DESTINATIONS = (B, B, B, IP("10.9.0.1"), None)
TICK_S = 50e-6

_LEDGER = ("offered", "delivered", "dropped", "dropped_overflow",
           "dropped_down", "dropped_loss", "dropped_aqm", "marked_ecn",
           "offered_bytes", "delivered_bytes", "dropped_bytes",
           "bytes_sent", "offers_admitted", "in_flight", "in_flight_bytes")

_links = st.fixed_dictionaries({
    "rate_bps": st.sampled_from([float("inf"), 1e6, 10e6, 100e6]),
    "delay_s": st.sampled_from([0.0, 1e-4, 2e-3]),
    "queue_packets": st.sampled_from([2, 5, 100]),
    "queue_bytes": st.sampled_from([None, 4000]),
    "aqm": st.sampled_from([None, "codel", "codel-ecn", "red", "red-ecn"]),
    "loss_rate": st.sampled_from([0.0, 0.0, 0.1]),
})
_routers = st.fixed_dictionaries({
    "forwarding_delay_s": st.sampled_from([0.0, 20e-6, 1e-3]),
    "default_to_side": st.booleans(),
})
_ops = st.tuples(
    st.integers(0, 300),  # tick
    st.sampled_from(["flap", "divert", "undivert", "withdraw", "restore",
                     "tie", "loss"]),
    st.integers(0, 7),    # which router / link (mod the chain)
    st.integers(1, 40),   # flap length in ticks; odd turns loss on
)
_sends = st.tuples(
    st.integers(0, 300),              # tick
    st.sampled_from([64, 500, 1500]),  # size
    st.booleans(),                    # ECT
    st.sampled_from(range(len(DESTINATIONS))),
)
_scenarios = st.integers(1, 4).flatmap(lambda n: st.fixed_dictionaries({
    "routers": st.lists(_routers, min_size=n, max_size=n),
    "links": st.lists(_links, min_size=n + 1, max_size=n + 1),
    "sends": st.lists(_sends, min_size=1, max_size=60),
    "ops": st.lists(_ops, max_size=8),
}))


def _aqm(kind):
    if kind is None:
        return None
    ecn = kind.endswith("-ecn")
    if kind.startswith("codel"):
        return CoDelDiscipline(target_s=1e-3, interval_s=5e-3, ecn=ecn)
    return RedDiscipline(min_th=1.0, max_th=4.0, max_p=0.5, ecn=ecn)


def _run(scenario, router_cls, link_cls):
    """Build and run one chain; returns everything the twins must share."""
    sim = Simulator(seed=9)
    sim.tracer = Tracer()
    arrivals = []

    def sink(name):
        host = Host(sim, name)
        host.on_packet = lambda p: arrivals.append(
            (sim.now, name, p.seq, tuple(p.hops), p.ecn))
        return host

    def wire(left, right, rate_bps=10e6, delay_s=1e-3, queue_packets=100,
             queue_bytes=None, aqm=None, loss_rate=0.0):
        link = link_cls(sim, rate_bps, delay_s, queue_packets,
                        name=f"{left.name}->{right.name}",
                        queue_bytes=queue_bytes)
        link.connect(right.receive)
        left.links[right.name] = link
        if aqm is not None:
            link.set_aqm(_aqm(aqm))
        if loss_rate:
            link.set_loss_rate(loss_rate)
        return link

    a = Host(sim, "a", A)
    routers = [router_cls(sim, f"r{i}", spec["forwarding_delay_s"])
               for i, spec in enumerate(scenario["routers"])]
    chain = [a, *routers, sink("b")]
    links = [wire(left, right, **spec) for left, right, spec
             in zip(chain, chain[1:], scenario["links"])]
    sides = []
    for i, (router, spec) in enumerate(zip(routers, scenario["routers"])):
        side = sink(f"s{i}")
        sides.append(side)
        links.append(wire(router, side))
        router.add_route("10.0.1.0/24", chain[i + 2].name)
        if spec["default_to_side"]:
            router.default_route = side.name

    for seq, (tick, size, ect, dst) in enumerate(scenario["sends"]):
        packet = Packet(src=A, dst=DESTINATIONS[dst], size_bytes=size,
                        seq=seq, ecn=ECN_ECT if ect else 0)
        sim.at(tick * TICK_S, a.send, packet)

    def tie(router, link, seq):
        # an offer for now + delay, and a direct send at that very instant
        router.receive(Packet(src=A, dst=B, size_bytes=500, seq=seq))
        sim.at(sim.now + router.forwarding_delay_s, link.send,
               Packet(src=A, dst=B, size_bytes=500, seq=seq + 1))

    for k, (tick, kind, which, length) in enumerate(scenario["ops"]):
        at = tick * TICK_S
        i = which % len(routers)
        router, nxt, side = routers[i], chain[i + 2].name, sides[i].name
        if kind == "flap":
            link = links[which % len(links)]
            sim.at(at, link.set_up, False)
            sim.at(at + length * TICK_S, link.set_up, True)
        elif kind == "divert":
            sim.at(at, router.add_route, "10.0.1.0/25", side)
        elif kind == "undivert":
            sim.at(at, router.remove_routes_to, side)
        elif kind == "withdraw":
            sim.at(at, router.remove_routes_to, nxt)
        elif kind == "restore":
            sim.at(at, router.add_route, "10.0.1.0/24", nxt)
        elif kind == "tie":
            sim.at(at, tie, router, router.links[nxt], 10_000 + 2 * k)
        else:
            sim.at(at, links[which % len(links)].set_loss_rate,
                   0.3 if length % 2 else 0.0)
    sim.run()

    ledgers = [(link.name, *(getattr(link, f) for f in _LEDGER))
               for link in links]
    counters = [(r.name, r.received, r.forwarded, r.no_route)
                for r in routers]
    trace = [(e.time_s, e.category, e.message, e.fields)
             for e in sim.tracer._events]
    return {"arrivals": arrivals, "ledgers": ledgers, "routers": counters,
            "events": sim.events_executed, "trace": trace}


def _twin_property(router_cls, link_cls, **overrides):
    @given(_scenarios)
    @settings(max_examples=150, deadline=None, derandomize=True,
              report_multiple_bugs=False, **overrides)
    def holds(scenario):
        fused = _run(scenario, router_cls, link_cls)
        reference = _run(scenario, ReferenceRouter, ReferenceLink)
        for key in reference:
            assert fused[key] == reference[key], key
    return holds


test_fused_hop_matches_the_nine_frame_oracle = _twin_property(Router, Link)


SCRIPTED = {
    "routers": [{"forwarding_delay_s": 1e-3, "default_to_side": True},
                {"forwarding_delay_s": 20e-6, "default_to_side": False}],
    "links": [
        {"rate_bps": 10e6, "delay_s": 1e-4, "queue_packets": 100,
         "queue_bytes": None, "aqm": None, "loss_rate": 0.0},
        {"rate_bps": 1e6, "delay_s": 2e-3, "queue_packets": 5,
         "queue_bytes": 4000, "aqm": "codel-ecn", "loss_rate": 0.1},
        {"rate_bps": 1e6, "delay_s": 0.0, "queue_packets": 100,
         "queue_bytes": None, "aqm": "red", "loss_rate": 0.0}],
    "sends": [(t, 1500, t % 8 == 0, t % len(DESTINATIONS))
              for t in range(0, 200, 4)],
    "ops": [(30, "withdraw", 0, 1), (31, "restore", 0, 1),
            (60, "tie", 1, 1), (90, "flap", 1, 200),
            (1000, "divert", 1, 1), (1400, "undivert", 1, 1)],
}


def test_a_scripted_chain_exercises_what_the_twin_compares():
    """One hand-picked scenario, so the draws above are known to reach
    recall, ties, AQM marks and drops by every cause."""
    fused = _run(SCRIPTED, Router, Link)
    assert fused == _run(SCRIPTED, ReferenceRouter, ReferenceLink)
    # the withdrawal lands inside r0's forwarding delay, and a drain
    # finds an offer due
    assert fused != _run(SCRIPTED, _UnstampedRouter, Link)
    assert fused != _run(SCRIPTED, Router, _DeliverFirstLink)
    names = {name for _t, name, *_ in fused["arrivals"]}
    assert names == {"b", "s0", "s1"}
    causes = {message.rsplit(": ", 1)[1]
              for _t, category, message, _f in fused["trace"]
              if category == "drop"}
    assert causes == {"overflow", "down", "loss", "aqm"}
    assert any(ecn == 3 for *_rest, ecn in fused["arrivals"])
    assert any(seq >= 10_000 for _t, _n, seq, *_ in fused["arrivals"])


# -- mutants the twin must kill -----------------------------------------------

class _DeliverFirstLink(Link):
    """Mutant: the drain hands over the flight before admitting offers."""

    def _drain(self):
        now = self.sim.now
        flight = self._flight
        while flight and flight[0][0] <= now:
            _at, packet = flight.popleft()
            if not self.up:
                self._drop("down", now, packet.size_bytes)
                continue
            self.delivered += 1
            self.delivered_bytes += packet.size_bytes
            self.receiver(packet)
        self._admit_due(now)
        if self._egress:
            self._advance(now)
        if self._wakeup_at <= now:
            self._wakeup_at = float("inf")
        if flight:
            due = flight[0][0]
        elif self._offers:
            due = self._offers[0][0]
        else:
            return
        if due < self._wakeup_at:
            self._wakeup_at = due
            self._post_at(due, self._wake)


class _UnstampedRouter(Router):
    """Mutant: ``_offered_until`` is never stamped, so a route change
    inside the forwarding delay recalls nothing."""

    def receive(self, packet):
        self.received += 1
        hops = packet.hops
        if hops is None:
            packet.hops = [self.name]
        else:
            hops.append(self.name)
        if packet.dst is None:
            self.no_route += 1
            return
        try:
            neighbor = self._fib[address_key(packet.dst)]
        except KeyError:
            neighbor = self.lookup(packet.dst)
        link = self.links.get(
            self.default_route if neighbor is None else neighbor)
        if link is None:
            self.no_route += 1
            return
        self.forwarded += 1
        link.send_at(self.sim.now + self.forwarding_delay_s, packet)


@pytest.mark.parametrize("router_cls, link_cls", [
    (Router, _DeliverFirstLink),
    (_UnstampedRouter, Link),
], ids=["drain-delivers-before-admitting", "offered-until-not-stamped"])
def test_the_twin_kills_a_mutant(router_cls, link_cls):
    with pytest.raises(AssertionError):
        # generate only: nobody reads the shrunk example
        _twin_property(router_cls, link_cls, phases=[Phase.generate])()
