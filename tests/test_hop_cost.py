"""Count gate: what one link delivery costs on a router chain.

A host sends through three routers to a host (four links), and the
whole run is traced with ``sys.settrace``: ``call`` events count Python
frames, ``line`` events count executed lines, and both are divided by
the link deliveries. The counts repeat exactly from run to run and time
nothing.

Three link states:

- idle: packets 3 ms apart, so every hop finds an empty link and the
  whole hop is one ``_drain`` that admits, serves and delivers;
- queued: packets 200 µs apart on 10 Mb/s, so the first link queues and
  the others always have a flight pending;
- managed: the queued chain with CoDel + ECN on every hop, so the AQM
  hook runs on the path.

What a router hop costs is frames, not lines. Fusing ``Router.receive``
(it used to be ``NetworkNode.receive`` → ``Router.handle`` →
``Router.lookup``) and admitting due offers inside ``Link._drain``
removed 2.2 calls per delivery in all three states (idle 9.0 → 6.8)
while lines moved by 4 of 92: the same statements run, in fewer frames.
"Halve the lines per hop" is therefore the wrong target. A queued
delivery costs two frames more than an idle one, and they are not the
hop's: the queue-depth ``Gauge.set`` (1.3 per delivery) and the
promotion in ``Link._advance`` (0.7).
"""

import ipaddress
import sys

import pytest

from repro.net import Host, Router
from repro.net.aqm import CoDelDiscipline
from repro.net.packet import ECN_ECT, Packet
from repro.simcore import Simulator

IP = ipaddress.IPv4Address
A, B = IP("10.0.0.1"), IP("10.0.1.1")
PACKETS = 100


def _chain(gap_s, managed=False):
    """a -> r0 -> r1 -> r2 -> b at 10 Mb/s, ``PACKETS`` sends of 1000 B
    ``gap_s`` apart; returns the simulator and the four forward links."""
    sim = Simulator(seed=5)
    a, b = Host(sim, "a", A), Host(sim, "b", B)
    routers = [Router(sim, f"r{i}") for i in range(3)]
    chain = [a, *routers, b]
    for left, right in zip(chain, chain[1:]):
        left.connect_bidirectional(right, rate_bps=10e6, delay_s=2e-3)
    for i, router in enumerate(routers):
        router.add_route("10.0.1.0/24", chain[i + 2].name)
    links = [left.links[right.name] for left, right in zip(chain, chain[1:])]
    if managed:
        for link in links:
            link.set_aqm(CoDelDiscipline(target_s=1e-3, interval_s=10e-3,
                                         ecn=True))
    for seq in range(PACKETS):
        packet = Packet(src=A, dst=B, size_bytes=1000, seq=seq)
        packet.ecn = ECN_ECT
        sim.schedule(gap_s * seq, a.send, packet)
    return sim, links


def _cost_per_delivery(gap_s, managed=False):
    """(calls, lines) per link delivery over one traced run."""
    sim, links = _chain(gap_s, managed)
    calls = lines = 0

    def tracer(frame, event, arg):
        nonlocal calls, lines
        if event == "call":
            calls += 1
        elif event == "line":
            lines += 1
        return tracer

    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        sim.run()
    finally:
        sys.settrace(outer)
    deliveries = sum(link.delivered for link in links)
    assert deliveries > 2 * PACKETS
    if managed:
        assert sum(link.marked_ecn for link in links) > 0
    return calls / deliveries, lines / deliveries


#: state -> (gap_s, managed, max calls, max lines) per delivery. Measured
#: 6.79 / 86.0, 7.50 / 91.9 and 8.54 / 98.6 on CPython 3.11.7, each bound
#: about a quarter frame and a line and a half above; when the hop was
#: fused, the idle and queued chains read 6.78 / 87.9 and 8.79 / 101.0;
#: before the fused hop 9.03 / 92.4, 11.01 / 105.4 and 12.80 / 114.2
#: (managed with a 2% random loss, which links no longer draw).
CHAINS = {
    "idle": (3e-3, False, 7.0, 87.5),
    "queued": (200e-6, False, 7.7, 93.5),
    "managed": (200e-6, True, 8.8, 100.0),
}


@pytest.mark.parametrize("state", list(CHAINS))
def test_a_router_hop_costs_six_frames(state):
    gap_s, managed, max_calls, max_lines = CHAINS[state]
    calls, lines = _cost_per_delivery(gap_s, managed)
    assert calls <= max_calls, (state, calls, lines)
    assert lines <= max_lines, (state, calls, lines)
