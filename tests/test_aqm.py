"""The CoDel discipline, ECN marking, and the link byte ledger.

Covers the data-plane AQM machinery: the verdict state machine in
isolation, CoDel/ECN integration on :class:`Link` (drop causes, byte
conservation, gauge exactness), a discipline installed mid-traffic, and
the byte ledger of a link that never had one.
"""

import pytest

from repro.invariants.checks import InvariantChecker
from repro.net.aqm import DROP, MARK, PASS, CoDelDiscipline
from repro.net.links import Link
from repro.net.packet import ECN_CE, ECN_ECT, ECN_NOT_ECT, Packet
from repro.simcore.simulator import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=0)


def _packet(size=500, ecn=ECN_NOT_ECT):
    return Packet(src=None, dst=None, size_bytes=size, ecn=ecn)


# -- CoDel state machine ---------------------------------------------------

def test_codel_validates_params():
    with pytest.raises(ValueError):
        CoDelDiscipline(target_s=0.0)
    with pytest.raises(ValueError):
        CoDelDiscipline(interval_s=-1.0)


def test_codel_state_machine_follows_the_control_law():
    codel = CoDelDiscipline(target_s=0.005, interval_s=0.1)
    # below target: nothing happens
    assert codel.on_dequeue(0.001, 0.00) == PASS
    assert not codel.dropping
    # above target starts the interval timer, but no verdict yet
    assert codel.on_dequeue(0.010, 0.00) == PASS
    assert codel.on_dequeue(0.010, 0.05) == PASS
    # a full interval above target: enter dropping, first drop now
    assert codel.on_dequeue(0.010, 0.11) == DROP
    assert codel.dropping and codel.count == 1
    # next drop is scheduled interval/sqrt(count) later, not before
    assert codel.on_dequeue(0.010, 0.15) == PASS
    assert codel.on_dequeue(0.010, 0.22) == DROP
    assert codel.count == 2
    # sojourn back under target leaves the dropping state immediately
    assert codel.on_dequeue(0.001, 0.30) == PASS
    assert not codel.dropping


def test_codel_ecn_mode_marks_instead_of_dropping():
    codel = CoDelDiscipline(target_s=0.005, interval_s=0.1, ecn=True)
    codel.on_dequeue(0.010, 0.00)
    assert codel.on_dequeue(0.010, 0.11) == MARK


# -- link integration ------------------------------------------------------

def _congest(sim, link, n=5, size=500, ecn=ECN_NOT_ECT):
    """Blast ``n`` packets at t=0 into a 1000 B/s link and run it dry."""
    got = []
    link.connect(got.append)
    sent = [link.send(_packet(size, ecn=ecn)) for _ in range(n)]
    sim.run(until=60.0)
    return got, sent


def _codel(ecn=False):
    return CoDelDiscipline(target_s=0.005, interval_s=0.1, ecn=ecn)


def test_link_aqm_drops_are_counted_by_cause(sim):
    # a 5-packet queue behind one in service: the last four of ten are
    # tail drops; CoDel culls three of the queued ones at dequeue
    link = Link(sim, rate_bps=8000.0, delay_s=0.0, queue_packets=5,
                name="aqm-drop")
    link.set_aqm(_codel())
    got, sent = _congest(sim, link, n=10)
    assert sent == [True] * 6 + [False] * 4
    assert (link.dropped_overflow, link.dropped_aqm) == (4, 3)
    assert len(got) == 3
    assert link.dropped == 7 == (link.dropped_overflow + link.dropped_down
                                 + link.dropped_aqm)
    assert link.offered == link.delivered + link.dropped + link.in_flight


def test_link_aqm_marks_ect_packets_instead(sim):
    link = Link(sim, rate_bps=8000.0, delay_s=0.0, queue_packets=50,
                name="aqm-mark")
    link.set_aqm(_codel(ecn=True))
    got, sent = _congest(sim, link, n=6, ecn=ECN_ECT)
    # every packet survives: congestion became CE marks, not drops
    assert sent == [True] * 6
    assert len(got) == 6
    assert link.dropped == 0
    assert link.marked_ecn == 4
    assert sim.ecn_marks == 4
    assert [p.ecn for p in got] == [ECN_ECT, ECN_ECT] + [ECN_CE] * 4


def test_link_aqm_mark_falls_back_to_drop_for_non_ect(sim):
    # an ECN-enabled AQM still has to drop packets whose transport never
    # negotiated ECN (codepoint not-ECT)
    link = Link(sim, rate_bps=8000.0, delay_s=0.0, queue_packets=50,
                name="aqm-fallback")
    link.set_aqm(_codel(ecn=True))
    got, sent = _congest(sim, link, n=6, ecn=ECN_NOT_ECT)
    assert sent == [True] * 6
    assert link.dropped_aqm == 3
    assert link.marked_ecn == 0
    assert len(got) == 3


def test_link_codel_drops_on_sojourn(sim):
    # 1000 B/s serialization means the Nth queued packet waits N/2
    # seconds — far above target, so CoDel must engage at dequeue time
    link = Link(sim, rate_bps=8000.0, delay_s=0.0, queue_packets=50,
                name="codel-link")
    link.set_aqm(CoDelDiscipline(target_s=0.005, interval_s=0.1))
    got, sent = _congest(sim, link, n=10)
    assert all(sent)                    # CoDel never rejects at enqueue
    assert link.dropped_aqm > 0         # ... but culls at dequeue
    assert len(got) == 10 - link.dropped_aqm
    assert link.offered_bytes == (link.delivered_bytes + link.dropped_bytes
                                  + link.in_flight_bytes)


def test_managed_byte_conservation_under_mixed_causes(sim):
    # overflow, a cut, CoDel drops and CE marks together must still
    # close the byte ledger
    link = Link(sim, rate_bps=8000.0, delay_s=0.0, queue_packets=3,
                name="mixed")
    link.set_aqm(CoDelDiscipline(target_s=0.005, interval_s=0.1, ecn=True))
    got = []
    link.connect(got.append)
    for i in range(30):
        sim.schedule(i * 0.1, link.send,
                     _packet(400, ecn=ECN_ECT if i % 3 else ECN_NOT_ECT))
    sim.schedule(1.05, link.set_up, False)
    sim.schedule(1.55, link.set_up, True)
    sim.run(until=60.0)
    assert link.offered == 30
    assert link.offered_bytes == 30 * 400
    assert link.offered == link.delivered + link.dropped + link.in_flight
    assert link.offered_bytes == (link.delivered_bytes + link.dropped_bytes
                                  + link.in_flight_bytes)
    assert min(link.dropped_overflow, link.dropped_down, link.dropped_aqm,
               link.marked_ecn) > 0


def test_invariant_checker_audits_managed_links(sim):
    link = Link(sim, rate_bps=8000.0, delay_s=0.0, queue_packets=50,
                name="audited")
    link.set_aqm(CoDelDiscipline(target_s=0.005, interval_s=0.05, ecn=True))
    checker = InvariantChecker(sim)
    checker.watch_link(link)
    link.connect(lambda p: None)
    for i in range(20):
        sim.schedule(i * 0.05, link.send, _packet(ecn=ECN_ECT))
    sim.run(until=30.0)
    assert checker.check_now() == []
    # the byte law is actually armed: a fabricated leak must trip it
    link.delivered_bytes += 1
    violations = checker.check_now()
    assert any("byte leak" in v.detail for v in violations)


def test_packet_popped_and_never_counted_is_a_leak(sim):
    # in_flight is read off the queue and the flight, not bumped in
    # lock-step with the counters, so losing a packet behind their back
    # breaks the law in packets and in bytes
    link = Link(sim, rate_bps=8000.0, delay_s=1.0, name="popped")
    checker = InvariantChecker(sim)
    checker.watch_link(link)
    link.connect(lambda p: None)
    for _ in range(3):
        link.send(_packet())
    sim.run(until=0.6)                  # one in propagation, one in service
    assert (link.in_flight, link.in_flight_bytes) == (3, 1500)
    assert checker.check_now() == []
    link._flight.popleft()
    details = [v.detail for v in checker.check_now()]
    assert any("packet leak" in d for d in details)
    assert any("byte leak" in d for d in details)


def test_queue_depth_gauge_is_exact_with_and_without_aqm(sim):
    # a CoDel whose target no 0.5 s sojourn reaches: it culls nothing
    for k, aqm in enumerate((None, CoDelDiscipline(target_s=10.0))):
        link = Link(sim, rate_bps=8000.0, delay_s=0.0, queue_packets=50,
                    name=f"gauge-{k}")
        link.set_aqm(aqm)
        link.connect(lambda p: None)
        for _ in range(5):
            link.send(_packet())
        # one packet in service, four queued
        assert link.queue_depth == 4
        assert sim.metrics.value("net.link.queue_depth", link=link.name) == 4
        sim.run(until=sim.now + 1.01)   # two more serialized out
        assert sim.metrics.value("net.link.queue_depth",
                                 link=link.name) == link.queue_depth == 2


def test_peak_queue_telemetry_tracks_high_water(sim):
    link = Link(sim, rate_bps=8000.0, delay_s=0.0, queue_packets=50,
                name="peak")
    link.connect(lambda p: None)
    for _ in range(7):
        link.send(_packet())
    sim.run(until=60.0)
    assert sim.link_peak_queue == 6     # 7 sends, one straight to service


def test_plain_link_closes_the_byte_ledger(sim):
    # no AQM: plain drop-tail, on the same ledger
    link = Link(sim, rate_bps=8000.0, delay_s=0.0, queue_packets=2,
                name="plain")
    got, sent = _congest(sim, link, n=5)
    assert sent == [True, True, True, False, False]
    assert len(got) == 3 == link.delivered
    assert link.dropped_overflow == 2 == link.dropped
    assert link.dropped_aqm == 0
    assert (link.offered_bytes, link.delivered_bytes, link.dropped_bytes,
            link.in_flight_bytes) == (2500, 1500, 1000, 0)


def test_aqm_installed_mid_traffic(sim):
    # a discipline may arrive on a link with a standing queue: packets
    # queued before the install carry their own enqueue stamps
    seen = []

    class Recording(CoDelDiscipline):
        def on_dequeue(self, sojourn_s, now):
            seen.append((sojourn_s, now))
            return super().on_dequeue(sojourn_s, now)

    link = Link(sim, rate_bps=8000.0, delay_s=0.0, queue_packets=50,
                name="late-codel")
    got = []
    link.connect(got.append)
    for _ in range(6):
        link.send(_packet())            # one in service, five queued at t=0
    sim.run(until=0.2)
    link.set_aqm(Recording(target_s=0.005, interval_s=0.1))
    sim.run(until=60.0)
    # first promotion is at t=0.5 (500 B at 1000 B/s) of a packet queued
    # at t=0 — not 0.3 s, which is what a stamp taken at install would say
    assert seen[0] == (0.5, 0.5)
    assert link.dropped_aqm > 0
    assert len(got) == 6 - link.dropped_aqm
    assert link.in_flight == 0
    assert link.offered_bytes == 3000 == (link.delivered_bytes
                                          + link.dropped_bytes)


def test_set_aqm_none_is_a_no_op(sim):
    link = Link(sim, rate_bps=8000.0, delay_s=0.0, queue_packets=2,
                name="still-plain")
    link.set_aqm(None)
    got, sent = _congest(sim, link, n=5)
    assert sent == [True, True, True, False, False]
    assert link.dropped_overflow == 2 and link.dropped_aqm == 0
    # no discipline was ever installed: the export has no aqm / ecn rows
    names = {i.full_name for i in sim.metrics
             if i.name.startswith("net.link.")}
    assert "net.link.dropped{cause=overflow,link=still-plain}" in names
    assert "net.link.dropped{cause=aqm,link=still-plain}" not in names
    assert "net.link.ecn_marked{link=still-plain}" not in names
