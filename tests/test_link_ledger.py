"""Property test: the one ``Link`` ledger under interleaved operations.

Every link keeps ``offered == delivered + dropped + in_flight`` in
packets and in bytes, whatever is done to it and in whatever order:
direct sends, deferred offers, cuts and restores, loss, offers recalled
by their owner, AQM disciplines installed and removed mid-traffic, and
time passing in arbitrary steps. After every step the invariant
checker's ``watch_link`` audit must find nothing; once the link has run
dry, everything handed to it was delivered or dropped, to the byte.

The last test proves the property has teeth: it must fail on a mutant
that drops a packet cut mid-flight without counting its bytes.
"""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.invariants.checks import InvariantChecker
from repro.net.aqm import make_aqm
from repro.net.links import Link
from repro.net.packet import ECN_ECT, ECN_NOT_ECT, Packet
from repro.simcore.simulator import Simulator

_sizes = st.sampled_from([60, 400, 1200, 1500])
_ecn = st.sampled_from([ECN_NOT_ECT, ECN_ECT])
#: sub-serialization, around one packet time (1500 B = 0.15 s), long idle
_gaps = st.sampled_from([0.0, 0.001, 0.03, 0.2, 1.0])

#: tight enough to act on an 8-packet queue
_AQM_KWARGS = {"codel": {"target_s": 0.005, "interval_s": 0.05},
               "red": {"min_th": 1.0, "max_th": 4.0, "weight": 0.5},
               "drop-tail": {}}

_steps = st.lists(st.one_of(
    # 1 packet, or a back-to-back burst that builds the queue the byte
    # cap, RED (at enqueue) and CoDel (at dequeue) act on
    st.tuples(st.just("send"), st.sampled_from([1, 1, 5, 12]), _sizes, _ecn),
    st.tuples(st.just("send_at"), _gaps, _sizes, _ecn),
    st.tuples(st.just("set_up"), st.booleans()),
    st.tuples(st.just("set_loss_rate"), st.sampled_from([0.0, 0.3, 1.0])),
    st.tuples(st.just("recall_offers")),
    st.tuples(st.just("set_aqm"), st.sampled_from(sorted(_AQM_KWARGS)),
              st.booleans()),
    st.tuples(st.just("run"), _gaps),
), min_size=8, max_size=40)    # long enough for a discipline to meet a queue


def _drive(link_cls, steps):
    sim = Simulator(seed=0)
    link = link_cls(sim, rate_bps=80_000.0, delay_s=0.02, queue_packets=8,
                    queue_bytes=4000, name="ledger")
    got = []
    link.connect(got.append)
    checker = InvariantChecker(sim)
    checker.watch_link(link)
    handed = handed_bytes = 0
    last_at = 0.0
    for step in steps:
        op, args = step[0], step[1:]
        if op == "send":
            count, size, ecn = args
            for _ in range(count):
                link.send(Packet(src=None, dst=None, size_bytes=size,
                                 ecn=ecn))
            handed, handed_bytes = handed + count, handed_bytes + count * size
        elif op == "send_at":
            gap, size, ecn = args
            last_at = max(last_at, sim.now + gap)   # offers are monotone
            link.send_at(last_at, Packet(src=None, dst=None,
                                         size_bytes=size, ecn=ecn))
            handed, handed_bytes = handed + 1, handed_bytes + size
        elif op == "recall_offers":
            for _at, packet in link.recall_offers(sim.now):
                handed, handed_bytes = (handed - 1,
                                        handed_bytes - packet.size_bytes)
        elif op == "set_aqm":
            kind, ecn = args
            link.set_aqm(make_aqm(kind, ecn=ecn, **_AQM_KWARGS[kind]))
        elif op == "run":
            sim.run(until=sim.now + args[0])
        else:
            getattr(link, op)(*args)
        assert [v.detail for v in checker.check_now()] == []
    sim.run()   # quiescence: every offer admitted, every flight landed
    assert [v.detail for v in checker.check_now()] == []
    assert link.in_flight == 0 and link.in_flight_bytes == 0
    assert link.offered == handed == link.delivered + link.dropped
    assert (link.offered_bytes == handed_bytes
            == link.delivered_bytes + link.dropped_bytes)
    assert len(got) == link.delivered
    assert sum(packet.size_bytes for packet in got) == link.delivered_bytes


def _ledger_property(link_cls, **overrides):
    @given(_steps)
    @settings(max_examples=200, deadline=None, derandomize=True,
              report_multiple_bugs=False, **overrides)
    def holds(steps):
        _drive(link_cls, steps)
    return holds


test_ledger_closes_under_interleaved_operations = _ledger_property(Link)


class _ForgetfulLink(Link):
    """Mutant: a packet cut mid-flight is dropped without its bytes."""

    _cutting = False

    def _drain(self):
        self._admit_due(self.sim.now)   # so only the flight drops below
        self._cutting = True
        try:
            super()._drain()
        finally:
            self._cutting = False

    def _drop(self, cause, at, size):
        if self._cutting and cause == "down":
            size = 0
        return super()._drop(cause, at, size)


def test_property_fails_on_a_forgotten_byte_drop():
    with pytest.raises(AssertionError, match="byte leak"):
        # generate only: nobody reads the shrunk example
        _ledger_property(_ForgetfulLink, phases=[Phase.generate])()
