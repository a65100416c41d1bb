"""Tests for the runtime invariant layer (repro.invariants).

The checker must (a) catch deliberately broken conservation laws — the
negative tests seed a bug and demand a violation — and (b) be perfectly
passive when armed on a healthy run: same tables, no violations.
"""

import dataclasses
from collections import Counter

import pytest

from repro.core.network import (
    CentralizedLTENetwork,
    DLTENetwork,
    WiFiNetwork,
)
from repro.epc.ue import UeState
from repro.invariants import (
    InvariantChecker,
    InvariantError,
    armed,
    watch_federation,
)
from repro.net.links import Link
from repro.net.packet import Packet
from repro.simcore import Simulator
from repro.workloads import RuralTown

TOWN = RuralTown(radius_m=1500, n_ues=6, n_aps=2, seed=3)


def _pkt(size=100):
    return Packet(src=None, dst=None, size_bytes=size)


def _loaded_link(seed=0):
    sim = Simulator(seed)
    link = Link(sim, rate_bps=8000.0, delay_s=1e-3, queue_packets=4,
                name="audited")
    link.connect(lambda p: None)
    return sim, link


# -- link conservation --------------------------------------------------------------


def test_healthy_link_has_no_violations():
    sim, link = _loaded_link()
    checker = InvariantChecker(sim)
    checker.watch_link(link)
    for _ in range(10):
        link.send(_pkt())
    sim.run()
    assert checker.check_now() == []
    checker.verify()  # must not raise
    assert checker.checks_run >= 2


def test_seeded_packet_leak_is_caught():
    # deliberately break conservation: a packet "delivered" that was
    # never offered — the negative test the acceptance demands
    sim, link = _loaded_link()
    checker = InvariantChecker(sim)
    checker.watch_link(link)
    for _ in range(5):
        link.send(_pkt())
    sim.run()
    link.delivered += 1  # the seeded bug
    violations = checker.check_now()
    assert len(violations) == 1
    assert violations[0].check == "link-conservation"
    assert "packet leak" in violations[0].detail
    with pytest.raises(InvariantError, match="packet leak"):
        checker.verify()
    # the violation also lands in the sim's metrics
    assert sim.metrics.counter("invariants.violations").value >= 1


def test_unattributed_drop_is_caught():
    sim, link = _loaded_link()
    checker = InvariantChecker(sim)
    checker.watch_link(link)
    link.send(_pkt())
    sim.run()
    link.dropped += 1  # a drop with no cause counter: must be flagged
    link.delivered -= 1  # keep the totals law intact; isolate attribution
    details = [v.detail for v in checker.check_now()]
    assert any("unattributed drops" in d for d in details)


def test_armed_sweep_records_mid_run_violation():
    sim, link = _loaded_link()
    checker = InvariantChecker(sim)
    checker.watch_link(link)
    checker.arm(period_s=0.5)
    sim.at(1.0, lambda: setattr(link, "delivered", link.delivered + 7))
    sim.run(until=3.0)
    assert checker.violations
    # caught by the first sweep at or after the tampering, not only at
    # the end-of-run verify
    assert 1.0 <= checker.violations[0].time_s <= 1.5


# -- clock monotonicity -------------------------------------------------------------


def test_clock_check_passes_on_healthy_sim():
    sim = Simulator(0)
    checker = InvariantChecker(sim)
    checker.watch_clock()
    sim.at(1.0, lambda: None)
    sim.run()
    assert checker.check_now() == []


# -- NAS legality -------------------------------------------------------------------


def test_illegal_attach_transition_is_caught():
    sim = Simulator(0)
    checker = InvariantChecker(sim)

    class FakeUe:
        name = "ue-fake"
        _state_observer = None

    ue = FakeUe()
    checker.watch_ue(ue)
    # IDLE -> ATTACHED without ATTACHING: illegal, checked per-transition
    ue._state_observer(ue, UeState.IDLE, UeState.ATTACHED)
    assert len(checker.violations) == 1
    assert checker.violations[0].check == "nas-legality"
    # the legal path records nothing
    ue._state_observer(ue, UeState.ATTACHING, UeState.ATTACHED)
    assert len(checker.violations) == 1


# -- whole-network wiring -----------------------------------------------------------


def _report_fingerprint(report):
    return dataclasses.asdict(report)


#: E16's town: what the PR-23 topology walker found on it, law by law.
#: Registration at construction must find the same subjects — plus the
#: three X2 endpoints the walker never reached.
E16_TOWN = RuralTown(radius_m=2500.0, n_ues=12, n_aps=3, seed=11)
WALKER_FOUND = {
    DLTENetwork: {"clock-monotonicity": 1, "link-conservation": 34,
                  "router-offers": 5, "agent-conservation": 18,
                  "spectrum-registry": 1, "spectrum-non-overlap": 1},
    CentralizedLTENetwork: {"clock-monotonicity": 1, "link-conservation": 44,
                            "router-offers": 6, "agent-conservation": 19,
                            "gtp-conservation": 1},
    WiFiNetwork: {"clock-monotonicity": 1, "link-conservation": 34,
                  "router-offers": 5},
}


@pytest.mark.parametrize("build", list(WALKER_FOUND),
                         ids=lambda build: build.__name__)
def test_armed_build_registers_what_the_walker_found(build):
    with armed():
        net = build.build(E16_TOWN, seed=11)
    pairs = [(law, subject) for law, subject, _fn in net.sim.checker._checks]
    assert len(set(pairs)) == len(pairs)        # nothing registered twice
    found = Counter(law for law, _subject in pairs)
    expected = dict(WALKER_FOUND[build])
    x2 = {f"x2:{ap_id}" for ap_id in getattr(net, "aps", ())}
    expected["agent-conservation"] = (
        expected.get("agent-conservation", 0) + len(x2))
    assert dict(found) == {law: n for law, n in expected.items() if n}
    subjects = {subject for law, subject in pairs
                if law == "agent-conservation"}
    assert x2 <= subjects                       # the hole the walker had
    if build is CentralizedLTENetwork:          # one S1-U end per site + EPC
        assert len(net.sim.checker._tunnel_endpoints) == 1 + len(net.enb_data)


def test_armed_dlte_runs_clean():
    with armed():
        net = DLTENetwork.build(TOWN, seed=3)
        net.run(duration_s=5.0)
    checker = net.sim.checker
    assert checker.checks_run > len(checker._checks)    # swept mid-run
    assert checker.violations == []


def test_armed_centralized_runs_clean():
    with armed():
        CentralizedLTENetwork.build(TOWN, seed=3).run(duration_s=5.0)


def test_armed_checker_changes_no_tables():
    # passivity: an armed checker must not perturb the simulation —
    # the instrumented run's report is identical field-for-field
    plain = DLTENetwork.build(TOWN, seed=3).run(duration_s=5.0)
    with armed():
        watched = DLTENetwork.build(TOWN, seed=3).run(duration_s=5.0)
    assert _report_fingerprint(watched) == _report_fingerprint(plain)


def test_federation_flags_overlapping_slices():
    net = DLTENetwork.build(TOWN, seed=3)
    net.run(duration_s=3.0)
    sim = net.sim
    checker = InvariantChecker(sim)
    watch_federation(checker, net.aps, registry=net.spectrum_registry)
    assert checker.check_now() == []  # converged slices are disjoint
    # seed a split-brain: both APs claim the full grid simultaneously
    for ap in net.aps.values():
        ap.cell.allowed_prbs = frozenset(range(3))
    details = [v.check for v in checker.check_now()]
    assert "spectrum-non-overlap" in details
