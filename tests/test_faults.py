"""Unit tests for the fault-injection subsystem and control-plane hardening.

Covers the E16 substrate: link up/down with per-cause drop
accounting, the :class:`FaultInjector` schedule, control-channel cuts,
stub crash/restart, supervised NAS attach retries, spectrum-lease
renewal and lapse, and SAS lease expiry authority.
"""

import pytest

from repro.core.access_point import DLTEAccessPoint
from repro.epc.agents import ControlAgent, ControlChannel
from repro.epc.keys import PublishedKeyRegistry
from repro.epc.stub import LocalCoreStub
from repro.epc.subscriber import make_profile
from repro.epc.ue import UeState, UserEquipment
from repro.enodeb.relay import EnbControlRelay
from repro.faults import FaultInjector, FaultRecord
from repro.geo.points import Point
from repro.net.addressing import AddressPool
from repro.net.internet import InternetCore
from repro.net.links import Link
from repro.net.packet import Packet
from repro.phy.bands import get_band
from repro.simcore import Simulator
from repro.spectrum.grants import ApRecord
from repro.spectrum.sas import SasRegistry


def _pkt(size=100):
    return Packet(src=None, dst=None, size_bytes=size)


# -- link fault state --------------------------------------------------------------


def test_link_down_drops_and_clears_queue():
    sim = Simulator(0)
    link = Link(sim, rate_bps=8.0, delay_s=0, queue_packets=5, name="l")
    link.connect(lambda p: None)
    for _ in range(3):  # one serializing + two queued
        assert link.send(_pkt())
    link.set_up(False)
    assert link.dropped_down == 2  # the queued packets are lost
    assert link.send(_pkt()) is False
    assert link.dropped_down == 3
    link.set_up(True)
    assert link.send(_pkt()) is True


def test_link_cut_loses_in_flight_packet():
    sim = Simulator(0)
    got = []
    link = Link(sim, rate_bps=8000.0, delay_s=0.5, name="l")
    link.connect(got.append)
    link.send(_pkt(100))
    sim.at(0.2, link.set_up, False)  # cut during propagation
    sim.run()
    assert got == []
    assert link.dropped_down == 1


def test_overflow_counted_separately_from_faults():
    sim = Simulator(0)
    link = Link(sim, rate_bps=8.0, delay_s=0, queue_packets=1)
    link.connect(lambda p: None)
    results = [link.send(_pkt()) for _ in range(3)]
    assert results == [True, True, False]
    assert link.dropped_overflow == 1
    assert link.dropped_down == 0 and link.dropped_aqm == 0
    assert link.dropped == 1  # running total across causes


# -- fault injector -----------------------------------------------------------------


def test_injector_link_down_and_heal():
    sim = Simulator(0)
    link = Link(sim, rate_bps=1e6, delay_s=0, name="uplink")
    link.connect(lambda p: None)
    injector = FaultInjector(sim)
    fault = injector.link_flap(link, at_s=1.0, down_s=2.0, up_s=1.0,
                               cycles=1)
    assert fault == "link-flap:uplink"
    sim.run(until=0.5)
    assert link.up
    sim.run(until=1.5)
    assert not link.up
    sim.run(until=3.5)
    assert link.up
    assert [r.action for r in injector.log] == ["down", "up"]
    assert injector.faults_injected == 2
    assert all(isinstance(r, FaultRecord) for r in injector.log)
    assert "link-flap:uplink" in injector.dump()


def test_injector_flap_cycles():
    sim = Simulator(0)
    link = Link(sim, rate_bps=1e6, delay_s=0, name="flappy")
    link.connect(lambda p: None)
    injector = FaultInjector(sim)
    injector.link_flap(link, at_s=1.0, down_s=0.5, up_s=0.5, cycles=3)
    sim.run(until=1.25)
    assert not link.up
    sim.run(until=1.75)
    assert link.up
    sim.run(until=10.0)
    assert link.up  # flapping over, link healthy — no stuck state
    assert len(injector.log) == 6
    assert injector.log[-1].action == "up"


def test_injector_names_are_unique():
    sim = Simulator(0)
    link = Link(sim, rate_bps=1e6, delay_s=0, name="x")
    link.connect(lambda p: None)
    injector = FaultInjector(sim)
    first = injector.link_flap(link, at_s=1.0, down_s=1, up_s=1, cycles=1)
    second = injector.link_flap(link, at_s=2.0, down_s=1, up_s=1, cycles=1)
    assert first != second and second.endswith("#2")


def test_injector_validates():
    sim = Simulator(0)
    link = Link(sim, rate_bps=1e6, delay_s=0)
    link.connect(lambda p: None)
    injector = FaultInjector(sim)
    with pytest.raises(ValueError):
        injector.link_flap(link, at_s=1.0, down_s=0, up_s=1, cycles=1)
    with pytest.raises(ValueError):
        injector.link_flap(link, at_s=1.0, down_s=1, up_s=1, cycles=0)
    with pytest.raises(ValueError):
        injector.outage(lambda: None, lambda: None, at_s=1.0, duration_s=-1)


def test_a_rejected_call_schedules_nothing():
    # a call that raises must leave no fault behind: nothing fires and
    # the default name is still free
    sim = Simulator(0)
    stub, _ = _stub(sim)
    link = Link(sim, rate_bps=1e6, delay_s=0, name="flaky")
    link.connect(lambda p: None)
    injector = FaultInjector(sim)
    with pytest.raises(ValueError):
        injector.outage(stub.crash, stub.restart, at_s=1.0, duration_s=0.0)
    with pytest.raises(ValueError):
        injector.link_flap(link, at_s=1.0, down_s=-1.0, up_s=1.0, cycles=1)
    sim.run(until=5.0)
    assert stub.crashes == 0 and stub.alive
    assert link.up
    assert injector.faults_injected == 0 and injector.log == []
    assert injector.outage(stub.crash, stub.restart, at_s=6.0,
                           duration_s=1.0) == "outage"
    assert injector.link_flap(link, at_s=6.0, down_s=1.0, up_s=1.0,
                              cycles=1) == "link-flap:flaky"


def test_injector_registry_outage():
    sim = Simulator(0)
    sas = SasRegistry(sim)
    injector = FaultInjector(sim)
    injector.registry_outage(sas, at_s=1.0, duration_s=2.0)
    sim.run(until=1.5)
    assert not sas.is_available()
    sim.run(until=4.0)
    assert sas.is_available()


# -- control channel faults ---------------------------------------------------------


class _Recorder(ControlAgent):
    def __init__(self, sim, name):
        super().__init__(sim, name, service_time_s=1e-4)
        self.got = []

    def handle(self, message):
        self.got.append(message.payload)


def test_control_channel_down_drops_messages():
    sim = Simulator(0)
    a, b = _Recorder(sim, "a"), _Recorder(sim, "b")
    channel = ControlChannel(sim, a, b, 1e-3, name="s1-test")
    channel.send(a, "hello")
    channel.set_up(False)
    channel.send(a, "lost")
    sim.run(until=1.0)
    assert b.got == ["hello"]
    assert channel.dropped == 1
    channel.set_up(True)
    channel.send(a, "back")
    sim.run(until=2.0)
    assert b.got == ["hello", "back"]


# -- stub crash/restart -------------------------------------------------------------


def _stub(sim, registry=None):
    stub = LocalCoreStub(sim, "stub", AddressPool("100.64.0.0/24"),
                         registry=registry)
    enb = EnbControlRelay(sim, "enb0")
    s1 = ControlChannel(sim, enb, stub, 0.1e-3, "s1-local")
    enb.connect_core(s1)
    stub.connect_enb(s1)
    return stub, enb


def _published_ue(sim, imsi):
    registry = PublishedKeyRegistry(sim, lookup_rtt_s=0.01)
    profile = make_profile(imsi, published=True)
    registry.publish(profile)
    return registry, UserEquipment(sim, profile)


def _wire_air(sim, ue, enb):
    air = ControlChannel(sim, ue, enb, 0.005, f"air:{ue.name}")
    ue.connect_air(air)
    enb.attach_ue(ue.ue_id, air)


def test_stub_crash_releases_sessions_then_restarts_empty():
    sim = Simulator(1)
    registry, ue = _published_ue(sim, "999010000000001")
    stub, enb = _stub(sim, registry)
    _wire_air(sim, ue, enb)
    ue.start_attach()
    sim.run(until=2.0)
    assert ue.state is UeState.ATTACHED
    assert stub.pool.in_use == 1 and stub._key_cache

    stub.crash()
    assert stub.crashes == 1
    assert stub.sessions == {} and stub.pool.in_use == 0

    # messages offered while down are dropped, not queued
    ue2 = UserEquipment(sim, make_profile("999010000000009"))
    _wire_air(sim, ue2, enb)
    ue2.start_attach()
    sim.run(until=4.0)
    assert ue2.state is not UeState.ATTACHED
    assert stub.dropped_while_down >= 1

    stub.restart()
    assert stub.alive
    # RAM state did not survive the power cycle
    assert stub._key_cache == {} and stub._sqn == {}


# -- supervised attach (NAS retry with backoff) -------------------------------------


def test_attach_retry_survives_stub_outage():
    sim = Simulator(2)
    registry, ue = _published_ue(sim, "999010000000002")
    stub, enb = _stub(sim, registry)
    _wire_air(sim, ue, enb)
    stub.crash()
    ue.start_attach_with_retry(timeout_s=0.5, base_backoff_s=0.25)
    sim.run(until=2.0)
    assert ue.state is not UeState.ATTACHED
    assert ue.attach_attempts >= 2  # kept trying into the outage
    stub.restart()
    sim.run(until=15.0)
    assert ue.state is UeState.ATTACHED
    assert ue.ue_address is not None
    assert ue.attach_retries_exhausted == 0


def test_attach_retry_exhaustion_counted():
    sim = Simulator(3)
    registry, ue = _published_ue(sim, "999010000000003")
    stub, enb = _stub(sim, registry)
    _wire_air(sim, ue, enb)
    stub.crash()  # never restarted
    ue.start_attach_with_retry(max_attempts=3, timeout_s=0.2,
                               base_backoff_s=0.1)
    sim.run(until=10.0)
    assert ue.attach_attempts == 3
    assert ue.attach_retries_exhausted == 1
    assert ue.state is not UeState.ATTACHED


def test_attach_retry_waits_for_coverage():
    sim = Simulator(4)
    registry, ue = _published_ue(sim, "999010000000004")
    stub, enb = _stub(sim, registry)
    # no air channel yet: the supervisor idles through backoffs
    ue.start_attach_with_retry(timeout_s=0.5, base_backoff_s=0.25)
    sim.run(until=1.0)
    assert ue.attach_attempts == 0
    _wire_air(sim, ue, enb)  # coverage returns
    sim.run(until=20.0)
    assert ue.state is UeState.ATTACHED
    assert ue.attach_attempts == 1


def test_a_settled_attach_stops_its_t3410_timer():
    sim = Simulator(7)
    registry, ue = _published_ue(sim, "999010000000007")
    stub, enb = _stub(sim, registry)
    _wire_air(sim, ue, enb)
    ue.start_attach_with_retry(timeout_s=2.0)
    sim.run(until=1.0)
    assert ue.state is UeState.ATTACHED
    assert ue.attach_attempts == 1
    # the guard timer left the queue when the attach settled, instead
    # of waking at t=2 s for nobody
    assert sim.live_queue_length == 0


def test_radio_lost_collapses_nas_state():
    sim = Simulator(5)
    registry, ue = _published_ue(sim, "999010000000005")
    stub, enb = _stub(sim, registry)
    _wire_air(sim, ue, enb)
    ue.start_attach()
    sim.run(until=2.0)
    assert ue.state is UeState.ATTACHED
    ue.radio_lost()
    assert ue.state is UeState.IDLE
    assert ue.air is None and ue.ue_address is None


# -- spectrum lease renewal and lapse -----------------------------------------------


def _standalone_ap(sim, sas):
    internet = InternetCore(sim)
    return DLTEAccessPoint(sim, "ap0", Point(0.0, 0.0), get_band("lte5"),
                           internet, sas, None, pool_prefix="10.1.0.0/16")


def test_lease_renewed_on_timer_and_lapses_during_outage():
    sim = Simulator(7)
    sas = SasRegistry(sim, lease_s=4.0)
    ap = _standalone_ap(sim, sas)
    ap.register_spectrum()
    sim.run(until=1.0)
    assert ap.grant_active

    # the renewal loop keeps the grant alive far past the initial lease
    sim.run(until=20.0)
    assert ap.grant_active
    assert ap.lease_renewals >= 3

    # a registry outage outliving the lease silences the AP (CBRS rule)
    sas.fail()
    sim.run(until=sim.now + 10.0)
    assert not ap.grant_active
    assert ap.lease_renewal_failures >= 1

    # registry back: the loop re-registers and the AP transmits again
    sas.restore()
    sim.run(until=sim.now + 10.0)
    assert ap.grant_active


def test_lease_renewal_stops_on_crash():
    sim = Simulator(8)
    sas = SasRegistry(sim, lease_s=2.0)
    ap = _standalone_ap(sim, sas)
    ap.register_spectrum()
    sim.run(until=1.0)
    ap.crash()
    renewals_at_crash = ap.lease_renewals
    sim.run(until=sim.now + 10.0)
    assert ap.lease_renewals == renewals_at_crash
    assert not ap.grant_active  # nobody heartbeats a dead AP's lease


# -- SAS lease expiry authority ------------------------------------------------------


def _record(ap_id, x=0.0):
    return ApRecord(ap_id=ap_id, position=Point(x, 0.0),
                    band=get_band("lte5"), eirp_dbm=40.0,
                    contact=f"{ap_id}-gw")


def test_sas_expiry_sweep_reclaims_lapsed_grants():
    sim = Simulator(9)
    sas = SasRegistry(sim, lease_s=2.0)
    sas.start_expiry_sweep()
    got = []
    sas.request_grant(_record("apX"), got.append)
    sim.run(until=1.0)
    assert got[0] is not None
    assert sas.active_grants == 1
    # nobody renews: active_at flips at expiry, the sweep reclaims
    sim.run(until=10.0)
    assert sas.active_grants == 0
    assert sas.grants_expired == 1
    assert "apX" not in sas._grants


def test_lapsed_grant_cannot_merely_heartbeat():
    sim = Simulator(10)
    sas = SasRegistry(sim, lease_s=1.0)
    sas.request_grant(_record("apY"), lambda g: None)
    sim.run(until=0.5)
    sim.run(until=5.0)  # lease long gone
    answers = []
    sas.heartbeat("apY", answers.append)
    sim.run(until=6.0)
    assert answers == [None]  # must re-register, not renew
    assert sas.heartbeats_served == 0


def test_expired_grants_invisible_to_discovery():
    sim = Simulator(11)
    sas = SasRegistry(sim, lease_s=3.0)
    sas.request_grant(_record("apA"), lambda g: None)
    sas.request_grant(_record("apB", x=100.0), lambda g: None)
    sim.run(until=1.0)

    # keep apA renewed; let apB lapse
    def keep_renewing():
        while True:
            sas.heartbeat("apA", lambda g: None)
            yield sim.timeout(1.0)

    sim.process(keep_renewing())
    sim.run(until=10.0)
    neighbors = []
    sas.discover_neighbors("apA", neighbors.extend)
    sim.run(until=11.0)
    assert neighbors == []  # apB's lapsed grant is not discoverable
    assert sas.active_grants == 1


# -- injector edge cases (PR 4) -----------------------------------------------------


def test_overlapping_cuts_on_same_link_heal_after_last_window():
    # two cut windows overlap on the SAME link: the inner window's heal
    # must not resurrect a link the outer window still holds down
    sim = Simulator(0)
    link = Link(sim, rate_bps=1e6, delay_s=0, name="shared")
    link.connect(lambda p: None)
    injector = FaultInjector(sim)
    injector.link_flap(link, at_s=1.0, down_s=4.0, up_s=1.0,
                       cycles=1)  # cut 1.0 .. 5.0
    injector.link_flap(link, at_s=2.0, down_s=1.0, up_s=1.0,
                       cycles=1)  # cut 2.0 .. 3.0
    sim.run(until=2.5)
    assert not link.up
    sim.run(until=3.5)
    assert not link.up  # the inner heal fired; the outer cut still holds
    sim.run(until=5.5)
    assert link.up  # only the last heal raises the link


def test_flap_overlapping_a_cut_cannot_resurrect_the_link():
    sim = Simulator(0)
    link = Link(sim, rate_bps=1e6, delay_s=0, name="contested")
    link.connect(lambda p: None)
    injector = FaultInjector(sim)
    injector.link_flap(link, at_s=0.5, down_s=6.0, up_s=1.0,
                       cycles=1)  # cut 0.5 .. 6.5
    injector.link_flap(link, at_s=1.0, down_s=0.5, up_s=0.5, cycles=2)
    # every flap "up" phase lands inside the long cut: stay down
    for probe in (1.25, 1.75, 2.25, 2.75, 4.0):
        sim.run(until=probe)
        assert not link.up
    sim.run(until=7.0)
    assert link.up


def test_restart_mid_backoff_lets_the_pending_retry_succeed():
    sim = Simulator(6)
    registry, ue = _published_ue(sim, "999010000000006")
    stub, enb = _stub(sim, registry)
    _wire_air(sim, ue, enb)
    stub.crash()
    ue.start_attach_with_retry(timeout_s=0.5, base_backoff_s=2.0)
    # attempt 1 times out at ~0.5 and the supervisor sleeps until ~2.5;
    # the restart lands in the middle of that backoff window
    sim.at(1.5, stub.restart)
    sim.run(until=10.0)
    assert ue.state is UeState.ATTACHED
    assert ue.attach_attempts == 2  # exactly the pending retry, no extras
    assert ue.attach_retries_exhausted == 0


def test_lease_lapsing_exactly_at_the_renewal_tick_is_too_late():
    sim = Simulator(12)
    sas = SasRegistry(sim, lease_s=2.0)
    got = []
    sas.request_grant(_record("apZ"), got.append)
    sim.run(until=1.0)
    grant = got[0]
    assert grant is not None and grant.expires_at is not None
    # a lease is over AT its expiry instant (strict <) ...
    assert grant.active_at(grant.expires_at - 1e-9)
    assert not grant.active_at(grant.expires_at)
    # ... so a renewal landing exactly on the tick must be refused:
    # time the heartbeat so _renew executes precisely at expiry
    answers = []
    lead = sas.rtt_s + sas.processing_s
    sim.at(grant.expires_at - lead, sas.heartbeat, "apZ", answers.append)
    sim.run(until=grant.expires_at + 1.0)
    assert answers == [None]  # lapsed: must re-register, not renew
    assert sas.heartbeats_served == 0
