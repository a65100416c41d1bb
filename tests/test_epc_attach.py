"""Integration tests: the full EPS attach against both core shapes."""

import pytest

from repro.enodeb import EnbControlRelay
from repro.epc import (
    CentralizedEpc,
    LocalCoreStub,
    PublishedKeyRegistry,
    UserEquipment,
)
from repro.epc.agents import ControlChannel, ControlMessage
from repro.epc.nas import AttachAccept, AttachReject, AuthenticationRequest
from repro.epc.subscriber import make_profile
from repro.epc.ue import UeState
from repro.invariants import armed
from repro.net import AddressPool
from repro.simcore import Simulator

AIR_DELAY = 0.005


def build_centralized(sim, backhaul_s=0.03, pool_prefix="10.0.0.0/16",
                      n_enbs=1):
    epc = CentralizedEpc(sim, AddressPool(pool_prefix))
    enbs = []
    for i in range(n_enbs):
        enb = EnbControlRelay(sim, f"enb{i}")
        channel = epc.connect_enb(enb, backhaul_delay_s=backhaul_s)
        enb.connect_core(channel)
        enbs.append(enb)
    return epc, enbs


def attach_ue(sim, enb, profile):
    ue = UserEquipment(sim, profile)
    air = ControlChannel(sim, ue, enb, AIR_DELAY, f"air:{ue.name}")
    ue.connect_air(air)
    enb.attach_ue(ue.ue_id, air)
    ue.start_attach()
    return ue


def build_stub(sim, registry=None, pool_prefix="100.64.0.0/24"):
    stub = LocalCoreStub(sim, "stub", AddressPool(pool_prefix),
                         registry=registry)
    enb = EnbControlRelay(sim, "enb0")
    s1 = ControlChannel(sim, enb, stub, 0.1e-3, "s1-local")
    enb.connect_core(s1)
    stub.connect_enb(s1)
    return stub, enb


# -- centralized attach ------------------------------------------------------------

def test_centralized_attach_succeeds():
    sim = Simulator(1)
    epc, (enb,) = build_centralized(sim)
    prof = make_profile("001010000000001")
    epc.provision(prof)
    ue = attach_ue(sim, enb, prof)
    sim.run(until=5)
    assert ue.state is UeState.ATTACHED
    assert ue.ue_address is not None
    assert epc.pgw.pool.contains(ue.ue_address)
    assert epc.mme.attaches_completed == 1
    assert epc.attached_ues == 1


def test_centralized_attach_latency_scales_with_backhaul():
    """Every NAS round trip crosses the backhaul: latency ~ k x delay."""
    latencies = {}
    for backhaul in (0.01, 0.05):
        sim = Simulator(1)
        epc, (enb,) = build_centralized(sim, backhaul_s=backhaul)
        prof = make_profile("001010000000001")
        epc.provision(prof)
        ue = attach_ue(sim, enb, prof)
        sim.run(until=10)
        latencies[backhaul] = ue.attach_latency_s
    # 6 one-way backhaul crossings before AttachAccept reaches the UE
    slope = (latencies[0.05] - latencies[0.01]) / 0.04
    assert slope == pytest.approx(6.0, abs=0.5)


def test_unknown_imsi_rejected():
    sim = Simulator(1)
    epc, (enb,) = build_centralized(sim)
    stranger = make_profile("001019999999999")  # never provisioned
    ue = attach_ue(sim, enb, stranger)
    sim.run(until=5)
    assert ue.state is UeState.REJECTED
    assert epc.mme.attaches_rejected == 1
    assert epc.hss.unknown_imsis == 1


def test_wrong_key_rejected():
    """A provisioned IMSI with a different K fails AKA both ways."""
    sim = Simulator(1)
    epc, (enb,) = build_centralized(sim)
    real = make_profile("001010000000001")
    epc.provision(real)
    imposter_profile = make_profile("001010000000002")
    # clone the IMSI but with the wrong key
    from repro.epc.subscriber import SubscriberProfile
    imposter = SubscriberProfile(imsi=real.imsi, key=imposter_profile.key)
    ue = attach_ue(sim, enb, imposter)
    sim.run(until=5)
    # the UE itself refuses first: the network's AUTN fails against its K
    assert ue.state is UeState.REJECTED
    assert ue.network_auth_failures == 1


def test_pool_exhaustion_rejects_attach():
    sim = Simulator(1)
    epc, (enb,) = build_centralized(sim, pool_prefix="10.0.0.0/30")  # 2 hosts
    ues = []
    for i in range(3):
        prof = make_profile(f"00101000000000{i+1}")
        epc.provision(prof)
        ues.append(attach_ue(sim, enb, prof))
    sim.run(until=5)
    states = sorted(u.state.value for u in ues)
    assert states.count("attached") == 2
    assert states.count("rejected") == 1
    assert epc.pgw.rejected == 1


def test_many_ues_attach_through_one_core():
    sim = Simulator(2)
    epc, enbs = build_centralized(sim, n_enbs=4)
    ues = []
    for i in range(40):
        prof = make_profile(f"0010100000{i:05d}")
        epc.provision(prof)
        ues.append(attach_ue(sim, enbs[i % 4], prof))
    sim.run(until=30)
    assert all(u.state is UeState.ATTACHED for u in ues)
    assert len({u.ue_address for u in ues}) == 40  # unique addresses
    assert epc.mme.peak_queue_depth > 1            # the shared core queued


# -- dLTE stub attach ------------------------------------------------------------------

def test_stub_attach_via_published_key():
    sim = Simulator(1)
    registry = PublishedKeyRegistry(sim, lookup_rtt_s=0.05)
    prof = make_profile("001010000000042", published=True)
    registry.publish(prof)
    stub, enb = build_stub(sim, registry)
    ue = attach_ue(sim, enb, prof)
    sim.run(until=5)
    assert ue.state is UeState.ATTACHED
    assert stub.pool.contains(ue.ue_address)
    assert stub.registry_fetches == 1
    assert stub.attaches_completed == 1


def test_stub_caches_published_keys():
    """Second attach of the same IMSI skips the registry RTT."""
    sim = Simulator(1)
    registry = PublishedKeyRegistry(sim, lookup_rtt_s=0.05)
    prof = make_profile("001010000000042", published=True)
    registry.publish(prof)
    stub, enb = build_stub(sim, registry)
    ue = attach_ue(sim, enb, prof)
    sim.run(until=5)
    first_latency = ue.attach_latency_s
    ue.start_attach()
    sim.run(until=12)
    assert ue.state is UeState.ATTACHED
    assert stub.registry_fetches == 1  # no second fetch
    assert stub.cache_hits == 1
    assert ue.attach_latency_s < first_latency


def test_stub_rejects_unpublished_users():
    sim = Simulator(1)
    registry = PublishedKeyRegistry(sim, lookup_rtt_s=0.02)
    stub, enb = build_stub(sim, registry)
    private = make_profile("001010000000050", published=False)
    ue = attach_ue(sim, enb, private)
    sim.run(until=5)
    assert ue.state is UeState.REJECTED
    assert stub.attaches_rejected == 1


def test_stub_without_registry_uses_preloaded_keys():
    sim = Simulator(1)
    stub, enb = build_stub(sim, registry=None)
    prof = make_profile("001010000000060")
    stub.preload_key(prof.imsi, prof.key)
    ue = attach_ue(sim, enb, prof)
    sim.run(until=5)
    assert ue.state is UeState.ATTACHED
    assert stub.cache_hits == 1


def test_stub_attach_much_faster_than_centralized():
    """§4.1: collapsing the core removes the backhaul round trips."""
    sim_c = Simulator(1)
    epc, (enb_c,) = build_centralized(sim_c, backhaul_s=0.03)
    prof = make_profile("001010000000001")
    epc.provision(prof)
    ue_c = attach_ue(sim_c, enb_c, prof)
    sim_c.run(until=5)

    sim_s = Simulator(1)
    stub, enb_s = build_stub(sim_s)
    prof_s = make_profile("001010000000002", published=True)
    stub.preload_key(prof_s.imsi, prof_s.key)
    ue_s = attach_ue(sim_s, enb_s, prof_s)
    sim_s.run(until=5)

    assert ue_s.attach_latency_s < ue_c.attach_latency_s / 3


def test_stub_crash_releases_local_address():
    sim = Simulator(1)
    stub, enb = build_stub(sim)
    prof = make_profile("001010000000070")
    stub.preload_key(prof.imsi, prof.key)
    ue = attach_ue(sim, enb, prof)
    sim.run(until=5)
    assert stub.pool.in_use == 1
    stub.crash()
    assert stub.pool.in_use == 0
    assert ue.ue_id not in stub.sessions


def test_stub_session_callbacks_fire():
    sim = Simulator(1)
    stub, enb = build_stub(sim)
    prof = make_profile("001010000000080")
    stub.preload_key(prof.imsi, prof.key)
    created = []
    stub.on_session_created = lambda ue_id, addr: created.append((ue_id, addr))
    ue = attach_ue(sim, enb, prof)
    sim.run(until=5)
    assert created and created[0][0] == ue.ue_id


# -- replies that outlive the attempt they answer ----------------------------------


def _run_until_in_flight(sim, ue, payload_type):
    """Step the run until a ``payload_type`` message is on the air to ``ue``."""
    while not any(entry[3] == ue.enqueue
                  and isinstance(entry[4][0].payload, payload_type)
                  for entry in sim._heap):
        assert sim.queue_length, f"no {payload_type.__name__} was sent"
        sim.run(max_events=1)


def _dropped(sim, cause):
    return sim.metrics.counter("nas.dropped", cause=cause).value


@pytest.mark.parametrize("payload_type", [AttachAccept, AuthenticationRequest])
def test_radio_lost_with_a_reply_in_flight(payload_type):
    # the cell vanishes while the core's reply is on the air: the UE
    # drops it, answers nothing and does not attach without a radio
    with armed():
        sim = Simulator(1)
        stub, enb = build_stub(sim)
        prof = make_profile("001010000000090")
        stub.preload_key(prof.imsi, prof.key)
        ue = attach_ue(sim, enb, prof)
        _run_until_in_flight(sim, ue, payload_type)
        ue.radio_lost()
        sim.run(until=5)
    assert ue.state is UeState.IDLE and ue.ue_address is None
    assert _dropped(sim, "radio-lost") == 1
    assert ue.processed == ue.enqueued  # the agent law holds the drop


def test_a_refused_ue_drops_the_rest_of_its_attempt():
    # two attempts race (a retry overtakes a slow one) and the UE hears
    # one refused: the other's challenge goes unanswered, so the core
    # never opens a session the UE would not know about
    with armed():
        sim = Simulator(1)
        stub, enb = build_stub(sim)
        prof = make_profile("001010000000091")
        stub.preload_key(prof.imsi, prof.key)
        ue = attach_ue(sim, enb, prof)
        _run_until_in_flight(sim, ue, AuthenticationRequest)
        ue.enqueue(ControlMessage(
            AttachReject(ue_id=ue.ue_id, cause="congestion"), enb))
        sim.run(until=5)
    assert ue.state is UeState.REJECTED
    assert _dropped(sim, "no-attach") == 1
    assert stub.sessions == {}
