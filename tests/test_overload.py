"""Overload protection: bounded agents, shedding, T3346, conservation.

Covers the control-plane overload layer end to end: the
:class:`~repro.epc.overload.OverloadPolicy` shedding disciplines on a
bare agent, MME/stub admission control answering floods with
``AttachReject(cause="congestion", backoff_s=T)``, the UE honoring the
server's timer with deterministic per-UE jitter, the ``enqueue``
re-entrancy contract, and the conservation law
``enqueued == processed + shed + in_flight`` under every scenario —
including composition with chaos storms and the flash-crowd workload.
"""

import pytest

from repro.enodeb import EnbControlRelay
from repro.epc import (
    CentralizedEpc,
    LocalCoreStub,
    PublishedKeyRegistry,
    UserEquipment,
)
from repro.epc.agents import ControlChannel, ControlMessage
from repro.epc.nas import AttachRequest, DetachRequest, Paging
from repro.epc.overload import (
    CLASS_CRITICAL,
    CLASS_NEW_WORK,
    CLASS_PROCEDURE,
    OverloadPolicy,
    message_class,
)
from repro.epc.subscriber import make_profile
from repro.epc.ue import UeState
from repro.invariants import InvariantChecker
from repro.net import AddressPool
from repro.simcore import Simulator, Tracer
from tests.callback_agent import CallbackAgent

AIR_DELAY = 0.005


def _msg(payload, sender=None):
    return ControlMessage(payload=payload, sender=sender)


def _flood(agent, n, payload_fn=None):
    for i in range(n):
        payload = payload_fn(i) if payload_fn else f"m{i}"
        agent.enqueue(_msg(payload))


def _assert_conserved(agent):
    assert agent.enqueued == agent.processed + agent.shed + agent.in_flight
    assert sum(agent.shed_by_cause.values()) == agent.shed


# -- policy construction -----------------------------------------------------------

def test_policy_validates():
    with pytest.raises(ValueError):
        OverloadPolicy(queue_limit=0)
    with pytest.raises(ValueError):
        OverloadPolicy(queue_limit=4, shed="lifo")
    with pytest.raises(ValueError):
        OverloadPolicy(queue_limit=4, shed="deadline", deadline_s=0.0)
    with pytest.raises(ValueError):
        OverloadPolicy(queue_limit=4, admission_limit=0)
    with pytest.raises(ValueError):
        OverloadPolicy(queue_limit=4, congestion_backoff_s=-1.0)


def test_message_classes():
    attach = AttachRequest(ue_id="u", imsi="001")
    assert message_class(attach) == CLASS_NEW_WORK
    assert message_class(DetachRequest(ue_id="u")) == CLASS_CRITICAL
    assert message_class(Paging(ue_id="u")) == CLASS_CRITICAL
    assert message_class("anything else") == CLASS_PROCEDURE


# -- shedding disciplines ----------------------------------------------------------

def test_unbounded_by_default():
    sim = Simulator(0)
    agent = CallbackAgent(sim, "a", service_time_s=1e-3)
    _flood(agent, 500)
    assert agent.overload is None
    assert agent.shed == 0
    assert agent.peak_queue_depth > 400  # the seed's infinite patience
    sim.run()
    assert agent.processed == 500
    _assert_conserved(agent)


def test_drop_tail_bounds_queue():
    sim = Simulator(0)
    agent = CallbackAgent(sim, "a", service_time_s=1e-3)
    agent.configure_overload(OverloadPolicy(queue_limit=8))
    _flood(agent, 100)
    assert agent.peak_queue_depth <= 8
    assert agent.shed_by_cause["queue-full"] == agent.shed > 0
    _assert_conserved(agent)
    sim.run()
    assert agent.processed + agent.shed == 100
    _assert_conserved(agent)


def test_deadline_shedding_expires_stale_waiters():
    sim = Simulator(0)
    agent = CallbackAgent(sim, "a", service_time_s=10.0)  # glacial server
    agent.configure_overload(
        OverloadPolicy(queue_limit=4, shed="deadline", deadline_s=0.5))
    _flood(agent, 5)  # 1 in service, 4 queued (at the limit) at t=0
    assert agent.shed_by_cause.get("queue-full", 0) == 0
    # by t=2 the queued messages have waited 2 s >> 0.5 s deadline; a
    # fresh arrival evicts them instead of being dropped itself
    sim.run(until=2.0)
    agent.enqueue(_msg("late"))
    assert agent.shed_by_cause["deadline"] == 4
    assert [m.payload for m in agent._queue] == ["late"]
    _assert_conserved(agent)
    sim.run()
    assert agent.processed == 2  # the first message and the late arrival
    _assert_conserved(agent)


def test_priority_shedding_lets_critical_messages_through():
    sim = Simulator(0)
    agent = CallbackAgent(sim, "a", service_time_s=1.0)
    agent.configure_overload(OverloadPolicy(queue_limit=3, shed="priority"))
    _flood(agent, 5, lambda i: AttachRequest(ue_id=f"u{i}", imsi="001"))
    # queue full of new-work attaches: another attach is refused ...
    agent.enqueue(_msg(AttachRequest(ue_id="u9", imsi="001")))
    assert agent.shed_by_cause["queue-full"] >= 1
    # ... but a Detach evicts the youngest attach and joins the queue
    before = agent.shed
    agent.enqueue(_msg(DetachRequest(ue_id="u1")))
    assert agent.shed == before + 1
    assert agent.shed_by_cause["priority"] == 1
    queued = [type(m.payload).__name__ for m in agent._queue]
    assert "DetachRequest" in queued
    _assert_conserved(agent)
    sim.run()
    _assert_conserved(agent)


def test_priority_never_evicts_equal_or_higher_class():
    sim = Simulator(0)
    agent = CallbackAgent(sim, "a", service_time_s=1.0)
    agent.configure_overload(OverloadPolicy(queue_limit=2, shed="priority"))
    _flood(agent, 3, lambda i: DetachRequest(ue_id=f"u{i}"))
    # queue is all critical: an arriving Paging (also critical) must not
    # evict a peer — it is itself refused
    agent.enqueue(_msg(Paging(ue_id="u9")))
    assert agent.shed_by_cause["queue-full"] == 1
    assert agent.shed_by_cause.get("priority", 0) == 0
    _assert_conserved(agent)


# -- enqueue re-entrancy (regression) ----------------------------------------------

def test_handler_may_enqueue_to_self():
    """A handler that feeds its own agent must defer, not recurse."""
    sim = Simulator(0)
    seen = []

    def handler(message):
        seen.append(message.payload)
        if message.payload == "first":
            agent.enqueue(_msg("echo"))  # re-entrant offer mid-handle

    agent = CallbackAgent(sim, "a", handler, service_time_s=1e-3)
    agent.enqueue(_msg("first"))
    sim.run()
    assert seen == ["first", "echo"]
    _assert_conserved(agent)


def test_mutual_enqueue_ping_pong():
    """Two agents feeding each other synchronously never re-enter."""
    sim = Simulator(0)
    hops = []

    def make_handler(me, peer_box):
        def handler(message):
            hops.append(me)
            if len(hops) < 10:
                peer_box[0].enqueue(_msg(f"hop{len(hops)}"))
        return handler

    box_a, box_b = [None], [None]
    a = CallbackAgent(sim, "a", make_handler("a", box_b),
                      service_time_s=1e-3)
    b = CallbackAgent(sim, "b", make_handler("b", box_a),
                      service_time_s=0.0)  # zero service: same-time kick
    box_a[0], box_b[0] = a, b
    a.enqueue(_msg("hop0"))
    sim.run()
    assert hops == ["a", "b"] * 5
    for agent in (a, b):
        _assert_conserved(agent)


# -- admission control + T3346 end to end ------------------------------------------

def _centralized(sim, n_ues, admission_limit, **retry):
    epc = CentralizedEpc(sim, AddressPool("10.0.0.0/16"))
    enb = EnbControlRelay(sim, "enb0")
    channel = epc.connect_enb(enb, backhaul_delay_s=0.03)
    enb.connect_core(channel)
    epc.mme.configure_overload(OverloadPolicy(
        queue_limit=64, admission_limit=admission_limit,
        congestion_backoff_s=1.0))
    ues = []
    for i in range(n_ues):
        prof = make_profile(f"0010100000{i:05d}")
        epc.provision(prof)
        ue = UserEquipment(sim, prof)
        air = ControlChannel(sim, ue, enb, AIR_DELAY, f"air:{ue.name}")
        ue.connect_air(air)
        enb.attach_ue(ue.ue_id, air)
        ue.start_attach_with_retry(**retry)
        ues.append(ue)
    return epc, ues


def test_mme_admission_rejects_with_congestion_backoff():
    sim = Simulator(3)
    epc, ues = _centralized(sim, n_ues=24, admission_limit=4,
                            max_attempts=4, timeout_s=2.0,
                            base_backoff_s=0.25, max_backoff_s=2.0)
    sim.run(until=30.0)
    rejected = [ue for ue in ues if ue.congestion_rejects > 0]
    assert rejected, "flood never tripped admission control"
    assert epc.mme.shed_by_cause["congestion"] >= len(rejected)
    # congestion rejects are refused at the door: cheaper than service
    assert epc.mme.attaches_rejected >= len(rejected)
    # ... and the backoff let everyone in eventually (24 UEs is well
    # within 30 s of retried capacity)
    assert all(ue.state is UeState.ATTACHED for ue in ues)
    _assert_conserved(epc.mme)


def test_stub_admission_rejects_with_congestion_backoff():
    sim = Simulator(4)
    registry = PublishedKeyRegistry(sim, lookup_rtt_s=0.005)
    stub = LocalCoreStub(sim, "stub", AddressPool("100.64.0.0/24"),
                         registry=registry)
    enb = EnbControlRelay(sim, "enb0")
    s1 = ControlChannel(sim, enb, stub, 0.1e-3, "s1-local")
    enb.connect_core(s1)
    stub.connect_enb(s1)
    stub.configure_overload(OverloadPolicy(
        queue_limit=64, admission_limit=2, congestion_backoff_s=0.5))
    ues = []
    for i in range(12):
        prof = make_profile(f"0010100000{i:05d}", published=True)
        registry.publish(prof)
        ue = UserEquipment(sim, prof)
        air = ControlChannel(sim, ue, enb, AIR_DELAY, f"air:{ue.name}")
        ue.connect_air(air)
        enb.attach_ue(ue.ue_id, air)
        ue.start_attach_with_retry(max_attempts=8, timeout_s=1.0,
                                   base_backoff_s=0.25, max_backoff_s=1.0,
                                   jitter_frac=0.5)
        ues.append(ue)
    sim.run(until=30.0)
    assert stub.shed_by_cause.get("congestion", 0) > 0
    assert any(ue.congestion_rejects > 0 for ue in ues)
    assert all(ue.state is UeState.ATTACHED for ue in ues)
    _assert_conserved(stub)


def test_ue_honors_server_backoff_timer():
    """After a congestion reject the UE waits at least the server's
    T3346 before the next attempt — even when its own exponential
    backoff would retry sooner."""
    sim = Simulator(5)
    tracer = Tracer(categories=["nas"])
    sim.tracer = tracer
    epc, ues = _centralized(sim, n_ues=12, admission_limit=2,
                            max_attempts=3, timeout_s=2.0,
                            base_backoff_s=0.01,  # eager retrier
                            max_backoff_s=0.02)
    sim.run(until=20.0)
    rejected = [ue for ue in ues if ue.congestion_rejects > 0]
    assert rejected
    waits = [event.fields["backoff_s"]
             for event in tracer.events("nas")
             if "attach retry backoff" in event.message]
    # every post-reject wait honors the 1.0 s server timer; the eager
    # 10 ms personal backoff alone can never reach it
    assert any(w >= 1.0 for w in waits)


# -- deterministic jitter (satellite: per-UE desync) -------------------------------

def _retry_waits(seed, n_ues=4):
    """Backoff waits per UE against a dead core (every attempt times
    out), keyed by UE name."""
    sim = Simulator(seed)
    tracer = Tracer(categories=["nas"])
    sim.tracer = tracer
    epc = CentralizedEpc(sim, AddressPool("10.0.0.0/16"))
    enb = EnbControlRelay(sim, "enb0")
    channel = epc.connect_enb(enb, backhaul_delay_s=0.03)
    enb.connect_core(channel)
    channel.set_up(False)  # dead core: pure timeout-driven retries
    for i in range(n_ues):
        prof = make_profile(f"0010100000{i:05d}")
        epc.provision(prof)
        ue = UserEquipment(sim, prof)
        air = ControlChannel(sim, ue, enb, AIR_DELAY, f"air:{ue.name}")
        ue.connect_air(air)
        enb.attach_ue(ue.ue_id, air)
        ue.start_attach_with_retry(max_attempts=4, timeout_s=0.5,
                                   base_backoff_s=0.5, max_backoff_s=4.0,
                                   jitter_frac=0.5)
    sim.run(until=30.0)
    waits = {}
    for event in tracer.events("nas"):
        if "attach retry backoff" in event.message:
            name = event.message.split(":")[0]
            waits.setdefault(name, []).append(event.fields["backoff_s"])
    return waits


def test_backoff_jitter_desynchronizes_ues():
    waits = _retry_waits(seed=7)
    assert len(waits) == 4 and all(len(w) == 3 for w in waits.values())
    # same attempt, different UEs: jitter must spread them apart
    first_waits = {name: w[0] for name, w in waits.items()}
    assert len(set(first_waits.values())) == len(first_waits)


def test_backoff_jitter_reproducible_from_seed():
    assert _retry_waits(seed=7) == _retry_waits(seed=7)
    assert _retry_waits(seed=7) != _retry_waits(seed=8)


# -- crash accounting --------------------------------------------------------------

def test_stub_crash_sheds_queue_with_cause():
    sim = Simulator(6)
    stub = LocalCoreStub(sim, "stub", AddressPool("100.64.0.0/24"),
                         service_time_s=1.0)
    _flood(stub, 5)
    assert stub.in_flight == 5
    stub.crash()
    assert stub.shed_by_cause["crash"] == 4  # waiters; 1 stays in service
    _assert_conserved(stub)
    sim.run(until=2.0)
    _assert_conserved(stub)


# -- conservation under the invariant checker --------------------------------------

def test_watch_agent_passes_under_overload():
    sim = Simulator(0)
    checker = InvariantChecker(sim)
    agent = CallbackAgent(sim, "a", service_time_s=1e-3)
    agent.configure_overload(OverloadPolicy(queue_limit=4, shed="priority"))
    checker.watch_agent(agent)
    _flood(agent, 50, lambda i: AttachRequest(ue_id=f"u{i}", imsi="001"))
    assert checker.check_now() == []
    sim.run()
    assert checker.check_now() == []
    assert agent.shed > 0


def test_flash_crowd_during_flapping_backhaul_composes():
    """Chaos x workload: a flash crowd lands while the busiest AP's
    backhaul flaps. Every invariant (including agent conservation) must
    stay green, and the shed ledger must balance across all agents."""
    from repro.core.network import DLTENetwork, iter_control_agents
    from repro.faults import FaultInjector, compose_scenario, prepare_scenario
    from repro.invariants import armed
    from repro.workloads.topology import RuralTown
    from repro.workloads.traffic import FlashCrowdAttachSource

    town = RuralTown(radius_m=1500, n_ues=8, n_aps=2, seed=5)
    with armed():
        net = DLTENetwork.build(town, seed=5)
    sim = net.sim
    prepare_scenario("flapping-backhaul", net)
    policy = OverloadPolicy(queue_limit=8, shed="priority",
                            admission_limit=6, congestion_backoff_s=1.0)
    for ap in net.aps.values():
        ap.stub.configure_overload(policy)

    storm = FlashCrowdAttachSource(
        sim, [net.ues[name] for name in sorted(net.ues)], window_s=0.5,
        retry_kwargs=dict(max_attempts=6, timeout_s=1.0,
                          base_backoff_s=0.5, max_backoff_s=4.0,
                          jitter_frac=0.5))
    storm.start()
    plan = compose_scenario("flapping-backhaul", net, FaultInjector(sim),
                            sim.now + 0.25)  # flaps start mid-crowd
    sim.run(until=max(sim.now + 20.0, plan.end_s + 10.0))

    sim.checker.verify()  # raises if any law broke during the storm
    assert storm.attaches_started == 8
    for agent in iter_control_agents(net):
        _assert_conserved(agent)


def test_e17_composes_with_chaos_and_invariants():
    """The packaged experiment runs a storm under cascading stub
    crashes with the checker armed — and still renders a sane table."""
    from repro.experiments import e17_attach_storm
    from repro.invariants import armed

    with armed() as audited:
        table = e17_attach_storm.run(
            intensities=(1,), n_aps=2, ue_per_ap=3, horizon_s=12.0,
            scenario="cascading-stub-crashes")
    assert len(audited) == 2 and all(c.checks_run for c in audited)
    assert len(table) == 2
    assert all(0.0 <= s <= 1.0 for s in table.column("attach_success"))


def test_watch_agent_catches_cooked_books():
    sim = Simulator(0)
    checker = InvariantChecker(sim)
    agent = CallbackAgent(sim, "a", service_time_s=1e-3)
    checker.watch_agent(agent)
    agent.enqueued += 1  # a message the agent never saw
    violations = checker.check_now()
    assert violations and "leak" in violations[0].detail
