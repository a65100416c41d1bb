"""Security-model tests: what §4.2's "intentionally undermined" auth
still guarantees, and what it deliberately gives up."""

import pytest

from repro.epc import LocalCoreStub, PublishedKeyRegistry, UserEquipment
from repro.epc.agents import ControlChannel
from repro.epc.nas import AuthenticationRequest
from repro.epc.subscriber import SubscriberProfile, make_profile
from repro.epc.ue import UeState
from repro.net import AddressPool
from repro.simcore import Simulator

from tests.callback_agent import CallbackAgent
from tests.test_epc_attach import attach_ue, build_stub


def test_replayed_challenge_rejected():
    """Recording and replaying a (RAND, AUTN) pair must fail."""
    sim = Simulator(1)
    prof = make_profile("001010000000033", published=True)
    ue = UserEquipment(sim, prof)
    captured = []

    relay = CallbackAgent(sim, "mitm",
                          handler=lambda m: captured.append(m.payload))
    air = ControlChannel(sim, ue, relay, 0.005, "air")
    ue.connect_air(air)

    # a legitimate-looking challenge (attacker somehow got one)
    from repro.epc.crypto import generate_auth_vector
    rand = bytes(range(16))
    vector = generate_auth_vector(prof.key, rand, sqn=0)
    challenge = AuthenticationRequest(ue_id=ue.ue_id, rand=rand,
                                      autn=vector.autn, sqn=0)
    rejections = []
    ue.on_rejected = lambda u, cause: rejections.append(cause)

    ue.state = UeState.ATTACHING
    ue.enqueue(type("M", (), {"payload": challenge, "sender": relay,
                              "sent_at": 0.0})())
    sim.run(until=1.0)
    assert rejections == []  # first time: answered

    ue.state = UeState.ATTACHING
    ue.enqueue(type("M", (), {"payload": challenge, "sender": relay,
                              "sent_at": 0.0})())
    sim.run(until=2.0)
    assert rejections == ["replayed-challenge"]
    assert ue.network_auth_failures == 1


def test_imposter_network_rejected():
    """An AP that does NOT hold the published key cannot fake AUTN."""
    sim = Simulator(1)
    stub, enb = build_stub(sim, registry=None)
    real = make_profile("001010000000044", published=True)
    # stub holds a WRONG key for this IMSI (e.g. stale registry data)
    wrong = make_profile("001010000000045")
    stub.preload_key(real.imsi, wrong.key)
    ue = attach_ue(sim, enb, real)
    sim.run(until=5)
    assert ue.state is UeState.REJECTED
    assert ue.network_auth_failures == 1


def test_private_keys_never_enter_registry():
    sim = Simulator(1)
    registry = PublishedKeyRegistry(sim)
    private = make_profile("001010000000046", published=False)
    with pytest.raises(ValueError):
        registry.publish(private)


def test_handover_context_carries_only_that_ue():
    """X2 context transfer must not bulk-leak the source's key cache."""
    from repro.coordination.x2 import HandoverRequest

    msg = HandoverRequest(sender_ap="a", ue_id="u1",
                          imsi="001010000000047", key_context=b"k" * 16)
    # the message schema has exactly one key slot; there is no cache field
    assert not hasattr(msg, "key_cache")
    assert msg.key_context == b"k" * 16


def test_published_key_lets_any_stub_authenticate():
    """The §4.2 design goal: publication = universal attachability."""
    sim = Simulator(1)
    registry = PublishedKeyRegistry(sim, lookup_rtt_s=0.02)
    prof = make_profile("001010000000048", published=True)
    registry.publish(prof)
    # two unrelated stubs, no pre-arrangement with the user
    results = []
    for i in range(2):
        stub, enb = build_stub(sim, registry,
                               pool_prefix=f"100.{64 + i}.0.0/24")
        ue = attach_ue(sim, enb, prof)
        sim.run(until=sim.now + 3.0)
        results.append(ue.state)
        ue.detach()
        sim.run(until=sim.now + 1.0)
    assert results == [UeState.ATTACHED, UeState.ATTACHED]


def test_open_network_admits_anyone_published_rejects_unpublished():
    """dLTE's L2 is open like 'Free WiFi': published users attach,
    unpublished users simply cannot complete AKA (not a policy wall,
    a key-possession fact)."""
    sim = Simulator(1)
    registry = PublishedKeyRegistry(sim, lookup_rtt_s=0.02)
    stranger = make_profile("001010000000049", published=False)
    member = make_profile("001010000000050", published=True)
    registry.publish(member)
    stub, enb = build_stub(sim, registry)
    ue_member = attach_ue(sim, enb, member)
    ue_stranger = attach_ue(sim, enb, stranger)
    sim.run(until=5.0)
    assert ue_member.state is UeState.ATTACHED
    assert ue_stranger.state is UeState.REJECTED
