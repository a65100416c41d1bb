"""Unit tests for AKA crypto, subscriber DB, and the published-key registry."""

import pytest

from repro.epc import PublishedKeyRegistry, SubscriberDb
from repro.epc.crypto import (
    generate_auth_vector,
    ue_compute_response,
    ue_verify_network,
)
from repro.epc.subscriber import SubscriberProfile, make_profile
from repro.simcore import Simulator

RAND = bytes(range(16))
KEY = bytes(16)


def test_vector_fields_shaped():
    v = generate_auth_vector(KEY, RAND)
    assert len(v.rand) == 16 and len(v.xres) == 16
    assert len(v.autn) == 16 and len(v.kasme) == 32


def test_res_matches_xres_with_same_key():
    v = generate_auth_vector(KEY, RAND)
    assert ue_compute_response(KEY, RAND) == v.xres


def test_res_differs_with_wrong_key():
    v = generate_auth_vector(KEY, RAND)
    assert ue_compute_response(b"x" * 16, RAND) != v.xres


def test_ue_verifies_genuine_network():
    v = generate_auth_vector(KEY, RAND, sqn=5)
    assert ue_verify_network(KEY, RAND, v.autn, sqn=5)


def test_ue_rejects_imposter_network():
    v = generate_auth_vector(b"y" * 16, RAND, sqn=0)
    assert not ue_verify_network(KEY, RAND, v.autn, sqn=0)


def test_ue_rejects_replayed_sqn():
    v = generate_auth_vector(KEY, RAND, sqn=1)
    assert not ue_verify_network(KEY, RAND, v.autn, sqn=2)


def test_vectors_differ_per_rand():
    v1 = generate_auth_vector(KEY, RAND)
    v2 = generate_auth_vector(KEY, bytes(reversed(RAND)))
    assert v1.xres != v2.xres and v1.kasme != v2.kasme


def test_bad_rand_length_rejected():
    with pytest.raises(ValueError):
        generate_auth_vector(KEY, b"short")
    with pytest.raises(ValueError):
        ue_compute_response(KEY, b"short")


# -- profiles / DB --------------------------------------------------------------

def test_profile_validation():
    with pytest.raises(ValueError):
        SubscriberProfile(imsi="12345", key=bytes(16))
    with pytest.raises(ValueError):
        SubscriberProfile(imsi="001010000000001", key=b"short")


def test_make_profile_deterministic():
    a = make_profile("001010000000001")
    b = make_profile("001010000000001")
    assert a.key == b.key
    assert a.key != make_profile("001010000000002").key


def test_db_provision_lookup_deprovision():
    db = SubscriberDb()
    p = make_profile("001010000000001")
    db.provision(p)
    assert db.lookup(p.imsi) is p
    assert db.lookup("001019999999999") is None
    assert len(db) == 1


# -- published key registry -------------------------------------------------------

def test_registry_publish_and_async_lookup():
    sim = Simulator(0)
    reg = PublishedKeyRegistry(sim, lookup_rtt_s=0.05)
    p = make_profile("001010000000007", published=True)
    reg.publish(p)
    got = []
    reg.lookup(p.imsi, lambda key: got.append((sim.now, key)))
    sim.run()
    assert got == [(0.05, p.key)]


def test_registry_refuses_private_profiles():
    """The consent guard: carrier SIM keys never reach the open registry."""
    sim = Simulator(0)
    reg = PublishedKeyRegistry(sim)
    private = make_profile("001010000000008", published=False)
    with pytest.raises(ValueError, match="not marked published"):
        reg.publish(private)
    assert len(reg) == 0


def test_registry_unknown_imsi_returns_none():
    sim = Simulator(0)
    reg = PublishedKeyRegistry(sim, lookup_rtt_s=0.01)
    got = []
    reg.lookup("001010000000009", got.append)
    sim.run()
    assert got == [None]


def test_registry_validates_rtt():
    with pytest.raises(ValueError):
        PublishedKeyRegistry(Simulator(0), lookup_rtt_s=-1)
