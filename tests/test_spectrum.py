"""Unit tests for grants, contention geometry, and the three registries."""

import pytest

from repro.geo import Point
from repro.phy import get_band
from repro.simcore import Simulator
from repro.spectrum import (
    ApRecord,
    BlockchainRegistry,
    FederatedRegistry,
    SasRegistry,
    SpectrumGrant,
    contention_radius_m,
    in_contention,
)

BAND5 = get_band("lte5")
CBRS = get_band("lte48cbrs")


def _record(ap_id, x=0.0, y=0.0, band=BAND5, eirp=58.0):
    return ApRecord(ap_id, Point(x, y), band, eirp)


# -- grants / geometry ------------------------------------------------------------

def test_ap_record_validates_id():
    with pytest.raises(ValueError):
        ApRecord("", Point(0, 0), BAND5, 40)


def test_grant_active_window():
    g = SpectrumGrant("g1", _record("a"), granted_at=10.0, expires_at=20.0)
    assert not g.active_at(5)
    assert g.active_at(15)
    assert not g.active_at(25)
    forever = SpectrumGrant("g2", _record("a"), granted_at=0.0)
    assert forever.active_at(1e9)


def test_contention_radius_band_ordering():
    """Sub-GHz footprints dwarf midband ones at the same EIRP."""
    assert (contention_radius_m(BAND5, 47.0)
            > 2 * contention_radius_m(CBRS, 47.0))


def test_contention_radius_grows_with_eirp():
    assert contention_radius_m(BAND5, 60) > contention_radius_m(BAND5, 40)


def test_in_contention_same_band_nearby():
    assert in_contention(_record("a", 0), _record("b", 5000))


def test_no_contention_across_bands():
    assert not in_contention(_record("a", 0),
                             _record("b", 100, band=CBRS))


def test_no_contention_when_far():
    far = 10 * contention_radius_m(BAND5, 58.0)
    assert not in_contention(_record("a", 0), _record("b", far))


# -- SAS ------------------------------------------------------------------------------

def test_sas_grant_latency_is_rtt_plus_processing():
    sim = Simulator(0)
    sas = SasRegistry(sim, rtt_s=0.05, processing_s=0.01)
    done = []
    sas.request_grant(_record("a"), lambda g: done.append((sim.now, g)))
    sim.run()
    assert done[0][0] == pytest.approx(0.06)
    assert done[0][1] is not None
    assert sas.active_grants == 1


def test_sas_neighbor_discovery():
    sim = Simulator(0)
    sas = SasRegistry(sim)
    for i in range(3):
        sas.request_grant(_record(f"ap{i}", x=i * 2000), lambda g: None)
    sim.run()
    got = []
    sas.discover_neighbors("ap0", lambda lst: got.append({r.ap_id for r in lst}))
    sim.run()
    assert got == [{"ap1", "ap2"}]


def test_sas_unknown_ap_discovers_nothing():
    sim = Simulator(0)
    sas = SasRegistry(sim)
    got = []
    sas.discover_neighbors("ghost", got.append)
    sim.run()
    assert got == [[]]


def test_sas_failure_blocks_everything():
    """Single point of failure: the SAS down means no joins, no discovery."""
    sim = Simulator(0)
    sas = SasRegistry(sim)
    sas.request_grant(_record("a"), lambda g: None)
    sim.run()
    sas.fail()
    assert not sas.is_available()
    results = []
    sas.request_grant(_record("b"), results.append)
    sas.discover_neighbors("a", results.append)
    sim.run()
    assert results == [None, []]
    sas.restore()
    sas.request_grant(_record("b"), results.append)
    sim.run()
    assert results[-1] is not None


def test_sas_density_admission():
    sim = Simulator(0)
    sas = SasRegistry(sim, max_density_per_domain=2)
    results = []
    for i in range(4):
        sas.request_grant(_record(f"ap{i}", x=i * 1000.0), results.append)
        sim.run()
    granted = [r for r in results if r is not None]
    assert len(granted) == 2
    assert sas.refused == 2


def test_sas_lease_and_heartbeat():
    sim = Simulator(0)
    sas = SasRegistry(sim, lease_s=60.0)
    got = {}
    sas.request_grant(_record("a"), lambda g: got.setdefault("grant", g))
    sim.run()
    grant = got["grant"]
    assert grant.expires_at == pytest.approx(sim.now + 60.0, abs=0.1)
    # heartbeat extends the lease
    sim.run(until=30.0)
    renewed = {}
    sas.heartbeat("a", lambda g: renewed.setdefault("g", g))
    sim.run(until=31.0)
    assert renewed["g"].expires_at > grant.expires_at
    assert renewed["g"].grant_id == grant.grant_id
    assert sas.heartbeats_served == 1


def test_sas_heartbeat_fails_when_down_or_unknown():
    sim = Simulator(0)
    sas = SasRegistry(sim, lease_s=60.0)
    sas.request_grant(_record("a"), lambda g: None)
    sim.run()
    results = []
    sas.heartbeat("ghost", results.append)
    sim.run()
    assert results == [None]
    sas.fail()
    sas.heartbeat("a", results.append)
    sim.run()
    assert results == [None, None]


def test_sas_without_lease_issues_perpetual_grants():
    sim = Simulator(0)
    sas = SasRegistry(sim)  # lease_s=None
    got = {}
    sas.request_grant(_record("a"), lambda g: got.setdefault("g", g))
    sim.run()
    assert got["g"].expires_at is None
    assert got["g"].active_at(1e9)


def test_sas_lease_validation():
    with pytest.raises(ValueError):
        SasRegistry(Simulator(0), lease_s=0)


# -- federated ----------------------------------------------------------------------------

def test_federated_grant_and_discovery():
    sim = Simulator(0)
    fed = FederatedRegistry(sim, region_size_m=50_000)
    done = []
    for i in range(3):
        fed.request_grant(_record(f"ap{i}", x=i * 2000), done.append)
    sim.run()
    assert all(g is not None for g in done)
    got = []
    fed.discover_neighbors("ap0", lambda lst: got.append({r.ap_id for r in lst}))
    sim.run()
    assert got == [{"ap1", "ap2"}]


def test_federated_referral_cached():
    """First contact pays the root referral; repeats do not."""
    sim = Simulator(0)
    fed = FederatedRegistry(sim, rtt_s=0.04, referral_rtt_s=0.04,
                            processing_s=0.0)
    times = []
    fed.request_grant(_record("a"), lambda g: times.append(sim.now))
    sim.run()
    assert times[0] == pytest.approx(0.08)             # rtt + referral
    # first discovery fans into uncontacted regions (referral again);
    # the second discovery hits cached authorities: one plain rtt
    fed.discover_neighbors("a", lambda lst: times.append(sim.now))
    sim.run()
    fed.discover_neighbors("a", lambda lst: times.append(sim.now))
    sim.run()
    assert times[1] - times[0] == pytest.approx(0.08)
    assert times[2] - times[1] == pytest.approx(0.04)


def test_federated_partial_failure():
    """One region dark, other regions keep serving (no global off switch)."""
    sim = Simulator(0)
    fed = FederatedRegistry(sim, region_size_m=10_000)
    results = {}
    fed.request_grant(_record("near", x=1000),
                      lambda g: results.setdefault("near", g))
    fed.request_grant(_record("far", x=55_000),
                      lambda g: results.setdefault("far", g))
    sim.run()
    assert results["near"] and results["far"]
    fed.fail_region(fed.region_key(Point(1000, 0)))
    assert fed.is_available()  # the federation survives
    late = {}
    fed.request_grant(_record("near2", x=1500),
                      lambda g: late.setdefault("near2", g))
    fed.request_grant(_record("far2", x=56_000),
                      lambda g: late.setdefault("far2", g))
    sim.run()
    assert late["near2"] is None       # dark region refuses
    assert late["far2"] is not None    # other region unaffected


def test_federated_cross_region_discovery():
    """Neighbors straddling a region border are still found."""
    sim = Simulator(0)
    fed = FederatedRegistry(sim, region_size_m=5_000)
    fed.request_grant(_record("west", x=4_000), lambda g: None)
    fed.request_grant(_record("east", x=6_000), lambda g: None)
    sim.run()
    got = []
    fed.discover_neighbors("west", lambda lst: got.append([r.ap_id for r in lst]))
    sim.run()
    assert got == [["east"]]


# -- blockchain ------------------------------------------------------------------------------

def test_blockchain_join_waits_for_confirmations():
    sim = Simulator(7)
    chain = BlockchainRegistry(sim, block_interval_s=10.0, confirmations=2,
                               propagation_s=0.0)
    done = []
    chain.request_grant(_record("a"), lambda g: done.append((sim.now, g)))
    sim.run(until=500)
    assert done and done[0][1] is not None
    # needs 1 (inclusion) + 2 (confirmations) blocks: >= ~3 exponential draws
    assert done[0][0] > 2 * 1.0  # far slower than any RTT-based registry
    assert chain.height >= 3
    blocks = chain.chain
    assert blocks[0].prev_hash == "genesis"
    assert all(block.prev_hash == prev.block_hash
               for prev, block in zip(blocks, blocks[1:]))


def test_blockchain_reads_are_local_and_instant():
    sim = Simulator(7)
    chain = BlockchainRegistry(sim, block_interval_s=1.0, confirmations=1)
    for i in range(3):
        chain.request_grant(_record(f"ap{i}", x=i * 1000.0), lambda g: None)
    sim.run(until=100)
    assert chain.active_grants == 3
    t0 = sim.now
    got = []
    chain.discover_neighbors("ap0", lambda lst: got.append((sim.now, len(lst))))
    sim.run(until=sim.now + 1)
    assert got == [(t0, 2)]  # same tick: zero read latency


def test_blockchain_never_unavailable():
    sim = Simulator(7)
    chain = BlockchainRegistry(sim)
    assert chain.is_available()
    assert not hasattr(chain, "fail")  # no single node to kill


def test_blockchain_validates_params():
    sim = Simulator(0)
    with pytest.raises(ValueError):
        BlockchainRegistry(sim, block_interval_s=0)
    with pytest.raises(ValueError):
        BlockchainRegistry(sim, confirmations=0)
