"""Integration: a client roams across a dLTE federation end to end.

Exercises the full §4.2/§4.3 mobility story inside one simulation:
movement model -> A3 measurements -> X2 handover with security-context
transfer -> re-attach at the target stub (no registry fetch) -> new
address from the target's pool.
"""

import pytest

from repro.core import DLTENetwork
from repro.epc.ue import UeState
from repro.mobility import A3HandoverTrigger, LinearMover
from repro.geo import Point
from repro.phy import Radio
from repro.workloads import RuralTown


@pytest.fixture
def roaming_setup():
    town = RuralTown(radius_m=2500, n_ues=2, n_aps=2, seed=5)
    net = DLTENetwork.build(town, seed=5)
    net.run(duration_s=3.0)  # brings up registry, peering, attaches
    return net


def _ue_entry(net, index=0):
    ue_id = sorted(net.ues)[index]
    return net.ues[ue_id], net.ue_hosts[ue_id], net.ue_radios[ue_id]


def _serving_ap(net, ue):
    for ap in net.aps.values():
        if ue.ue_id in ap.stub.sessions:
            return ap
    return None


def test_everyone_starts_attached(roaming_setup):
    net = roaming_setup
    for ue in net.ues.values():
        assert ue.state is UeState.ATTACHED
        assert _serving_ap(net, ue) is not None


def test_x2_handover_transfers_context(roaming_setup):
    net = roaming_setup
    ue, host, radio = _ue_entry(net)
    source = _serving_ap(net, ue)
    target = next(ap for ap in net.aps.values() if ap is not source)
    old_address = host.address

    decisions = []
    source.request_handover(ue, target.ap_id, decisions.append)
    net.sim.run(until=net.sim.now + 1.0)
    assert decisions == [True]
    assert target.handovers_in == 1
    assert source.handovers_out == 1
    # the context arrived: the target stub holds the key already
    assert ue.profile.imsi in target.stub._key_cache

    # execute the move: detach from source, attach at target
    ue.detach()
    net.sim.run(until=net.sim.now + 1.0)
    source.disconnect_ue(ue)
    fetches_before = target.stub.registry_fetches
    target.connect_ue(ue, host, radio)
    ue.start_attach()
    net.sim.run(until=net.sim.now + 3.0)

    assert ue.state is UeState.ATTACHED
    # no registry fetch: the X2 context made it a cache hit
    assert target.stub.registry_fetches == fetches_before
    assert target.stub.cache_hits >= 1
    # renumbered into the target's pool (dLTE does NOT preserve IPs)
    assert host.address != old_address
    assert target.pool.contains(host.address)
    assert not source.pool.contains(host.address)


def test_handover_to_unpeered_ap_raises(roaming_setup):
    net = roaming_setup
    ue, _host, _radio = _ue_entry(net)
    source = _serving_ap(net, ue)
    with pytest.raises(KeyError):
        source.request_handover(ue, "nonexistent-ap")


def test_a3_trigger_drives_handover_decision(roaming_setup):
    """The measurement chain: move the radio, watch A3 pick the target."""
    net = roaming_setup
    ue, host, radio = _ue_entry(net)
    source = _serving_ap(net, ue)
    target = next(ap for ap in net.aps.values() if ap is not source)

    cells = [ap.cell for ap in net.aps.values()]
    trigger = A3HandoverTrigger(cells, source.cell.name,
                                hysteresis_db=3.0, time_to_trigger_s=0.4)
    # drive the UE from the source site toward (and past) the target site
    start = source.position
    beyond = target.position.offset(
        *(0.3 * (target.position.x - source.position.x),
          0.3 * (target.position.y - source.position.y)))
    probe = Radio(start, tx_power_dbm=23)
    fired = []
    step = start
    for k in range(60):
        step = step.toward(beyond, 150.0)
        probe = Radio(step, tx_power_dbm=23)
        decision = trigger.measure(k * 0.5, probe)
        if decision:
            fired.append((k * 0.5, decision))
    assert fired, "A3 never triggered along the path"
    assert fired[0][1] == target.cell.name
    assert trigger.handovers >= 1


def test_second_roamer_reuses_transferred_context(roaming_setup):
    """Context transfer is per-IMSI: each client carries its own."""
    net = roaming_setup
    ue0, host0, radio0 = _ue_entry(net, 0)
    ue1, host1, radio1 = _ue_entry(net, 1)
    source0 = _serving_ap(net, ue0)
    target0 = next(ap for ap in net.aps.values() if ap is not source0)
    source0.request_handover(ue0, target0.ap_id)
    net.sim.run(until=net.sim.now + 1.0)
    assert ue0.profile.imsi in target0.stub._key_cache
    # the other client's key was not shipped along
    source1 = _serving_ap(net, ue1)
    other = next(ap for ap in net.aps.values() if ap is not source1)
    if other is target0 and source1 is source0:
        assert ue1.profile.imsi not in target0.stub._key_cache


@pytest.mark.parametrize("arm", ["dlte-tcp", "dlte-quic-mbb"])
def test_e6_links_close_their_ledgers(arm):
    """E6 under the link conservation laws, packets and bytes.

    The corridor attaches and pops links on every handover; each one
    registers with the armed simulator's checker as it is built.
    """
    from repro.experiments import e6_mobility
    from repro.invariants import armed

    with armed() as audit:
        stats = e6_mobility._run_arm(arm, 1.0)
        (checker,) = audit
        links = sum(law == "link-conservation"
                    for law, _subject, _fn in checker._checks)
        assert links > 20                       # the handover churn is in it
        assert checker.checks_run > len(checker._checks)    # swept mid-run
    assert stats == e6_mobility._run_arm(arm, 1.0)  # the audit is passive
