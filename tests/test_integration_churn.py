"""Integration: federation churn — an AP dies, survivors reclaim spectrum.

The open-federation counterpart of carrier ops: nobody pages an
engineer; the X2 peer-status extension notices and the fair-sharing
protocol reconverges.
"""

import pytest

from repro.core import DLTENetwork
from repro.epc.ue import UeState, UserEquipment
from repro.faults import FaultInjector
from repro.workloads import RuralTown


@pytest.fixture
def federation():
    town = RuralTown(radius_m=2500, n_ues=4, n_aps=3, seed=11)
    net = DLTENetwork.build(town, seed=11)
    net.run(duration_s=3.0)
    for ap in net.aps.values():
        ap.start_peer_monitor(heartbeat_s=1.0)
    net.sim.run(until=net.sim.now + 2.0)
    return net


def test_three_way_split_before_churn(federation):
    net = federation
    sizes = sorted(len(ap.cell.allowed_prbs) for ap in net.aps.values())
    assert sizes == [16, 17, 17]


def test_survivors_reclaim_dead_aps_spectrum(federation):
    net = federation
    victim = net.aps["ap2"]
    # the owner unplugs the box: monitor stops, X2 goes silent
    victim.peer_monitor.stop()
    victim.x2.handlers.clear()

    net.sim.run(until=net.sim.now + 8.0)  # > missed_limit x heartbeat

    survivors = [net.aps["ap0"], net.aps["ap1"]]
    for ap in survivors:
        assert "ap2" not in ap.x2.peer_ids
        assert ap.peer_monitor.peers_lost == 1
    slices = [ap.cell.allowed_prbs for ap in survivors]
    assert len(slices[0]) == 25 and len(slices[1]) == 25
    assert not (slices[0] & slices[1])


def test_rejoin_after_churn(federation):
    """The unplugged AP comes back: rediscovers, re-peers, re-shares."""
    net = federation
    victim = net.aps["ap2"]
    victim.peer_monitor.stop()
    victim.x2.handlers.clear()
    net.sim.run(until=net.sim.now + 8.0)
    assert all("ap2" not in net.aps[a].x2.peer_ids for a in ("ap0", "ap1"))

    # power restored: rebuild the X2 handler chain and re-peer
    victim.x2.add_handler(victim.coordinator._on_x2)
    victim.discover_and_peer(net.aps)
    net.sim.run(until=net.sim.now + 3.0)

    sizes = sorted(len(ap.cell.allowed_prbs) for ap in net.aps.values())
    assert sizes == [16, 17, 17]
    union = frozenset().union(*(ap.cell.allowed_prbs
                                for ap in net.aps.values()))
    assert len(union) == 50


def _busiest_ap(net):
    served = {}
    for ue_id, ap_id in net._serving_ap.items():
        served.setdefault(ap_id, []).append(ue_id)
    victim_id = max(sorted(served), key=lambda a: len(served[a]))
    return victim_id, served[victim_id]


def test_crash_restart_lifecycle_leaves_no_stuck_state(federation):
    """Power-cycle an AP through the network helpers: clients drop,
    survivors reclaim, the restart re-peers and every client re-attaches."""
    net = federation
    sim = net.sim
    victim_id, its_ue_ids = _busiest_ap(net)
    victim = net.aps[victim_id]
    its_ues = [net.ues[u] for u in its_ue_ids]
    assert its_ues  # the busiest AP serves someone

    net.crash_ap(victim_id)
    assert not victim.alive and victim.crashes == 1
    assert victim.stub.sessions == {}
    assert victim.pool.in_use == 0  # every address back in the pool
    for ue in its_ues:
        assert ue.state is UeState.IDLE
        assert ue.air is None and ue.ue_address is None

    sim.run(until=sim.now + 8.0)  # > missed_limit x heartbeat
    survivors = [ap for ap in net.aps.values() if ap.ap_id != victim_id]
    for ap in survivors:
        assert victim_id not in ap.x2.peer_ids
        assert ap.peer_monitor.peers_lost == 1

    net.restart_ap(victim_id)
    sim.run(until=sim.now + 10.0)
    assert victim.alive
    for ue in its_ues:  # clients re-attached with fresh sessions
        assert ue.state is UeState.ATTACHED
        assert ue.ue_address is not None
        assert ue.attach_retries_exhausted == 0
    for ap in survivors:  # peers re-admitted the recovered AP
        assert victim_id in ap.x2.peer_ids
        assert ap.peer_monitor.peers_rejoined == 1
    # spectrum reconverged to the full 3-way split
    sizes = sorted(len(ap.cell.allowed_prbs) for ap in net.aps.values())
    assert sizes == [16, 17, 17]


def test_injected_crash_restart_via_fault_injector(federation):
    """The same lifecycle driven by the FaultInjector schedule."""
    net = federation
    sim = net.sim
    victim_id, its_ue_ids = _busiest_ap(net)
    injector = FaultInjector(sim)
    injector.outage(lambda: net.crash_ap(victim_id),
                    lambda: net.restart_ap(victim_id),
                    at_s=sim.now + 2.0, duration_s=8.0,
                    name=f"crash:{victim_id}")
    sim.run(until=sim.now + 25.0)
    assert [(r.name, r.action) for r in injector.log] == [
        (f"crash:{victim_id}", "fail"), (f"crash:{victim_id}", "restore")]
    assert net.aps[victim_id].alive
    for ue_id in its_ue_ids:
        assert net.ues[ue_id].state is UeState.ATTACHED
    sizes = sorted(len(ap.cell.allowed_prbs) for ap in net.aps.values())
    assert sizes == [16, 17, 17]


def test_restart_during_a_backoff_keeps_one_supervisor(federation,
                                                       monkeypatch):
    """A UE whose retry supervisor is backing off when its AP comes back
    is not handed a second one: one AttachRequest leaves it per wake."""
    net = federation
    sim = net.sim
    victim_id, its_ue_ids = _busiest_ap(net)
    ue = net.ues[its_ue_ids[0]]
    net.crash_ap(victim_id)
    # out of coverage: the supervisor's first wait is a 4 s backoff
    ue.start_attach_with_retry(base_backoff_s=4.0, max_backoff_s=4.0,
                               jitter_frac=0.0)
    sim.run(until=sim.now + 1.0)
    sent = []
    start_attach = UserEquipment.start_attach

    def counting_start_attach(self):  # the one sender of AttachRequest
        if self is ue:
            sent.append(sim.now)
        start_attach(self)

    monkeypatch.setattr(UserEquipment, "start_attach", counting_start_attach)
    net.restart_ap(victim_id)
    restarted_at = sim.now
    sim.run(until=sim.now + 10.0)
    assert ue.state is UeState.ATTACHED
    # the backing-off supervisor sends once, at its wake; a second
    # supervisor would have sent at the restart itself
    assert sent == [restarted_at + 3.0]
