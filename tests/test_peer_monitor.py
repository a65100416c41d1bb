"""Unit tests for peer liveness and spectrum reclamation (§4.3 churn)."""

import pytest

from repro.coordination import FairSharingCoordinator, PeerMonitor, X2Endpoint
from repro.phy.resource_grid import ResourceGrid
from repro.simcore import Simulator


def _federation(sim, n, delay=0.02, heartbeat_s=1.0):
    endpoints = [X2Endpoint(sim, f"ap{i}") for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            endpoints[i].connect_peer(endpoints[j], one_way_delay_s=delay)
    coordinators = [FairSharingCoordinator(ep, ResourceGrid(10e6))
                    for ep in endpoints]
    monitors = [PeerMonitor(sim, ep, coord, heartbeat_s=heartbeat_s)
                for ep, coord in zip(endpoints, coordinators)]
    for coord in coordinators:
        coord.announce()
    for monitor in monitors:
        monitor.start()
    return endpoints, coordinators, monitors


def test_healthy_federation_loses_nobody():
    sim = Simulator(1)
    endpoints, coords, monitors = _federation(sim, 3)
    sim.run(until=30.0)
    assert all(m.peers_lost == 0 for m in monitors)
    assert all(len(ep.peer_ids) == 2 for ep in endpoints)
    assert all(m.heartbeats_sent >= 25 for m in monitors)


def test_dead_peer_detected_and_spectrum_reclaimed():
    sim = Simulator(1)
    endpoints, coords, monitors = _federation(sim, 3, heartbeat_s=1.0)
    sim.run(until=5.0)
    assert all(len(c.my_prbs) in (16, 17) for c in coords)  # 3-way split

    monitors[2].stop()            # ap2's owner unplugs the box
    endpoints[2].handlers.clear()  # it no longer even processes X2

    sim.run(until=20.0)
    # both survivors noticed within a few heartbeats
    assert monitors[0].peers_lost == 1
    assert monitors[1].peers_lost == 1
    assert "ap2" not in endpoints[0].peer_ids
    assert "ap2" not in endpoints[1].peer_ids
    # and reclaimed its third of the grid
    assert len(coords[0].my_prbs) == 25
    assert len(coords[1].my_prbs) == 25
    assert not (coords[0].my_prbs & coords[1].my_prbs)


def test_detection_latency_bounded():
    sim = Simulator(2)
    endpoints, coords, monitors = _federation(sim, 2, heartbeat_s=1.0)
    sim.run(until=3.0)
    monitors[1].stop()
    endpoints[1].handlers.clear()
    death_time = sim.now
    lost_at = []
    monitors[0].on_peer_lost = lambda peer: lost_at.append(sim.now)
    sim.run(until=death_time + 10.0)
    assert lost_at, "peer loss never detected"
    detection = lost_at[0] - death_time
    # miss limit (3) x heartbeat (1 s), plus one interval of slack
    assert detection <= 4.0 + 0.1


def test_any_x2_traffic_counts_as_liveness():
    sim = Simulator(3)
    endpoints, coords, monitors = _federation(sim, 2, heartbeat_s=1.0)
    sim.run(until=2.0)
    # ap1 stops heartbeating but keeps sending claims (busy, not dead)
    monitors[1].stop()

    def keep_claiming():
        while True:
            coords[1].announce()
            yield sim.timeout(1.0)

    sim.process(keep_claiming())
    sim.run(until=20.0)
    assert monitors[0].peers_lost == 0
    assert "ap1" in endpoints[0].peer_ids


def test_monitor_validates():
    sim = Simulator(0)
    ep = X2Endpoint(sim, "x")
    with pytest.raises(ValueError):
        PeerMonitor(sim, ep, heartbeat_s=0)
    with pytest.raises(ValueError):
        PeerMonitor(sim, ep, missed_limit=0)


def test_start_idempotent():
    sim = Simulator(0)
    ep = X2Endpoint(sim, "x")
    monitor = PeerMonitor(sim, ep, heartbeat_s=1.0)
    monitor.start()
    monitor.start()
    sim.run(until=5.0)
    # one heartbeat process, not two
    assert monitor.heartbeats_sent <= 6


def test_recovered_peer_readmitted_and_split_reconverges():
    sim = Simulator(5)
    endpoints, coords, monitors = _federation(sim, 3, heartbeat_s=1.0)
    sim.run(until=5.0)

    monitors[2].stop()             # ap2 loses power
    saved = list(endpoints[2].handlers)
    endpoints[2].handlers.clear()
    sim.run(until=15.0)
    for monitor in monitors[:2]:
        assert monitor.peers_lost == 1 and "ap2" not in monitor.x2.peer_ids
    assert len(coords[0].my_prbs) == 25  # survivors split 2 ways

    # power restored: re-peer, re-announce, resume heartbeating
    endpoints[2].handlers.extend(saved)
    rejoined = []
    monitors[0].on_peer_rejoined = lambda peer: rejoined.append(
        (sim.now, peer))
    for i in (0, 1):
        endpoints[2].connect_peer(endpoints[i], one_way_delay_s=0.02)
    coords[2].announce()
    monitors[2].start()
    sim.run(until=30.0)

    assert monitors[0].peers_rejoined == 1
    assert monitors[1].peers_rejoined == 1
    assert "ap2" in monitors[0].x2.peer_ids
    assert rejoined and rejoined[0][1] == "ap2"
    # the restarted monitor must not falsely declare the (stale-stamped)
    # survivors dead on its first liveness check
    assert monitors[2].peers_lost == 0
    # shares reconverged to the equal 3-way split, still disjoint
    assert all(len(c.my_prbs) in (16, 17) for c in coords)
    assert len(coords[0].my_prbs | coords[1].my_prbs
               | coords[2].my_prbs) == 50


def test_monitor_restart_retires_stale_process():
    sim = Simulator(6)
    endpoints, coords, monitors = _federation(sim, 2, heartbeat_s=1.0)
    sim.run(until=2.5)
    # stop and immediately restart, inside the old process's pending
    # heartbeat timeout: only one heartbeat loop may survive
    monitors[0].stop()
    monitors[0].start()
    before = monitors[0].heartbeats_sent
    sim.run(until=12.5)
    assert monitors[0].heartbeats_sent - before <= 11
