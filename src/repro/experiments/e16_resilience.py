"""E16 (extension) — §4.3/§7: resilience under identical fault schedules.

"Commodity ISP-grade hardware will be less reliable than traditional
telecom equipment" — dLTE's answer is that failure *domains* shrink: an
AP crash takes down one site's clients, while the federation's survivors
keep serving theirs and reclaim the dead AP's spectrum via the peer
monitor. A carrier network inverts the bet: each box is sturdier, but
every tunnel hairpins through one EPC site — lose that building and the
*whole town* goes dark at once.

Two arms over the same town, hit by the same-shaped fault schedule
(driven by :class:`~repro.faults.FaultInjector` on each arm's clock):

* **dLTE (federated)** — the busiest AP power-fails at ``fail_at_s`` and
  comes back ``outage_s`` later. Its clients drop; the survivors' peer
  monitors declare it dead and re-split the spectrum; on restart the AP
  replays the §4.3 lifecycle and its clients re-attach under retry
  supervision.
* **Centralized LTE** — the EPC site becomes unreachable for the same
  window (every S1 channel and the EPC gateway's uplink go down).

A probe loop pings the OTT server from every client at a fixed cadence,
yielding reachability over time, the minimum reachable fraction, probes
lost, and time-to-recover after the restore. Everything is deterministic
from ``(seed, schedule)``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.core.network import (
    SERVER_ADDR,
    CentralizedLTENetwork,
    DLTENetwork,
)
from repro.epc.ue import UeState
from repro.faults import FaultInjector, compose_scenario, prepare_scenario
from repro.metrics.tables import ResultTable
from repro.net.packet import Packet
from repro.workloads.topology import RuralTown


class _ResilienceArm:
    """One architecture under probe: send pings, tally reachability."""

    def __init__(self, name: str, net) -> None:
        self.name = name
        self.net = net
        self.sim = net.sim
        self.injector = FaultInjector(net.sim)
        self.probes_sent = 0
        self.pongs_received = 0
        self.timeline: List[Tuple[float, float]] = []  # (time, reach frac)

    def probe_round(self, window_s: float) -> float:
        """Ping the server from every addressed client; return the
        fraction of *all* clients that answered (address-less clients —
        e.g. mid-re-attach — count as unreachable)."""
        sim = self.sim
        hosts = self.net.ue_hosts
        got: Set[str] = set()

        def handler_for(ue_id: str):
            def on_packet(packet: Packet) -> None:
                payload = packet.payload
                if isinstance(payload, dict) and payload.get("kind") == "pong":
                    got.add(ue_id)
            return on_packet

        t_probe = sim.now
        for ue_id in sorted(hosts):
            host = hosts[ue_id]
            if host.address is None:
                continue
            host.on_packet = handler_for(ue_id)
            host.send(Packet(src=host.address, dst=SERVER_ADDR,
                             size_bytes=100,
                             payload={"kind": "ping", "t0": sim.now},
                             created_at=sim.now))
            self.probes_sent += 1
        sim.run(until=sim.now + window_s)
        self.pongs_received += len(got)
        frac = len(got) / max(1, len(hosts))
        self.timeline.append((t_probe, frac))
        return frac

    @property
    def probes_lost(self) -> int:
        return self.probes_sent - self.pongs_received

    def reach_at_or_after(self, t_s: float, level: float) -> Optional[float]:
        """First probe time >= ``t_s`` whose reach >= ``level``."""
        for when, frac in self.timeline:
            if when >= t_s and frac >= level:
                return when
        return None


def _settle_dlte(net: DLTENetwork, heartbeat_s: float) -> None:
    """License + peer + attach + start monitors (E16's control phase)."""
    net.license_and_peer()
    for k, ue in enumerate(net.ues.values()):
        net.sim.schedule(0.010 * k, ue.start_attach)
    net.sim.run(until=net.sim.now + 3.0 + 0.010 * len(net.ues))
    for ap in net.aps.values():
        ap.start_peer_monitor(heartbeat_s=heartbeat_s)


def _settle_centralized(net: CentralizedLTENetwork) -> None:
    for k, ue in enumerate(net.ues.values()):
        net.sim.schedule(0.010 * k, ue.start_attach)
    net.sim.run(until=net.sim.now + 5.0 + 0.010 * len(net.ues))


def _busiest_ap(net: DLTENetwork) -> str:
    """The AP serving the most clients (deterministic tie-break)."""
    counts: Dict[str, int] = {ap_id: 0 for ap_id in net.aps}
    for serving in net._serving_ap.values():
        counts[serving] += 1
    return max(sorted(counts), key=lambda ap_id: counts[ap_id])


def _dlte_surviving_frac(net: DLTENetwork, victims) -> float:
    """Fraction of clients whose serving AP is not directly attacked."""
    hit = sum(1 for s in net._serving_ap.values() if s in set(victims))
    return (len(net._serving_ap) - hit) / max(1, len(net._serving_ap))


def run(seed: int = 11, n_aps: int = 3, n_ues: int = 12,
        radius_m: float = 2500.0, heartbeat_s: float = 1.0,
        probe_interval_s: float = 1.0, fail_at_s: float = 5.0,
        outage_s: float = 15.0, horizon_s: float = 40.0,
        scenario: str = "") -> Tuple[ResultTable, ResultTable]:
    """Reachability over time + resilience summary for both arms.

    ``scenario`` swaps the default single-site outage for a named chaos
    scenario from :mod:`repro.faults.scenarios` (same storm on both
    arms). Under ``python -m repro E16 --invariants`` every conservation
    law is audited on both arms through the whole campaign.
    """
    town = RuralTown(radius_m=radius_m, n_ues=n_ues, n_aps=n_aps, seed=seed)

    dlte_net = DLTENetwork.build(town, seed=seed)
    if scenario:
        prepare_scenario(scenario, dlte_net)
    dlte = _ResilienceArm("dLTE (federated)", dlte_net)
    _settle_dlte(dlte_net, heartbeat_s)

    cent_net = CentralizedLTENetwork.build(town, seed=seed)
    if scenario:
        prepare_scenario(scenario, cent_net)
    cent = _ResilienceArm("Centralized LTE", cent_net)
    _settle_centralized(cent_net)

    t0 = {"dlte": dlte.sim.now, "cent": cent.sim.now}
    if scenario:
        # the same named storm on both clocks (see faults/scenarios.py)
        plan_d = compose_scenario(scenario, dlte_net, dlte.injector,
                                  t0["dlte"] + fail_at_s)
        plan_c = compose_scenario(scenario, cent_net, cent.injector,
                                  t0["cent"] + fail_at_s)
        restore_at_by_arm = {id(dlte): plan_d.end_s, id(cent): plan_c.end_s}
        surviving_by_arm = {
            id(dlte): _dlte_surviving_frac(dlte_net, plan_d.victims),
            id(cent): 0.0 if plan_c.faults else 1.0,
        }
    else:
        # default shape: one site dark for outage_s — dLTE loses its
        # busiest AP, centralized loses the EPC site.
        crash_ap = _busiest_ap(dlte_net)
        surviving_frac = _dlte_surviving_frac(dlte_net, (crash_ap,))
        dlte.injector.outage(
            lambda: dlte_net.crash_ap(crash_ap),
            lambda: dlte_net.restart_ap(crash_ap),
            at_s=t0["dlte"] + fail_at_s, duration_s=outage_s,
            name=f"power-fail:{crash_ap}")
        cent.injector.outage(
            cent_net.fail_epc, cent_net.restore_epc,
            at_s=t0["cent"] + fail_at_s, duration_s=outage_s,
            name="power-fail:epc-site")
        restore_at_by_arm = {
            id(dlte): t0["dlte"] + fail_at_s + outage_s,
            id(cent): t0["cent"] + fail_at_s + outage_s,
        }
        surviving_by_arm = {id(dlte): surviving_frac, id(cent): 0.0}

    storm = (f"chaos scenario {scenario!r}" if scenario
             else "one site outage")
    timeline = ResultTable(
        f"E16: reachability over time under {storm}",
        ["time_s", "arm", "reachable_frac"])
    n_probes = int(horizon_s / probe_interval_s)
    for _ in range(n_probes):
        for arm, start in ((dlte, t0["dlte"]), (cent, t0["cent"])):
            frac = arm.probe_round(probe_interval_s)
            timeline.add_row(time_s=arm.timeline[-1][0] - start,
                             arm=arm.name, reachable_frac=frac)

    summary = ResultTable(
        "E16: resilience summary — failure domains, not failure rates",
        ["arm", "min_reach_frac", "surviving_frac", "time_to_recover_s",
         "probes_sent", "probes_lost", "stuck_ues"])
    for arm, start in ((dlte, t0["dlte"]), (cent, t0["cent"])):
        restore_at = restore_at_by_arm[id(arm)]
        baseline = arm.timeline[0][1]
        during = [f for t, f in arm.timeline
                  if start + fail_at_s <= t < restore_at]
        recovered_at = arm.reach_at_or_after(restore_at, baseline)
        recover_s = (recovered_at - restore_at if recovered_at is not None
                     else math.inf)
        stuck = sum(1 for ue in arm.net.ues.values()
                    if ue.state is not UeState.ATTACHED)
        summary.add_row(arm=arm.name,
                        min_reach_frac=min(during) if during else 1.0,
                        surviving_frac=surviving_by_arm[id(arm)],
                        time_to_recover_s=recover_s,
                        probes_sent=arm.probes_sent,
                        probes_lost=arm.probes_lost,
                        stuck_ues=stuck)
    return timeline, summary
