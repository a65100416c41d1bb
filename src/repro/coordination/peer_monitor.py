"""Peer liveness: the "dLTE peer status" X2 extension (§4.3).

An open federation has churn: an AP owner unplugs their box, a backhaul
dies, a site loses power. Nobody files a ticket — the *protocol* must
notice. Each AP heartbeats ``DlteModeInfo(peer_status="active")`` to its
peers; miss ``MISSED_LIMIT`` consecutive intervals and the peer is
declared dead, its X2 connection dropped, and the fair-sharing
coordinator re-announces — so the survivors reclaim the dead AP's
spectrum within a few heartbeat periods instead of leaving it fallow
forever.

Churn goes both ways: a dead peer may come *back* (power restored,
backhaul spliced). When a peer previously declared dead is heard from
again — it re-peered via discovery and announced — the monitor
*re-admits* it: the death record is cleared, ``peers_rejoined`` counts
it, and the optional ``on_peer_rejoined`` callback fires. Fair sharing
reconverges through the ordinary claim protocol, shrinking the
survivors' slices back to the equal split.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.coordination.fair_sharing import FairSharingCoordinator
from repro.coordination.x2 import DlteModeInfo, X2Endpoint, X2Message
from repro.simcore.simulator import Simulator


class PeerMonitor:
    """Heartbeats out, liveness timers in, reclamation on loss.

    Args:
        sim: event kernel.
        x2: this AP's X2 endpoint.
        coordinator: the fair-sharing instance to re-announce on churn.
        heartbeat_s: interval between outgoing heartbeats.
        missed_limit: consecutive missed intervals before declaring death.
        on_peer_lost: optional callback(peer_ap_id).
        on_peer_rejoined: optional callback(peer_ap_id) when a peer
            previously declared dead is heard from again.
    """

    MISSED_LIMIT = 3

    def __init__(self, sim: Simulator, x2: X2Endpoint,
                 coordinator: Optional[FairSharingCoordinator] = None,
                 heartbeat_s: float = 2.0,
                 missed_limit: int = MISSED_LIMIT,
                 on_peer_lost: Optional[Callable[[str], None]] = None,
                 on_peer_rejoined: Optional[Callable[[str], None]] = None
                 ) -> None:
        if heartbeat_s <= 0:
            raise ValueError("heartbeat interval must be positive")
        if missed_limit < 1:
            raise ValueError("missed limit must be at least 1")
        self.sim = sim
        self.x2 = x2
        self.coordinator = coordinator
        self.heartbeat_s = heartbeat_s
        self.missed_limit = missed_limit
        self.on_peer_lost = on_peer_lost
        self.on_peer_rejoined = on_peer_rejoined
        self._last_heard: Dict[str, float] = {}
        self._dead: set = set()
        self.peers_lost = 0
        self.peers_rejoined = 0
        self.heartbeats_sent = 0
        self._running = False
        self._generation = 0
        x2.add_handler(self._on_x2)
        x2.on_peer_connected.append(self._on_peer_connected)

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Begin heartbeating and watching (idempotent).

        (Re)starting grants every current peer a fresh liveness window —
        otherwise an AP restarting after an outage would instantly
        declare its (stale-timestamped) peers dead.
        """
        if self._running:
            return
        self._running = True
        self._generation += 1
        for peer in self.x2.peer_ids:
            self._last_heard[peer] = self.sim.now
        self.sim.process(self._run(self._generation))

    def stop(self) -> None:
        """Stop heartbeating (watching stops with it)."""
        self._running = False

    def _run(self, generation: int):
        # the generation guard retires this process if the monitor was
        # stopped and restarted while a heartbeat timeout was pending
        while self._running and generation == self._generation:
            self.x2.broadcast(DlteModeInfo(sender_ap=self.x2.ap_id,
                                           peer_status="active"))
            self.heartbeats_sent += 1
            yield self.sim.timeout(self.heartbeat_s)
            if self._running and generation == self._generation:
                self._check_liveness()

    # -- liveness accounting ------------------------------------------------------------

    def _on_x2(self, from_ap: str, message: X2Message) -> None:
        # any X2 traffic proves liveness, not just heartbeats
        if from_ap in self._dead:
            self._readmit(from_ap)
        self._last_heard[from_ap] = self.sim.now

    def _on_peer_connected(self, peer_ap_id: str) -> None:
        # a fresh (re)peering is itself a liveness signal: grant a new
        # window immediately, or a peer rejoining after an outage gets
        # judged by its stale pre-crash timestamp and is re-declared
        # dead before its first claim even arrives — severing the new
        # channel and wedging the federation in split-brain slices
        self._last_heard[peer_ap_id] = self.sim.now
        if peer_ap_id in self._dead:
            self._readmit(peer_ap_id)

    def _check_liveness(self) -> None:
        deadline = self.sim.now - self.missed_limit * self.heartbeat_s
        for peer in list(self.x2.peer_ids):
            heard = self._last_heard.get(peer)
            if heard is None:
                self._last_heard[peer] = self.sim.now
                continue
            if heard < deadline:
                self._declare_dead(peer)

    def _declare_dead(self, peer_ap_id: str) -> None:
        self.peers_lost += 1
        self._dead.add(peer_ap_id)
        self._last_heard.pop(peer_ap_id, None)
        self.x2.disconnect_peer(peer_ap_id)
        self.sim.trace("peer-monitor",
                       f"{self.x2.ap_id}: declared {peer_ap_id} dead")
        if self.coordinator is not None:
            # membership shrank: reconverge so the survivors split the
            # dead AP's spectrum among themselves
            self.coordinator.announce()
        if self.on_peer_lost is not None:
            self.on_peer_lost(peer_ap_id)

    def _readmit(self, peer_ap_id: str) -> None:
        """A dead peer is alive again (it re-peered and spoke): clear the
        death record so liveness tracking resumes from now."""
        self._dead.discard(peer_ap_id)
        self.peers_rejoined += 1
        self.sim.trace("peer-monitor",
                       f"{self.x2.ap_id}: re-admitted {peer_ap_id}")
        if self.on_peer_rejoined is not None:
            self.on_peer_rejoined(peer_ap_id)
