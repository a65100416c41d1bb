"""QUIC: the transport that makes dLTE's endpoint mobility workable.

Three properties, per §4.2 and RFC 9000/9001 behaviour:

1. Fresh setup costs 1 RTT (transport and crypto handshakes combined);
   resumption to a known server costs **0 RTTs** — application data rides
   the first flight.
2. The connection is named by its connection ID, not the 4-tuple: after
   an address change the client keeps sending, the server re-points its
   peer address at the first arriving packet, and data continues.
3. On migration the congestion controller resets to the initial window
   (the new path's capacity is unknown), but nothing re-handshakes.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.net.addressing import IPv4Address
from repro.net.packet import Packet
from repro.transport.base import (
    ConnectionState,
    INITIAL_CWND,
    INITIAL_SSTHRESH,
    Listener,
    TransportConnection,
    TransportDemux,
)


class QuicConnection(TransportConnection):
    """One side of a QUIC connection."""

    __slots__ = ("reset_cwnd_on_migration", "migrations", "used_0rtt")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: strict RFC 9000 §9.4 behaviour (full congestion reset per
        #: migration); off by default for dLTE's adjacent-AP handovers.
        self.reset_cwnd_on_migration = False
        self.migrations = 0
        self.used_0rtt = False

    # -- resumption ticket cache (per client host) --------------------------------

    def _ticket_cache(self) -> Set[IPv4Address]:
        # Tickets live on the host object so they are scoped to one
        # simulation (a class-level cache would leak across runs).
        cache = getattr(self.host, "_quic_tickets", None)
        if cache is None:
            cache = set()
            self.host._quic_tickets = cache
        return cache

    def has_ticket(self) -> bool:
        """True when a prior session with this server enables 0-RTT."""
        return self.peer_addr in self._ticket_cache()

    # -- handshake ------------------------------------------------------------------

    def connect(self) -> None:
        if self.state is not ConnectionState.IDLE:
            raise RuntimeError(f"connect() on {self.state.value} connection")
        self.state = ConnectionState.CONNECTING
        if self.has_ticket():
            # 0-RTT: established immediately; data may ride the first flight.
            self.used_0rtt = True
            self._emit({"kind": "0rtt"})
            self._become_established()
        else:
            self._emit({"kind": "syn"})  # Initial packet

    def accept(self, packet: Packet) -> None:
        header = packet.payload or {}
        self.state = ConnectionState.CONNECTING
        if header.get("kind") == "0rtt":
            self._become_established()
        else:
            self._emit({"kind": "synack"})  # Handshake flight
            self._become_established()

    def _on_synack(self, packet: Packet, header: Dict) -> None:
        if self.state is not ConnectionState.CONNECTING:
            return
        self._ticket_cache().add(self.peer_addr)
        self._become_established()

    # -- connection-ID addressing ---------------------------------------------------

    def _note_peer_packet(self, packet: Packet) -> None:
        """Authenticated packet with our connection ID: adopt its source.

        This is QUIC's passive migration path — the server side learns
        the client's new address simply by receiving from it.
        """
        if packet.src is not None and packet.src != self.peer_addr:
            self.peer_addr = packet.src

    def on_local_address_change(self, new_addr: IPv4Address) -> None:
        """Keep the connection; reset congestion state for the new path."""
        if self.state not in (ConnectionState.ESTABLISHED,
                              ConnectionState.CONNECTING):
            return
        self.migrations += 1
        self.sim.trace("transport", f"{self.conn_id}: migrating",
                       new_addr=str(new_addr), inflight=self.inflight)
        # Congestion state: RFC 9000 §9.4 says reset for a new path, but
        # permits keeping it when the new path shares the old one's
        # bottleneck. A dLTE handover moves one AP over on the same
        # rural backhaul class, so we keep the state and let the loss
        # signals (dupacks from a blackout burst, or nothing at all for
        # make-before-break) adjust it — see reset_cwnd_on_migration.
        if self.reset_cwnd_on_migration:
            self.cwnd = float(INITIAL_CWND)
            self.ssthresh = float(INITIAL_SSTHRESH)
        self._rto_backoff = 1.0
        if self.state is ConnectionState.ESTABLISHED:
            # Probe/resume immediately from the new address: retransmit the
            # oldest unacked segment (doubles as a PATH_CHALLENGE carrier)
            # or ping if idle, so the peer learns the new address now.
            # Whether the rest of the window survived depends on the
            # handover style: after a make-before-break the old path's
            # acks are still in flight and will catch up within an RTT;
            # after a blackout they never come. So probe now (teaching
            # the peer the new address), then decide after ~1.5 RTT: if
            # the ack clock has not caught up to the migration-time
            # window, declare it lost and burst-recover.
            if self.inflight > 0:
                self._retransmit(self.snd_una)
                self._arm_rto()
                snapshot = self.snd_nxt
                grace = 1.5 * (self.srtt_s or 0.1)
                self.sim.schedule(grace, self._judge_migration, snapshot)
            else:
                self._emit({"kind": "ping"})
            self._pump()

    def _judge_migration(self, snapshot: int) -> None:
        """Post-migration verdict: did the old window survive the switch?"""
        if self.state is not ConnectionState.ESTABLISHED:
            return
        if self.snd_una >= snapshot:
            return  # everything caught up: make-before-break, no loss
        self._recovery_point = snapshot
        self._burst_recovery = True
        self._retx_done = {self.snd_una}
        self._retransmit(self.snd_una)
        self._arm_rto()

    def _on_ping(self, packet: Packet, header: Dict) -> None:
        if self.state is ConnectionState.ESTABLISHED:
            self._note_peer_packet(packet)
            self._emit({"kind": "ack", "ack": self.rcv_nxt})


class QuicListener(Listener):
    """Accepts QUIC connections (fresh or 0-RTT) on a server host."""

    def __init__(self, sim, demux: TransportDemux, ecn: bool = False) -> None:
        def factory(**kwargs):
            return QuicConnection(ecn=ecn, **kwargs)
        super().__init__(sim, demux, factory)
