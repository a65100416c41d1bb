"""TCP+TLS: the legacy transport that breaks under dLTE mobility.

The model captures the three properties E6 depends on:

1. Connection setup costs 2 RTTs before application data (SYN/SYN-ACK,
   then the TLS 1.3 flight).
2. The connection is named by its 4-tuple: when the client's address
   changes, segments from the new address no longer match, the server
   stays silent, and the client only learns via RTO expiry.
3. Recovery is a *new* connection: full handshake plus slow-start from
   the initial window.
"""

from __future__ import annotations

from typing import Dict

from repro.net.addressing import IPv4Address
from repro.net.packet import Packet
from repro.transport.base import (
    ConnectionState,
    HEADER_BYTES,
    Listener,
    TransportConnection,
    TransportDemux,
)


class TcpConnection(TransportConnection):
    """One side of a TCP(+TLS 1.3) connection."""

    __slots__ = ("tls", "local_addr_at_setup", "_address_changed",
                 "_rtos_since_change")

    #: RTO expiries on a migrated path before declaring the connection dead.
    BROKEN_AFTER_RTOS = 1

    def __init__(self, *args, tls: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.tls = tls
        self.local_addr_at_setup = self.host.address
        self._address_changed = False
        self._rtos_since_change = 0

    # -- handshake -------------------------------------------------------------

    def connect(self) -> None:
        if self.state is not ConnectionState.IDLE:
            raise RuntimeError(f"connect() on {self.state.value} connection")
        self.state = ConnectionState.CONNECTING
        self.local_addr_at_setup = self.host.address
        self._emit({"kind": "syn"})

    def accept(self, packet: Packet) -> None:
        self.state = ConnectionState.CONNECTING
        self.local_addr_at_setup = self.host.address
        self._emit({"kind": "synack"})

    def _on_synack(self, packet: Packet, header: Dict) -> None:
        if self.state is not ConnectionState.CONNECTING:
            return
        if self.tls:
            self._emit({"kind": "tls_hello", "size_hint": 300}, size=300)
        else:
            self._emit({"kind": "hs_done"})
            self._become_established()

    def _on_tls_hello(self, packet: Packet, header: Dict) -> None:
        # server: TLS ServerHello..Finished flight, then established
        self._emit({"kind": "tls_fin"}, size=2000 + HEADER_BYTES)
        self._become_established()

    def _on_tls_fin(self, packet: Packet, header: Dict) -> None:
        # client: handshake complete
        if self.state is ConnectionState.CONNECTING:
            self._become_established()

    def _on_hs_done(self, packet: Packet, header: Dict) -> None:
        if self.state is ConnectionState.CONNECTING:
            self._become_established()

    # -- the 4-tuple check -------------------------------------------------------

    def on_segment(self, packet: Packet) -> None:
        # A TCP endpoint ignores segments whose source is not the
        # established peer — this is what kills migrated connections.
        kind = (packet.payload or {}).get("kind")
        if (self.peer_addr is not None and packet.src != self.peer_addr
                and kind not in ("syn",)):
            return
        super().on_segment(packet)

    def on_local_address_change(self, new_addr: IPv4Address) -> None:
        """The 4-tuple is gone; the connection will die at the next RTO.

        Nothing proactive happens — that is the point. The peer's acks go
        to the old address; our segments leave from the new source and
        are discarded by the peer's 4-tuple check.
        """
        if self.state in (ConnectionState.ESTABLISHED, ConnectionState.CONNECTING):
            self._address_changed = True
            self._rtos_since_change = 0

    def _on_persistent_loss(self) -> None:
        if self._address_changed:
            self._rtos_since_change += 1
            if self._rtos_since_change >= self.BROKEN_AFTER_RTOS:
                self._become_broken()


class TcpListener(Listener):
    """Accepts TCP connections on a server host."""

    def __init__(self, sim, demux: TransportDemux, tls: bool = True,
                 ecn: bool = False) -> None:
        def factory(**kwargs):
            return TcpConnection(tls=tls, ecn=ecn, **kwargs)
        super().__init__(sim, demux, factory)
