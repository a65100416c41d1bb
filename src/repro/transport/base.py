"""Shared transport machinery: demux, segments, reliability, congestion.

Both transport families share a sender (sequence space, cumulative acks,
Reno congestion control, RTO with exponential backoff, fast retransmit)
and a receiver (reorder buffer, cumulative acking). Subclasses define the
handshake and what happens when the local address changes — which is the
entire TCP-vs-QUIC contrast the paper leans on.

Segments ride the simulated network as :class:`repro.net.Packet` objects;
``flow_id`` carries the connection id and ``payload`` the segment header.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Dict, Optional

from repro.net.addressing import IPv4Address
from repro.net.nodes import Host
from repro.net.packet import ECN_CE, ECN_ECT, Packet
from repro.simcore.simulator import ScheduledCall, Simulator

#: Maximum segment size (application bytes per data segment).
MSS_BYTES = 1200
#: Transport+IP header overhead charged per segment.
HEADER_BYTES = 40
#: Initial congestion window, segments (RFC 6928).
INITIAL_CWND = 10
#: Initial slow-start threshold, segments.
INITIAL_SSTHRESH = 64
#: RTO bounds, seconds.
MIN_RTO_S = 0.2
MAX_RTO_S = 30.0

_conn_ids = itertools.count(1)


class ConnectionState(enum.Enum):
    """Lifecycle of a transport connection."""

    IDLE = "idle"
    CONNECTING = "connecting"
    ESTABLISHED = "established"
    BROKEN = "broken"          # 4-tuple invalidated (TCP after migration)
    CLOSED = "closed"


class TransportDemux:
    """Routes a host's inbound packets to transport endpoints by flow id.

    One demux per host; endpoints register themselves. Unmatched flows go
    to an optional listener (server accept path).
    """

    def __init__(self, host: Host) -> None:
        self.host = host
        self._endpoints: Dict[str, "TransportConnection"] = {}
        self.listener: Optional["Listener"] = None
        host.on_packet = self.dispatch

    def register(self, conn_id: str, endpoint: "TransportConnection") -> None:
        """Bind ``conn_id`` to ``endpoint`` (replacing any prior binding)."""
        self._endpoints[conn_id] = endpoint

    def unregister(self, conn_id: str) -> None:
        """Remove a binding if present."""
        self._endpoints.pop(conn_id, None)

    def dispatch(self, packet: Packet) -> None:
        """Deliver to the owning endpoint, else offer to the listener."""
        endpoint = self._endpoints.get(packet.flow_id)
        if endpoint is not None:
            endpoint.on_segment(packet)
        elif self.listener is not None:
            self.listener.on_unmatched(packet)


class Listener:
    """Server-side accept loop: spawns an endpoint per new connection."""

    def __init__(self, sim: Simulator, demux: TransportDemux,
                 connection_factory: Callable[..., "TransportConnection"]) -> None:
        self.sim = sim
        self.demux = demux
        self.connection_factory = connection_factory
        self.accepted: Dict[str, TransportConnection] = {}
        self.on_accept: Optional[Callable[["TransportConnection"], None]] = None
        demux.listener = self

    def on_unmatched(self, packet: Packet) -> None:
        kind = (packet.payload or {}).get("kind")
        if kind not in ("syn", "0rtt"):
            return  # stray segment for a dead connection; ignore (RST-less)
        conn = self.connection_factory(
            sim=self.sim, demux=self.demux, conn_id=packet.flow_id,
            peer_addr=packet.src, is_server=True)
        self.accepted[packet.flow_id] = conn
        conn.accept(packet)
        if self.on_accept is not None:
            self.on_accept(conn)


class TransportConnection:
    """One endpoint of a reliable, congestion-controlled connection.

    Subclass contract: implement :meth:`connect` (client handshake),
    :meth:`accept` (server handshake reaction), and
    :meth:`on_local_address_change`.

    ECN (``ecn=True``, default off): the sender marks its data segments
    ECT; when an AQM under congestion rewrites one to CE, the receiver
    echoes ``ece`` on its next cumulative ack and the sender halves
    ``cwnd`` — once per window, like a fast retransmit without the
    retransmission (RFC 3168, simplified). The receive side echoes CE
    unconditionally (echoing requires having *seen* a mark, which
    requires the peer opted in), so only the sending side needs the
    flag set; with it off the whole path costs one boolean check.
    """

    #: RTT multiples for the retransmission timer.
    RTO_FACTOR = 2.0

    def __init__(self, sim: Simulator, demux: TransportDemux,
                 conn_id: Optional[str] = None,
                 peer_addr: Optional[IPv4Address] = None,
                 is_server: bool = False, ecn: bool = False) -> None:
        self.sim = sim
        self.demux = demux
        self.host = demux.host
        self.conn_id = conn_id or f"conn-{next(_conn_ids)}"
        self.peer_addr = peer_addr
        self.is_server = is_server
        self.ecn = ecn
        self.state = ConnectionState.IDLE
        demux.register(self.conn_id, self)

        # send side
        self.snd_nxt = 0              # next new segment seq
        self.snd_una = 0              # oldest unacked seq
        self.cwnd = float(INITIAL_CWND)
        self.ssthresh = float(INITIAL_SSTHRESH)
        self._send_queue_bytes = 0
        self._sent_sizes: Dict[int, int] = {}   # seq -> app bytes
        self._sent_times: Dict[int, float] = {}
        self._dupacks = 0
        # RTO timer, lazily re-armed: ``_rto_deadline`` is the time the
        # RTO should actually fire; ``_rto_timer`` is a probe event that
        # chases the deadline. Acks only move the deadline (a float
        # store) instead of cancelling and re-pushing a heap entry per
        # ack, so steady-state transfer leaves no timer garbage in the
        # run queue (see Simulator heap hygiene / PERFORMANCE.md).
        self._rto_timer: Optional[ScheduledCall] = None
        self._rto_deadline: Optional[float] = None
        self._rto_backoff = 1.0
        # NewReno-style recovery: below _recovery_point, partial acks
        # drive retransmissions. Two regimes: _burst_recovery=True (after
        # an RTO or a path migration, where the whole window is suspect)
        # refills the window go-back-N style; False (after a fast
        # retransmit, i.e. an isolated queue drop) resends exactly the
        # next hole per partial ack, classic NewReno. _retx_done makes
        # each hole resend at most once per recovery epoch.
        self._recovery_point = 0
        self._burst_recovery = False
        self._retx_done: set = set()
        #: cwnd cut point for ECE: acks below this belong to a window
        #: that already reacted, so at most one halving per RTT
        self._ece_cut = 0

        # receive side
        self.rcv_nxt = 0
        self._reorder: Dict[int, int] = {}      # seq -> app bytes
        #: a CE mark arrived and has not been echoed yet
        self._ece_pending = False

        # RTT estimation
        self.srtt_s: Optional[float] = None

        # app hooks and accounting
        self.on_receive: Optional[Callable[[int], None]] = None   # app bytes
        self.on_established: Optional[Callable[[], None]] = None
        self.on_broken: Optional[Callable[[], None]] = None
        self.bytes_delivered = 0      # receiver side, in-order app bytes
        self.bytes_acked = 0          # sender side
        self.retransmissions = 0
        self.segments_lost_no_link = 0
        self.ce_received = 0          # receiver side, CE-marked segments
        self.ecn_responses = 0        # sender side, cwnd cuts from ECE
        self.established_at: Optional[float] = None

    # -- subclass API --------------------------------------------------------

    def connect(self) -> None:
        """Client: begin the handshake toward ``peer_addr``."""
        raise NotImplementedError

    def accept(self, packet: Packet) -> None:
        """Server: react to the first segment of a new connection."""
        raise NotImplementedError

    def on_local_address_change(self, new_addr: IPv4Address) -> None:
        """The host's address changed (handover). Family-specific."""
        raise NotImplementedError

    # -- app send path ---------------------------------------------------------

    def send_app_data(self, n_bytes: int) -> None:
        """Queue application bytes for transmission."""
        if n_bytes <= 0:
            raise ValueError("must send a positive number of bytes")
        if self.state in (ConnectionState.CLOSED, ConnectionState.BROKEN):
            raise RuntimeError(f"cannot send on {self.state.value} connection")
        self._send_queue_bytes += n_bytes
        if self.state is ConnectionState.ESTABLISHED:
            self._pump()

    @property
    def unsent_bytes(self) -> int:
        """Application bytes queued but not yet segmented."""
        return self._send_queue_bytes

    @property
    def inflight(self) -> int:
        """Segments sent and not yet cumulatively acked."""
        return self.snd_nxt - self.snd_una

    def _pump(self) -> None:
        """Send new segments while the window and queue allow."""
        while self._send_queue_bytes > 0 and self.inflight < int(self.cwnd):
            chunk = min(self._send_queue_bytes, MSS_BYTES)
            seq = self.snd_nxt
            self.snd_nxt += 1
            self._send_queue_bytes -= chunk
            self._sent_sizes[seq] = chunk
            self._sent_times[seq] = self.sim.now
            self._emit({"kind": "data", "seq": seq}, size=chunk + HEADER_BYTES,
                       ect=True)
        self._arm_rto()

    # -- segment I/O --------------------------------------------------------------

    def _emit(self, header: Dict, size: int = HEADER_BYTES,
              ect: bool = False) -> None:
        if self.peer_addr is None:
            raise RuntimeError(f"{self.conn_id}: no peer address")
        packet = Packet(self.host.address, self.peer_addr, size,
                        flow_id=self.conn_id, payload=header,
                        created_at=self.sim.now)
        if ect and self.ecn:
            packet.ecn = ECN_ECT
        try:
            self.host.send(packet)
        except (KeyError, RuntimeError):
            # interface down (mid-handover radio blackout): the segment
            # is simply lost; the retransmission machinery recovers it.
            self.segments_lost_no_link += 1

    def on_segment(self, packet: Packet) -> None:
        """Demux entry point; dispatches on the segment kind."""
        header = packet.payload or {}
        kind = header.get("kind")
        handler = getattr(self, f"_on_{kind}", None)
        if handler is None:
            return
        handler(packet, header)

    # -- data / ack handling -----------------------------------------------------

    def _on_data(self, packet: Packet, header: Dict) -> None:
        if self.state is not ConnectionState.ESTABLISHED:
            return
        self._note_peer_packet(packet)
        if packet.ecn == ECN_CE:
            self.ce_received += 1
            self._ece_pending = True
        seq = header["seq"]
        app_bytes = max(packet.size_bytes - HEADER_BYTES, 0)
        if seq >= self.rcv_nxt and seq not in self._reorder:
            self._reorder[seq] = app_bytes
        delivered_now = 0
        while self.rcv_nxt in self._reorder:
            delivered_now += self._reorder.pop(self.rcv_nxt)
            self.rcv_nxt += 1
        if delivered_now:
            self.bytes_delivered += delivered_now
            if self.on_receive is not None:
                self.on_receive(delivered_now)
        if self._ece_pending:
            self._ece_pending = False
            self._emit({"kind": "ack", "ack": self.rcv_nxt, "ece": True})
        else:
            self._emit({"kind": "ack", "ack": self.rcv_nxt})

    def _on_ack(self, packet: Packet, header: Dict) -> None:
        if self.state is not ConnectionState.ESTABLISHED:
            return
        self._note_peer_packet(packet)
        if self.ecn and "ece" in header:
            self._on_ece()
        ack = header["ack"]
        if ack > self.snd_una:
            newly = range(self.snd_una, ack)
            for seq in newly:
                self.bytes_acked += self._sent_sizes.pop(seq, 0)
                sent_at = self._sent_times.pop(seq, None)
                if sent_at is not None:
                    self._update_rtt(self.sim.now - sent_at)
            n_acked = ack - self.snd_una
            self.snd_una = ack
            self._dupacks = 0
            self._rto_backoff = 1.0
            self._grow_cwnd(n_acked)
            if self.snd_una < self._recovery_point:
                if self._burst_recovery:
                    # the whole window was lost (blackout/RTO): refill
                    # go-back-N style, paced by the window, once each
                    budget = max(int(self.cwnd), 1)
                    end = min(self.snd_una + budget, self._recovery_point)
                    candidates = range(self.snd_una, end)
                else:
                    # isolated drop: resend exactly the next hole
                    candidates = range(self.snd_una, self.snd_una + 1)
                for seq in candidates:
                    if seq not in self._retx_done:
                        self._retx_done.add(seq)
                        self._retransmit(seq)
            else:
                self._retx_done.clear()
                self._burst_recovery = False
            self._arm_rto()
            self._pump()
        elif ack == self.snd_una and self.inflight > 0:
            if self.snd_una < self._recovery_point:
                return  # go-back-N in progress: dupacks are expected
            self._dupacks += 1
            if self._dupacks == 3:
                self._fast_retransmit()

    def _note_peer_packet(self, packet: Packet) -> None:
        """Hook: QUIC updates the peer address from authenticated packets."""

    def _on_ece(self) -> None:
        """React to an echoed congestion mark: halve once per window.

        Same multiplicative decrease as a fast retransmit, but nothing
        was lost so nothing is resent — this is the whole point of ECN
        under sustained overload (E18): congestion feedback without the
        retransmission storms that collapse drop-tail goodput.
        """
        if self.snd_una < self._ece_cut:
            return  # this window already reacted
        self._ece_cut = self.snd_nxt
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.ssthresh
        self.ecn_responses += 1

    def _grow_cwnd(self, n_acked: int) -> None:
        for _ in range(n_acked):
            if self.cwnd < self.ssthresh:
                self.cwnd += 1.0               # slow start
            else:
                self.cwnd += 1.0 / self.cwnd   # congestion avoidance

    def _update_rtt(self, sample_s: float) -> None:
        if self.srtt_s is None:
            self.srtt_s = sample_s
        else:
            self.srtt_s = 0.875 * self.srtt_s + 0.125 * sample_s

    # -- loss recovery -------------------------------------------------------------

    @property
    def rto_s(self) -> float:
        """Current retransmission timeout with backoff applied."""
        base = (self.RTO_FACTOR * self.srtt_s) if self.srtt_s else 1.0
        return min(max(base, MIN_RTO_S) * self._rto_backoff, MAX_RTO_S)

    def _arm_rto(self) -> None:
        if self.inflight == 0 or self.state is not ConnectionState.ESTABLISHED:
            self._rto_deadline = None
            return
        deadline = self.sim.now + self.rto_s
        self._rto_deadline = deadline
        timer = self._rto_timer
        if timer is None:
            self._rto_timer = self.sim.at(deadline, self._rto_probe)
        elif timer.time > deadline:
            # deadline moved *earlier* (backoff reset after recovery):
            # the pending probe would sleep past it — replace it
            timer.cancel()
            self._rto_timer = self.sim.at(deadline, self._rto_probe)
        # else: the probe fires at or before the deadline and chases it

    def _rto_probe(self) -> None:
        """Timer event: fire the RTO, chase a moved deadline, or die."""
        self._rto_timer = None
        deadline = self._rto_deadline
        if deadline is None:
            return
        if self.sim.now < deadline:
            self._rto_timer = self.sim.at(deadline, self._rto_probe)
            return
        self._on_rto()

    def _on_rto(self) -> None:
        self._rto_deadline = None
        if self.inflight == 0 or self.state is not ConnectionState.ESTABLISHED:
            return
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0
        self._rto_backoff = min(self._rto_backoff * 2.0, 64.0)
        self._recovery_point = self.snd_nxt
        self._burst_recovery = True
        # an RTO restarts recovery: earlier retransmissions may be gone too
        self._retx_done = {self.snd_una}
        self._retransmit(self.snd_una)
        self._arm_rto()
        self._on_persistent_loss()

    def _on_persistent_loss(self) -> None:
        """Hook: subclasses may give up (e.g. broken TCP path)."""

    def _fast_retransmit(self) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.ssthresh
        # NewReno: stay in recovery until everything outstanding at the
        # loss signal is repaired — each partial ack resends the next
        # hole (see _on_ack) instead of waiting out an RTO per hole.
        self._recovery_point = self.snd_nxt
        self._burst_recovery = False
        self._retx_done = {self.snd_una}
        self._retransmit(self.snd_una)

    def _retransmit(self, seq: int) -> None:
        size = self._sent_sizes.get(seq)
        if size is None:
            return
        self.retransmissions += 1
        self._sent_times[seq] = self.sim.now
        self._emit({"kind": "data", "seq": seq}, size=size + HEADER_BYTES,
                   ect=True)

    # -- lifecycle ---------------------------------------------------------------

    def _become_established(self) -> None:
        self.state = ConnectionState.ESTABLISHED
        self.established_at = self.sim.now
        if self.on_established is not None:
            self.on_established()
        self._pump()

    def _become_broken(self) -> None:
        if self.state is ConnectionState.BROKEN:
            return
        self.state = ConnectionState.BROKEN
        self._rto_deadline = None
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None
        if self.on_broken is not None:
            self.on_broken()

    def close(self) -> None:
        """Tear down and unregister the endpoint."""
        self.state = ConnectionState.CLOSED
        self._rto_deadline = None
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None
        self.demux.unregister(self.conn_id)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.conn_id} {self.state.value} "
                f"cwnd={self.cwnd:.1f} inflight={self.inflight}>")
