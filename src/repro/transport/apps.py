"""Applications over the transport layer.

:class:`BulkTransferApp` is a long download/upload (the "video stream"
that crosses handovers in E6). It owns reconnection policy: when a TCP
connection breaks it opens a fresh one and resumes at the acked byte
offset (HTTP range semantics), paying handshake plus slow-start; a QUIC
connection never breaks, so the app never intervenes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, Type

from repro.net.addressing import IPv4Address
from repro.simcore.simulator import Simulator
from repro.transport.base import ConnectionState, TransportConnection, TransportDemux


class BulkTransferApp:
    """Transfers ``total_bytes`` from this endpoint to a server.

    Records a time series of (time, cumulative acked bytes) and computes
    stall intervals, so E6 can report interruption time per handover.
    """

    def __init__(self, sim: Simulator, demux: TransportDemux,
                 server_addr: IPv4Address,
                 connection_cls: Type[TransportConnection],
                 total_bytes: int, **conn_kwargs) -> None:
        if total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        self.sim = sim
        self.demux = demux
        self.server_addr = server_addr
        self.connection_cls = connection_cls
        self.conn_kwargs = conn_kwargs
        self.total_bytes = total_bytes
        self.conn: Optional[TransportConnection] = None
        self.reconnects = 0
        self.progress: List[Tuple[float, int]] = []   # (time, bytes acked)
        self.done_at: Optional[float] = None
        self.on_done: Optional[Callable[[], None]] = None
        self._sent = 0
        self._completed_bytes = 0  # acked bytes banked from dead connections

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Open the first connection and begin pushing data."""
        self._open_connection()

    def _open_connection(self) -> None:
        conn = self.connection_cls(sim=self.sim, demux=self.demux,
                                   peer_addr=self.server_addr,
                                   **self.conn_kwargs)
        conn.on_established = self._on_established
        conn.on_broken = self._on_broken
        self.conn = conn
        conn.connect()

    def _on_established(self) -> None:
        remaining = self.total_bytes - self._acked_total()
        if remaining > 0:
            self.conn.send_app_data(remaining)
            self._sent = remaining
        self._watch()

    def _acked_total(self) -> int:
        """Bytes durably delivered across all connections so far."""
        live = self.conn.bytes_acked if self.conn else 0
        return self._completed_bytes + live

    def _on_broken(self) -> None:
        """TCP path death: bank the progress, reconnect, resume."""
        self._completed_bytes += self.conn.bytes_acked
        self.conn.close()
        self.reconnects += 1
        if self._completed_bytes < self.total_bytes:
            self._open_connection()

    def _watch(self) -> None:
        """Poll acked progress every 10 ms into the time series."""
        if self.done_at is not None:
            return
        total = self._acked_total()
        if not self.progress or self.progress[-1][1] != total:
            self.progress.append((self.sim.now, total))
        if total >= self.total_bytes:
            self.done_at = self.sim.now
            if self.on_done is not None:
                self.on_done()
            return
        if self.conn and self.conn.state in (ConnectionState.ESTABLISHED,
                                             ConnectionState.CONNECTING):
            self.sim.schedule(0.010, self._watch)

    # -- mobility hook -----------------------------------------------------------

    def on_address_change(self, new_addr: IPv4Address) -> None:
        """Propagate a handover's address change into the live connection."""
        if self.conn is not None and self.conn.state not in (
                ConnectionState.CLOSED,):
            self.conn.on_local_address_change(new_addr)

    # -- analysis ------------------------------------------------------------------

    def stall_intervals(self, min_gap_s: float = 0.1) -> List[Tuple[float, float]]:
        """Intervals longer than ``min_gap_s`` with no delivery progress."""
        gaps = []
        for (t0, _b0), (t1, _b1) in zip(self.progress, self.progress[1:]):
            if t1 - t0 > min_gap_s:
                gaps.append((t0, t1))
        return gaps
