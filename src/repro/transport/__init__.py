"""Endpoint transport: TCP-like and QUIC-like connections over the substrate.

§4.2 of the paper stakes dLTE's mobility story on modern transports:
"current-generation transport protocols make this approach more feasible
than it was in the past, incorporating zero RTT secure flow resumption,
… and multiple IP address support for client managed handoff."

We implement both generations as event-level protocols over the simulated
IP network — real packets, acks, congestion windows, retransmission
timers — differing exactly where the paper says they differ:

* :class:`TcpConnection` — 2-RTT setup (TCP+TLS1.3 handshakes), cumulative
  acks, Reno congestion control, and **death on address change**: the
  4-tuple names the connection, so a dLTE re-attach forces RTO detection
  plus a full re-handshake and slow-start.
* :class:`QuicConnection` — 1-RTT fresh setup, **0-RTT resumption** to
  known servers, and **connection-ID addressing**: the connection survives
  an address change; only the congestion state resets (RFC 9000 behaviour).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": (
        "ConnectionState", "Listener", "TransportConnection",
        "TransportDemux"),
    "quic": ("QuicConnection", "QuicListener"),
    "tcp": ("TcpConnection", "TcpListener"),
    "apps": ("BulkTransferApp",),
})
