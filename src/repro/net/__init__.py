"""IP substrate: addresses, packets, links, routers, tunnels, Internet.

The paper's Figure 1 contrast is a *path* contrast: in carrier LTE every
user packet is GTP-tunneled from the eNodeB to a distant EPC before it
reaches the Internet; in dLTE the AP decapsulates locally and forwards
plain IP ("dLTE terminates all LTE tunnels at the AP and outputs the
client's unencapsulated IP traffic", §4.1). This package provides the
pieces both paths are made of: rate/delay links with drop-tail queues,
static-routing nodes, GTP-U encapsulation, and a latency-modelled
Internet core.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "addressing": ("AddressPool", "IPv4Address"),
    "internet": ("InternetCore",),
    "links": ("Link",),
    "nat": ("NatRouter",),
    "nodes": ("Host", "NetworkNode", "Router"),
    "packet": ("Packet",),
    "tunnel": ("GTP_HEADER_BYTES", "GtpTunnel", "TunnelEndpoint"),
})
