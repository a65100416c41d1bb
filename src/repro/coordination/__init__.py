"""Peer-to-peer coordination between dLTE access points (§4.3).

"dLTE access points establish connections with their neighboring APs via
a standardized protocol over the Internet backhaul. AP owners can elect
to either run their access points in a default fair sharing mode, or
fuse resources with their neighbors in a cooperative mode."

* :mod:`x2` — the X2-AP message vocabulary plus the paper's dLTE
  extensions (operating mode, peer status), running over Internet-latency
  channels with byte accounting (E9 sizes X2 from its message sizes).
* :mod:`fair_sharing` — the default mode: a distributed protocol that
  converges on a fair time-frequency split of the shared grid.
* :mod:`cooperative` — the opt-in mode: best-AP client assignment,
  demand-weighted resource fusion, QoS-aware joint scheduling, and
  coordinated handoff.
* :mod:`icic` — classic frequency-reuse partitions, used as a
  coordination-quality reference.
* :mod:`mesh` — §7's future-work extension: multi-hop backhaul sharing
  between neighbouring APs for redundancy and aggregation (E11).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "x2": (
        "DlteModeInfo", "HandoverRequest", "HandoverRequestAck",
        "LoadInformation", "PrbClaim", "X2Endpoint"),
    "fair_sharing": ("FairSharingCoordinator",),
    "cooperative": ("CooperativeCluster",),
    "icic": ("reuse_partition",),
    "mesh": ("BackhaulMesh",),
    "peer_monitor": ("PeerMonitor",),
})
