"""E11 — §7 future work: multi-hop backhaul sharing between APs.

"Such networks could provide redundancy for users in emergencies when
the backhaul link goes down, and bring LTE's scheduling primitives …
to bear on mesh designs."

A string/ring of AP sites, some with their own uplink. We fail uplinks
progressively and measure, with and without mesh radio links between
neighbouring APs: the fraction of sites still reaching the Internet and
the surviving aggregate capacity.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.coordination.mesh import BackhaulMesh, mesh_link_rate_bps
from repro.metrics.tables import ResultTable


def build_corridor_mesh(n_aps: int = 6, spacing_m: float = 3000.0,
                        gateways: Optional[List[int]] = None,
                        with_mesh_links: bool = True) -> BackhaulMesh:
    """A line of APs; ``gateways`` indexes own an uplink (default: ends)."""
    mesh = BackhaulMesh()
    gateway_set = set(gateways if gateways is not None else [0, n_aps - 1])
    for i in range(n_aps):
        mesh.add_ap(f"ap{i}", backhaul_bps=20e6 if i in gateway_set else 0.0)
    if with_mesh_links:
        rate = mesh_link_rate_bps(spacing_m)
        for i in range(n_aps - 1):
            mesh.connect(f"ap{i}", f"ap{i+1}", radio_bps=rate)
    return mesh


def run(n_aps: int = 6, spacing_m: float = 3000.0) -> ResultTable:
    """Reachability and capacity vs failed uplinks, mesh on/off.

    Both arms give every AP its own uplink; uplinks fail from the front
    of the corridor. The meshed arm routes around failures; the isolated
    (no-mesh) arm simply loses those sites.
    """
    table = ResultTable(
        f"E11: backhaul failures over a {n_aps}-AP corridor",
        ["failed_uplinks", "meshed_reachable_pct", "meshed_capacity_mbps",
         "isolated_reachable_pct", "isolated_capacity_mbps"])
    for n_failed in range(0, n_aps):
        meshed = build_corridor_mesh(n_aps, spacing_m,
                                     gateways=list(range(n_aps)),
                                     with_mesh_links=True)
        isolated = build_corridor_mesh(n_aps, spacing_m,
                                       gateways=list(range(n_aps)),
                                       with_mesh_links=False)
        for k in range(n_failed):
            meshed.fail_backhaul(f"ap{k}")
            isolated.fail_backhaul(f"ap{k}")
        table.add_row(
            failed_uplinks=n_failed,
            meshed_reachable_pct=100.0 * meshed.reachable_fraction(),
            meshed_capacity_mbps=meshed.total_capacity_bps() / 1e6,
            isolated_reachable_pct=100.0 * isolated.reachable_fraction(),
            isolated_capacity_mbps=isolated.total_capacity_bps() / 1e6)
    return table


def aggregation_gain(n_aps: int = 4, spacing_m: float = 3000.0
                     ) -> Tuple[float, float]:
    """(single-uplink capacity, meshed aggregate) for bandwidth sharing.

    The §7 aggregation idea: a meshed AP can use *all* reachable
    gateways' uplinks, not just its own.
    """
    mesh = build_corridor_mesh(n_aps, spacing_m,
                               gateways=list(range(n_aps)))
    single = mesh.backhaul_bps("ap0")
    return single, mesh.total_capacity_bps()
