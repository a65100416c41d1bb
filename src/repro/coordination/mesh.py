"""Multi-hop backhaul sharing between neighbouring APs (§7 future work).

"We are planning to explore multi-hop approaches to sharing and
aggregating bandwidth between neighboring LTE APs. Such networks could
provide redundancy for users in emergencies when the backhaul link goes
down."

Model: APs are nodes; each may own a backhaul uplink of some capacity;
inter-AP radio links (capacity set by the link budget between sites)
form the mesh edges. When an AP's own backhaul dies, its traffic rides
the mesh to the nearest AP that still has one. E11 measures surviving
capacity and per-AP reachability under failure injection.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.geo.points import Point
from repro.phy.bands import get_band
from repro.phy.linkbudget import LinkBudget, Radio
from repro.phy.mcs import lte_efficiency_for_sinr
from repro.phy.propagation import model_for_frequency


def mesh_link_rate_bps(distance_m: float, band_name: str = "lte5") -> float:
    """Point-to-point AP-to-AP radio rate at a separation.

    Both ends are elevated, high-gain fixed radios, so mesh links are
    far better than AP-to-handset links at the same distance.
    """
    band = get_band(band_name)
    budget = LinkBudget(model_for_frequency(band.dl_mhz), band.dl_mhz,
                        band.bandwidth_hz)
    a = Radio(Point(0, 0), tx_power_dbm=43, antenna_gain_dbi=18,
              height_m=30.0, noise_figure_db=5.0)
    b = Radio(Point(distance_m, 0), tx_power_dbm=43, antenna_gain_dbi=18,
              height_m=30.0, noise_figure_db=5.0)
    snr = budget.snr_db(a, b)
    return lte_efficiency_for_sinr(snr) * band.bandwidth_hz


class BackhaulMesh:
    """An AP mesh with per-node backhaul and per-edge radio capacity."""

    def __init__(self) -> None:
        # ap -> {neighbour: radio_bps}; both dict levels keep insertion
        # order, which is the order paths are enumerated in.
        self._adj: Dict[str, Dict[str, float]] = {}
        self._backhaul_bps: Dict[str, float] = {}
        self._failed: set = set()

    # -- construction --------------------------------------------------------------

    def add_ap(self, ap_id: str, backhaul_bps: float = 0.0) -> None:
        """Add an AP; ``backhaul_bps=0`` means no uplink of its own."""
        if backhaul_bps < 0:
            raise ValueError("backhaul capacity must be non-negative")
        self._adj.setdefault(ap_id, {})
        self._backhaul_bps[ap_id] = backhaul_bps

    def connect(self, a: str, b: str, radio_bps: float) -> None:
        """Add a mesh radio link between two APs."""
        if radio_bps <= 0:
            raise ValueError("radio link capacity must be positive")
        if a not in self._adj or b not in self._adj:
            raise KeyError("both APs must be added before connecting")
        self._adj[a][b] = radio_bps
        self._adj[b][a] = radio_bps

    # -- failure injection --------------------------------------------------------------

    def fail_backhaul(self, ap_id: str) -> None:
        """Kill one AP's uplink (mesh links survive)."""
        if ap_id not in self._adj:
            raise KeyError(f"unknown AP {ap_id}")
        self._failed.add(ap_id)

    def restore_backhaul(self, ap_id: str) -> None:
        """Bring an uplink back."""
        self._failed.discard(ap_id)

    def backhaul_bps(self, ap_id: str) -> float:
        """Effective own-uplink capacity (0 when failed)."""
        if ap_id in self._failed:
            return 0.0
        return self._backhaul_bps.get(ap_id, 0.0)

    # -- analysis ------------------------------------------------------------------------

    def gateways(self) -> List[str]:
        """APs currently holding a working uplink."""
        return [ap for ap in self._adj if self.backhaul_bps(ap) > 0]

    def route_to_internet(self, ap_id: str) -> Optional[Tuple[List[str], float]]:
        """Best path from ``ap_id`` to any working gateway.

        Returns (path, bottleneck_bps) where the bottleneck includes the
        gateway's uplink, or None when the AP is cut off. "Best" = the
        path maximizing the bottleneck (widest path), ties broken by hop
        count.
        """
        if ap_id not in self._adj:
            raise KeyError(f"unknown AP {ap_id}")
        if self.backhaul_bps(ap_id) > 0:
            return ([ap_id], self.backhaul_bps(ap_id))
        best: Optional[Tuple[List[str], float]] = None
        for gateway in self.gateways():
            for path in _bounded_simple_paths(self._adj, ap_id, gateway):
                bottleneck = min(
                    min(self._adj[u][v] for u, v in zip(path, path[1:])),
                    self.backhaul_bps(gateway))
                if (best is None or bottleneck > best[1]
                        or (bottleneck == best[1] and len(path) < len(best[0]))):
                    best = (path, bottleneck)
        return best

    def reachable_fraction(self) -> float:
        """Fraction of APs that can still reach the Internet."""
        if not self._adj:
            return 0.0
        ok = sum(1 for ap in self._adj
                 if self.route_to_internet(ap) is not None)
        return ok / len(self._adj)

    def total_capacity_bps(self) -> float:
        """Aggregate working uplink capacity across the mesh."""
        return sum(self.backhaul_bps(ap) for ap in self._adj)


def _bounded_simple_paths(adj: Dict[str, Dict[str, float]], src: str,
                          dst: str, cutoff: int = 6) -> Iterator[List[str]]:
    """Simple paths up to ``cutoff`` hops (meshes are small; keep it cheap).

    Depth-first, extending by neighbours in insertion order and never
    through ``dst``; ``route_to_internet`` breaks ties by this order.
    """
    path: List[str] = []
    stack = [iter((src,))]
    while True:
        node = next((n for n in stack[-1] if n not in path), None)
        if node is None:
            stack.pop()
            if not stack:
                return
            path.pop()
        elif node == dst:
            yield path + [node]
        elif len(path) < cutoff:  # len(path) == hops from src to node
            path.append(node)
            stack.append(iter(adj[node]))
