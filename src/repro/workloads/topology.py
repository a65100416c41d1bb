"""Deployment topologies: where APs and users stand.

Two scenario generators anchor the experiments:

* :class:`RuralTown` — the paper's §5 deployment shape: one (or a few)
  AP sites covering a town of a given radius, UEs clustered around the
  town center. "One site covers the entire town, and is deployed on the
  gym where power and backhaul were available."
* :class:`CityGrid` — E19's dense urban grid of cell sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.geo.placement import grid_placement, uniform_disk_placement
from repro.geo.points import Point


@dataclass
class RuralTown:
    """A disk-shaped town with central AP site(s).

    Attributes:
        radius_m: town radius (the Papua site covers ~1-2 km).
        n_ues: resident user devices.
        n_aps: AP sites; the first is at the center (the gym), later ones
            spread evenly at 60% radius.
        seed: placement RNG seed.
        backhaul_delay_s: AP Internet access delay (rural ISP).
        backhaul_rate_bps: AP uplink capacity.
    """

    radius_m: float = 1500.0
    n_ues: int = 40
    n_aps: int = 1
    seed: int = 0
    backhaul_delay_s: float = 0.025
    backhaul_rate_bps: float = 50e6

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise ValueError("radius must be positive")
        if self.n_ues < 0 or self.n_aps < 1:
            raise ValueError("need n_ues >= 0 and n_aps >= 1")

    def ap_positions(self) -> List[Point]:
        """Site positions: center first, then a ring."""
        if self.n_aps == 1:
            return [Point(0.0, 0.0)]
        ring_r = 0.6 * self.radius_m
        angle = 2 * np.pi / (self.n_aps - 1)
        return [Point(0.0, 0.0)] + [
            Point(ring_r * float(np.cos(i * angle)),
                  ring_r * float(np.sin(i * angle)))
            for i in range(self.n_aps - 1)]

    def ue_positions(self) -> List[Point]:
        """Residents, uniform over the town disk."""
        rng = np.random.default_rng(self.seed)
        return uniform_disk_placement(rng, self.n_ues, self.radius_m)


@dataclass
class CityGrid:
    """A dense urban grid of cell sites (E19's geometry).

    The city-scale scenario: ``n_cells`` sites on a near-square street
    grid at ``spacing_m``, each serving a mix of packet-fidelity
    foreground UEs and a fluid background population. Laid out
    row-major, so :func:`repro.geo.partition.stripe_partition` cuts the
    city into compact vertical stripes.

    Attributes:
        n_cells: cell sites in the city.
        spacing_m: inter-site distance (urban macro ~500 m).
    """

    n_cells: int = 100
    spacing_m: float = 500.0

    def __post_init__(self) -> None:
        if self.n_cells < 1 or self.spacing_m <= 0:
            raise ValueError("need n_cells >= 1 and positive spacing")

    @property
    def n_cols(self) -> int:
        """Grid width: the ceiling square root, so the city is near-square."""
        return int(np.ceil(np.sqrt(self.n_cells)))

    def cell_positions(self) -> List[Point]:
        """Site positions, row-major on the grid, truncated to n_cells."""
        cols = self.n_cols
        rows = int(np.ceil(self.n_cells / cols))
        return grid_placement(cols, rows, self.spacing_m)[: self.n_cells]
