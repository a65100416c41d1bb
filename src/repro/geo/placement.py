"""Placement generators for APs and UEs.

Each generator takes an explicit ``numpy.random.Generator`` so placements
are reproducible through the simulation's namespaced RNG registry.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.geo.points import Point


def uniform_disk_placement(rng: np.random.Generator, n: int, radius_m: float,
                           center: Point = Point(0.0, 0.0)) -> List[Point]:
    """``n`` points uniform over a disk (area-uniform, not radius-uniform)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if radius_m <= 0:
        raise ValueError("radius must be positive")
    radii = radius_m * np.sqrt(rng.random(n))
    angles = rng.random(n) * 2 * math.pi
    return [Point(center.x + r * math.cos(a), center.y + r * math.sin(a))
            for r, a in zip(radii, angles)]


def grid_placement(n_cols: int, n_rows: int, spacing_m: float,
                   origin: Point = Point(0.0, 0.0)) -> List[Point]:
    """A regular grid, row-major from ``origin``."""
    if n_cols <= 0 or n_rows <= 0:
        raise ValueError("grid dimensions must be positive")
    return [Point(origin.x + c * spacing_m, origin.y + r * spacing_m)
            for r in range(n_rows) for c in range(n_cols)]
