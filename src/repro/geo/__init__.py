"""Planar geometry: positions, distances, and placement generators."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "points": ("Point", "distance_m"),
    "placement": ("grid_placement", "uniform_disk_placement"),
})
