"""Immutable planar points in meters.

The reproduction models deployments at town scale (a few km), where a flat
local tangent plane is accurate to well under a meter — so positions are
plain (x, y) meters, not lat/lon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Point:
    """A position on the local tangent plane, in meters."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in meters."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def offset(self, dx: float, dy: float) -> "Point":
        """A new point translated by (dx, dy) meters."""
        return Point(self.x + dx, self.y + dy)

    def __iter__(self):
        yield self.x
        yield self.y


def distance_m(a: Point, b: Point) -> float:
    """Euclidean distance between two points, meters."""
    return a.distance_to(b)
