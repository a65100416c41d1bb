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

    def toward(self, other: "Point", step_m: float) -> "Point":
        """A point ``step_m`` meters from here along the line to ``other``.

        Overshooting is clamped: if ``step_m`` exceeds the distance, the
        result is ``other`` itself.
        """
        total = self.distance_to(other)
        if total <= step_m or total == 0.0:
            return other
        frac = step_m / total
        return Point(self.x + (other.x - self.x) * frac,
                     self.y + (other.y - self.y) * frac)

    def __iter__(self):
        yield self.x
        yield self.y


def distance_m(a: Point, b: Point) -> float:
    """Euclidean distance between two points, meters."""
    return a.distance_to(b)
