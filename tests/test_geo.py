"""Unit tests for repro.geo (points and placements)."""

import math

import numpy as np
import pytest

from repro.geo import (
    Point,
    distance_m,
    grid_placement,
    uniform_disk_placement,
)


def test_distance_pythagorean():
    assert Point(0, 0).distance_to(Point(3, 4)) == 5.0


def test_distance_symmetric_and_zero():
    a, b = Point(1, 2), Point(-3, 7)
    assert a.distance_to(b) == b.distance_to(a)
    assert a.distance_to(a) == 0.0
    assert distance_m(a, b) == a.distance_to(b)


def test_offset():
    assert Point(1, 1).offset(2, -3) == Point(3, -2)


def test_toward_moves_correct_distance():
    p = Point(0, 0).toward(Point(10, 0), 4)
    assert p == Point(4, 0)


def test_toward_clamps_at_target():
    assert Point(0, 0).toward(Point(3, 0), 100) == Point(3, 0)


def test_toward_zero_distance_stays():
    p = Point(5, 5)
    assert p.toward(p, 10) == p


def test_point_unpacks():
    x, y = Point(2.5, -1.0)
    assert (x, y) == (2.5, -1.0)


def test_points_hashable_frozen():
    s = {Point(1, 2), Point(1, 2), Point(3, 4)}
    assert len(s) == 2
    with pytest.raises(Exception):
        Point(1, 2).x = 5


# -- placements --------------------------------------------------------------

def test_uniform_disk_within_radius():
    rng = np.random.default_rng(0)
    center = Point(100, -50)
    pts = uniform_disk_placement(rng, 500, 1000.0, center)
    assert len(pts) == 500
    assert all(center.distance_to(p) <= 1000.0 for p in pts)


def test_uniform_disk_is_area_uniform():
    # Half the points should fall within r/sqrt(2) of the center.
    rng = np.random.default_rng(1)
    pts = uniform_disk_placement(rng, 4000, 1000.0)
    inner = sum(1 for p in pts if Point(0, 0).distance_to(p) <= 1000 / math.sqrt(2))
    assert 0.45 < inner / 4000 < 0.55


def test_uniform_disk_validates():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        uniform_disk_placement(rng, -1, 100)
    with pytest.raises(ValueError):
        uniform_disk_placement(rng, 5, 0)


def test_grid_placement_shape():
    pts = grid_placement(3, 2, 10.0, origin=Point(1, 1))
    assert len(pts) == 6
    assert pts[0] == Point(1, 1)
    assert pts[1] == Point(11, 1)       # row-major
    assert pts[3] == Point(1, 11)


def test_grid_placement_validates():
    with pytest.raises(ValueError):
        grid_placement(0, 3, 10)
