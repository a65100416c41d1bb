"""Unit tests for traffic sources and topologies."""

import pytest

from repro.geo import Point
from repro.simcore import Simulator
from repro.workloads import (
    CbrSource,
    RuralTown,
    VideoStreamSource,
    WebSessionSource,
)


@pytest.fixture
def sim():
    return Simulator(seed=0)


# -- traffic --------------------------------------------------------------------

def test_cbr_rate(sim):
    emitted = []
    src = CbrSource(sim, emitted.append, rate_bps=96_000, packet_bytes=1200)
    src.start()
    sim.run(until=10)
    # 96 kbps = 10 packets/s of 1200 B
    assert len(emitted) == 100
    assert src.bytes_emitted == 120_000


def test_cbr_double_start_rejected(sim):
    src = CbrSource(sim, lambda b: None, rate_bps=8000)
    src.start()
    with pytest.raises(RuntimeError):
        src.start()


def test_web_sessions_heavy_tailed(sim):
    sizes = []
    src = WebSessionSource(sim, sizes.append, mean_page_bytes=1_000_000,
                           mean_think_s=5.0)
    src.start()
    sim.run(until=600)
    assert len(sizes) > 50
    assert max(sizes) > 3 * (sum(sizes) / len(sizes))  # a heavy tail


def test_video_segments(sim):
    sizes = []
    src = VideoStreamSource(sim, sizes.append, bitrate_bps=2e6, segment_s=4)
    src.start()
    sim.run(until=40)
    # first segment at t=0, then every 4 s through t=40 inclusive
    assert len(sizes) == 11
    assert all(s == int(2e6 * 4 / 8) for s in sizes)


def test_sources_validate():
    sim = Simulator(0)
    with pytest.raises(ValueError):
        CbrSource(sim, lambda b: None, rate_bps=0)
    with pytest.raises(ValueError):
        VideoStreamSource(sim, lambda b: None, bitrate_bps=-5)


# -- topologies --------------------------------------------------------------------

def test_rural_town_single_site_at_center():
    town = RuralTown(radius_m=1500, n_ues=20, n_aps=1, seed=1)
    assert town.ap_positions() == [Point(0, 0)]
    ues = town.ue_positions()
    assert len(ues) == 20
    assert all(Point(0, 0).distance_to(u) <= 1500 for u in ues)


def test_rural_town_multi_site_ring():
    town = RuralTown(radius_m=2000, n_ues=5, n_aps=4, seed=1)
    aps = town.ap_positions()
    assert len(aps) == 4
    assert aps[0] == Point(0, 0)
    for ap in aps[1:]:
        assert Point(0, 0).distance_to(ap) == pytest.approx(1200, rel=0.01)


def test_rural_town_seed_reproducible():
    a = RuralTown(n_ues=10, seed=7).ue_positions()
    b = RuralTown(n_ues=10, seed=7).ue_positions()
    assert a == b


def test_rural_town_validates():
    with pytest.raises(ValueError):
        RuralTown(radius_m=0)
    with pytest.raises(ValueError):
        RuralTown(n_aps=0)
