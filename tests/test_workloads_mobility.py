"""Unit tests for traffic sources, topologies, and mobility."""

import pytest

from repro.enodeb.cell import Cell
from repro.geo import Point
from repro.mobility import (
    A3HandoverTrigger,
    LinearMover,
    RandomWaypointMover,
)
from repro.phy import LinkBudget, OkumuraHata, Radio, get_band
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


def test_cbr_stop(sim):
    src = CbrSource(sim, lambda b: None, rate_bps=8000)
    src.start()
    sim.run(until=1)
    src.stop()
    count = src.bursts_emitted
    sim.run(until=5)
    assert src.bursts_emitted == count


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


# -- movers -------------------------------------------------------------------------

def test_linear_mover_reaches_destination(sim):
    mover = LinearMover(sim, Point(0, 0), Point(100, 0), speed_m_s=10,
                        update_interval_s=0.5)
    mover.start()
    sim.run(until=20)
    assert mover.arrived
    assert mover.position == Point(100, 0)
    assert mover.distance_traveled_m == pytest.approx(100)


def test_linear_mover_speed(sim):
    positions = []
    mover = LinearMover(sim, Point(0, 0), Point(1000, 0), speed_m_s=20,
                        update_interval_s=1.0,
                        on_move=lambda p: positions.append((sim.now, p.x)))
    mover.start()
    sim.run(until=10)
    assert positions[0] == (1.0, 20.0)
    assert positions[-1] == (10.0, 200.0)


def test_linear_mover_zero_speed_stays(sim):
    mover = LinearMover(sim, Point(5, 5), Point(100, 100), speed_m_s=0)
    mover.start()
    sim.run(until=10)
    assert mover.position == Point(5, 5)


def test_random_waypoint_stays_in_area(sim):
    mover = RandomWaypointMover(sim, Point(0, 0), speed_m_s=30,
                                area_center=Point(0, 0), area_radius_m=500,
                                update_interval_s=0.5, name="rw-test")
    mover.start()
    sim.run(until=120)
    assert mover.distance_traveled_m > 100
    assert Point(0, 0).distance_to(mover.position) <= 500 + 1e-6


def test_mover_stop(sim):
    mover = LinearMover(sim, Point(0, 0), Point(1e6, 0), speed_m_s=10)
    mover.start()
    sim.run(until=5)
    mover.stop()
    frozen = mover.position
    sim.run(until=50)
    assert mover.position == frozen


def test_mover_validates(sim):
    with pytest.raises(ValueError):
        LinearMover(sim, Point(0, 0), Point(1, 0), speed_m_s=-1)
    with pytest.raises(ValueError):
        RandomWaypointMover(sim, Point(0, 0), 1, Point(0, 0), area_radius_m=0)


# -- handover trigger ----------------------------------------------------------------

def _cells_pair():
    band = get_band("lte5")
    budget = LinkBudget(OkumuraHata(environment="open"), band.dl_mhz,
                        band.bandwidth_hz)
    west = Cell("west", band, Point(0, 0), budget)
    east = Cell("east", band, Point(4000, 0), budget)
    return [west, east]


def test_a3_triggers_when_neighbor_wins():
    cells = _cells_pair()
    events = []
    trigger = A3HandoverTrigger(cells, "west", hysteresis_db=3,
                                time_to_trigger_s=0.5,
                                on_handover=lambda s, t: events.append((s, t)))
    ue = Radio(Point(500, 0), tx_power_dbm=23)
    # near west: no trigger
    assert trigger.measure(0.0, ue) is None
    # move well past the midpoint: east wins by >3 dB
    ue_far = Radio(Point(3500, 0), tx_power_dbm=23)
    assert trigger.measure(1.0, ue_far) is None      # TTT starts
    assert trigger.measure(1.2, ue_far) is None      # still within TTT
    assert trigger.measure(1.6, ue_far) == "east"    # TTT satisfied
    assert events == [("west", "east")]
    assert trigger.serving == "east"
    assert trigger.handovers == 1


def test_a3_hysteresis_blocks_midpoint_flapping():
    cells = _cells_pair()
    trigger = A3HandoverTrigger(cells, "west", hysteresis_db=3,
                                time_to_trigger_s=0.0)
    midpoint = Radio(Point(2000, 0), tx_power_dbm=23)
    for t in range(10):
        assert trigger.measure(float(t), midpoint) is None
    assert trigger.handovers == 0


def test_a3_ttt_resets_if_candidate_fades():
    cells = _cells_pair()
    trigger = A3HandoverTrigger(cells, "west", hysteresis_db=3,
                                time_to_trigger_s=1.0)
    far = Radio(Point(3500, 0), tx_power_dbm=23)
    near = Radio(Point(500, 0), tx_power_dbm=23)
    assert trigger.measure(0.0, far) is None     # candidate appears
    assert trigger.measure(0.5, near) is None    # fades: reset
    assert trigger.measure(1.1, far) is None     # TTT restarts
    assert trigger.measure(1.5, far) is None     # not yet
    assert trigger.measure(2.2, far) == "east"


def test_a3_validates():
    cells = _cells_pair()
    with pytest.raises(KeyError):
        A3HandoverTrigger(cells, "ghost")
    with pytest.raises(ValueError):
        A3HandoverTrigger(cells, "west", hysteresis_db=-1)
