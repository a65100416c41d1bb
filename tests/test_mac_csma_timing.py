"""Unit tests for the CSMA/DCF simulation, Bianchi model, and timing limits."""

import numpy as np
import pytest

from repro.mac import (
    CsmaNode,
    CsmaSimulation,
    LTE_MAX_CELL_RANGE_M,
    WIFI_DEFAULT_ACK_RANGE_M,
    max_range_supported_m,
)
from tests.reference.bianchi import bianchi_throughput


def _fully_connected(n, frame_slots=50, seed=0):
    ids = [f"s{i}" for i in range(n)] + ["ap"]
    everyone = frozenset(ids)
    nodes = [CsmaNode(f"s{i}", hears=everyone - {f"s{i}"}, destination="ap")
             for i in range(n)]
    nodes.append(CsmaNode("ap", hears=everyone - {"ap"}, saturated=False))
    return CsmaSimulation(nodes, np.random.default_rng(seed),
                          frame_slots=frame_slots)


def test_single_node_no_collisions():
    sim = _fully_connected(1)
    res = sim.run(50_000)
    assert res.total_collided == 0
    # mean backoff ~8 slots between 50-slot frames -> ~0.86 utilization
    assert res.channel_utilization > 0.8


def test_two_connected_nodes_rarely_collide():
    res = _fully_connected(2).run(100_000)
    assert res.collision_rate < 0.25
    assert res.channel_utilization > 0.6


def test_utilization_degrades_with_contention():
    """More contenders -> more collisions, the CSMA scaling pathology."""
    few = _fully_connected(2).run(150_000)
    many = _fully_connected(20).run(150_000)
    assert many.collision_rate > few.collision_rate


def test_simulation_matches_bianchi_fully_connected():
    for n in (3, 10):
        sim = _fully_connected(n, frame_slots=50, seed=n)
        res = sim.run(300_000)
        analytic = bianchi_throughput(n, frame_slots=50)
        assert res.channel_utilization == pytest.approx(analytic, abs=0.06)


def test_hidden_terminal_much_worse_than_connected():
    """E8 core effect: hidden pairs collide far more than connected ones."""
    connected = _fully_connected(2, seed=3).run(200_000)
    nodes = [
        CsmaNode("a", hears=frozenset({"ap"}), destination="ap"),
        CsmaNode("c", hears=frozenset({"ap"}), destination="ap"),
        CsmaNode("ap", hears=frozenset({"a", "c"}), saturated=False),
    ]
    hidden = CsmaSimulation(nodes, np.random.default_rng(3), 50).run(200_000)
    # BEB partially adapts (CW grows), but hidden pairs still collide
    # roughly twice as often and deliver less useful channel time.
    assert hidden.collision_rate > 1.5 * connected.collision_rate
    assert hidden.channel_utilization < connected.channel_utilization


def test_harmless_overlap_outside_receiver_range():
    # a->b and c->d far apart: both transmit concurrently, neither receiver
    # hears the other transmitter, so spatial reuse succeeds.
    nodes = [
        CsmaNode("a", hears=frozenset({"b"}), destination="b"),
        CsmaNode("b", hears=frozenset({"a"}), saturated=False),
        CsmaNode("c", hears=frozenset({"d"}), destination="d"),
        CsmaNode("d", hears=frozenset({"c"}), saturated=False),
    ]
    res = CsmaSimulation(nodes, np.random.default_rng(1), 50).run(100_000)
    assert res.total_collided == 0
    # two parallel links exceed one channel's worth of delivery
    assert res.channel_utilization > 1.5


def test_duplicate_ids_rejected():
    nodes = [CsmaNode("x"), CsmaNode("x")]
    with pytest.raises(ValueError):
        CsmaSimulation(nodes, np.random.default_rng(0))


def test_bad_frame_slots_rejected():
    with pytest.raises(ValueError):
        CsmaSimulation([CsmaNode("x")], np.random.default_rng(0), frame_slots=0)


def _pair():
    everyone = frozenset({"a", "b"})
    return [CsmaNode("a", hears=everyone - {"a"}),
            CsmaNode("b", hears=everyone - {"b"})]


def test_second_run_reports_cumulative_slots():
    sim = CsmaSimulation(_pair(), np.random.default_rng(4), frame_slots=50)
    sim.run(10_000)
    result = sim.run(10_000)
    assert result.slots == 20_000
    assert result.busy_slots <= result.slots
    assert result.channel_utilization <= 1.0


def test_reused_nodes_start_from_zero():
    nodes = _pair()
    first = CsmaSimulation(nodes, np.random.default_rng(4)).run(10_000)
    again = CsmaSimulation(nodes, np.random.default_rng(4)).run(10_000)
    assert again.delivered == first.delivered
    assert again.collided == first.collided
    assert all(n.sent <= n.delivered + n.collided + 1 for n in nodes)
    assert again.channel_utilization <= 1.0


def test_unknown_destination_rejected():
    nodes = [CsmaNode("a", destination="nobody"), CsmaNode("b")]
    with pytest.raises(ValueError, match="nobody"):
        CsmaSimulation(nodes, np.random.default_rng(0))


def test_negative_slots_rejected():
    sim = CsmaSimulation(_pair(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        sim.run(-1)


def test_deliveries_conserved():
    sim = _fully_connected(5, seed=9)
    res = sim.run(100_000)
    for node in sim.nodes.values():
        assert node.sent >= node.delivered + node.collided - 1  # one in flight


def test_bianchi_monotone_decreasing_in_n():
    values = [bianchi_throughput(n, 50) for n in (1, 5, 20, 50)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert 0 < values[-1] < values[0] <= 1.0


def test_bianchi_longer_frames_amortize_overhead():
    assert bianchi_throughput(10, 200) > bianchi_throughput(10, 20)


def test_bianchi_validates():
    with pytest.raises(ValueError):
        bianchi_throughput(0)


# -- timing / range limits -----------------------------------------------------

def test_range_limits_lte_vs_wifi():
    """§3.2: LTE's scheduler compensates delay; stock WiFi dies ~km scale."""
    assert max_range_supported_m("lte") == LTE_MAX_CELL_RANGE_M
    assert max_range_supported_m("wifi") == WIFI_DEFAULT_ACK_RANGE_M
    assert LTE_MAX_CELL_RANGE_M > 30 * WIFI_DEFAULT_ACK_RANGE_M
    with pytest.raises(ValueError):
        max_range_supported_m("zigbee")
