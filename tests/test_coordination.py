"""Unit tests for X2, fair sharing, cooperative mode, ICIC, and the mesh."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coordination import (
    BackhaulMesh,
    CooperativeCluster,
    DlteModeInfo,
    FairSharingCoordinator,
    LoadInformation,
    X2Endpoint,
    reuse_partition,
)
from repro.coordination.fair_sharing import compute_weighted_partition
from repro.coordination.mesh import _bounded_simple_paths
from repro.enodeb.cell import Cell, UeRadioContext
from repro.geo import Point
from repro.phy import LinkBudget, OkumuraHata, Radio, get_band
from repro.phy.resource_grid import ResourceGrid
from repro.simcore import Simulator


# -- X2 ------------------------------------------------------------------------

def _mesh_x2(sim, n, delay=0.02):
    eps = [X2Endpoint(sim, f"ap{i}") for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            eps[i].connect_peer(eps[j], one_way_delay_s=delay)
    return eps


def test_x2_peer_wiring_symmetric():
    sim = Simulator(0)
    a, b = _mesh_x2(sim, 2)
    assert a.peer_ids == {"ap1"} and b.peer_ids == {"ap0"}
    a.disconnect_peer("ap1")
    assert a.peer_ids == set() and b.peer_ids == set()


def test_x2_send_and_receive():
    sim = Simulator(0)
    a, b = _mesh_x2(sim, 2, delay=0.03)
    got = []
    b.add_handler(lambda frm, msg: got.append((sim.now, frm, msg)))
    a.send("ap1", LoadInformation(sender_ap="ap0", prb_utilization=0.5))
    sim.run()
    assert len(got) == 1
    t, frm, msg = got[0]
    assert frm == "ap0" and msg.prb_utilization == 0.5
    assert t >= 0.03


def test_x2_broadcast_counts_bytes():
    sim = Simulator(0)
    eps = _mesh_x2(sim, 4)
    eps[0].broadcast(DlteModeInfo(sender_ap="ap0", mode="cooperative"))
    sim.run()
    assert eps[0].messages_sent == 3
    assert eps[0].bytes_sent == 3 * 120


def test_x2_send_to_unknown_peer_raises():
    sim = Simulator(0)
    (a,) = _mesh_x2(sim, 1)
    with pytest.raises(KeyError):
        a.send("ghost", LoadInformation(sender_ap="ap0"))


# -- weighted partition (pure function) ----------------------------------------------

def test_partition_equal_weights():
    p = compute_weighted_partition(50, {"a": 1, "b": 1, "c": 1})
    sizes = sorted(len(s) for s in p.values())
    assert sizes == [16, 17, 17]
    assert frozenset().union(*p.values()) == frozenset(range(50))


def test_partition_weighted():
    p = compute_weighted_partition(100, {"busy": 3.0, "idle": 1.0})
    assert len(p["busy"]) == 75 and len(p["idle"]) == 25


def test_partition_deterministic_regardless_of_dict_order():
    p1 = compute_weighted_partition(50, {"a": 1, "b": 2})
    p2 = compute_weighted_partition(50, {"b": 2, "a": 1})
    assert p1 == p2


def test_partition_slices_contiguous_and_disjoint():
    p = compute_weighted_partition(30, {"x": 1, "y": 1, "z": 2})
    all_prbs = sorted(i for s in p.values() for i in s)
    assert all_prbs == list(range(30))  # disjoint + complete
    for s in p.values():
        lst = sorted(s)
        assert lst == list(range(lst[0], lst[0] + len(lst)))  # contiguous


def test_partition_validates():
    with pytest.raises(ValueError):
        compute_weighted_partition(10, {})
    with pytest.raises(ValueError):
        compute_weighted_partition(10, {"a": 0.0})
    with pytest.raises(ValueError):
        compute_weighted_partition(-1, {"a": 1.0})


# -- fair sharing protocol --------------------------------------------------------------

def _fair_cluster(sim, n, delay=0.02, weights=None):
    eps = _mesh_x2(sim, n, delay)
    coords = [FairSharingCoordinator(ep, ResourceGrid(10e6),
                                     demand_weight=(weights or {}).get(f"ap{i}", 1.0))
              for i, ep in enumerate(eps)]
    return eps, coords


def test_fair_sharing_converges_to_disjoint_cover():
    sim = Simulator(1)
    eps, coords = _fair_cluster(sim, 4)
    for c in coords:
        c.announce()
    sim.run(until=1)
    union = set()
    total = 0
    for c in coords:
        union |= c.my_prbs
        total += len(c.my_prbs)
    assert union == set(range(50)) and total == 50
    assert all(11 <= len(c.my_prbs) <= 13 for c in coords)


def test_fair_sharing_converges_in_one_latency():
    sim = Simulator(1)
    eps, coords = _fair_cluster(sim, 3, delay=0.05)
    for c in coords:
        c.announce()
    sim.run(until=0.2)
    # all claims arrive after one one-way delay (+epsilon processing)
    assert all(c.partitions_installed >= 1 for c in coords)
    assert sim.now <= 0.2


def test_fair_sharing_demand_weighted_ablation():
    sim = Simulator(1)
    eps, coords = _fair_cluster(sim, 2, weights={"ap0": 3.0, "ap1": 1.0})
    for c in coords:
        c.announce()
    sim.run(until=1)
    assert len(coords[0].my_prbs) == pytest.approx(37, abs=1)
    assert len(coords[1].my_prbs) == pytest.approx(13, abs=1)


def test_fair_sharing_reconverges_on_new_member():
    sim = Simulator(1)
    eps, coords = _fair_cluster(sim, 2)
    for c in coords:
        c.announce()
    sim.run(until=1)
    assert all(len(c.my_prbs) == 25 for c in coords)
    # a third AP joins the domain
    new_ep = X2Endpoint(sim, "ap2")
    for ep in eps:
        new_ep.connect_peer(ep, one_way_delay_s=0.02)
    new_coord = FairSharingCoordinator(new_ep, ResourceGrid(10e6))
    new_coord.announce()
    sim.run(until=2)
    all_coords = coords + [new_coord]
    union = set().union(*(c.my_prbs for c in all_coords))
    assert union == set(range(50))
    assert sum(len(c.my_prbs) for c in all_coords) == 50
    assert all(16 <= len(c.my_prbs) <= 17 for c in all_coords)


def test_fair_sharing_weight_update_triggers_reconvergence():
    sim = Simulator(1)
    eps, coords = _fair_cluster(sim, 2)
    for c in coords:
        c.announce()
    sim.run(until=1)
    coords[0].set_demand_weight(4.0)
    sim.run(until=2)
    assert len(coords[0].my_prbs) == 40
    assert len(coords[1].my_prbs) == 10


def test_fair_sharing_rejects_bad_weight():
    sim = Simulator(1)
    eps, coords = _fair_cluster(sim, 2)
    with pytest.raises(ValueError):
        coords[0].set_demand_weight(0.0)


# -- ICIC ------------------------------------------------------------------------------------

def test_reuse1_everyone_shares_everything():
    p = reuse_partition(["a", "b", "c"], 50, reuse_factor=1)
    assert all(s == frozenset(range(50)) for s in p.values())


def test_reuse3_disjoint_thirds():
    p = reuse_partition(["a", "b", "c"], 30, reuse_factor=3)
    union = set().union(*p.values())
    assert len(union) == 30
    assert all(len(s) == 10 for s in p.values())


def test_reuse3_colors_repeat_cyclically():
    p = reuse_partition(["a", "b", "c", "d"], 30, reuse_factor=3)
    assert p["a"] == p["d"]  # 4th cell reuses color 0
    assert [c for c in "bcd" if p["a"] & p[c]] == ["d"]


def test_reuse_validates():
    with pytest.raises(ValueError):
        reuse_partition([], 30, 3)
    with pytest.raises(ValueError):
        reuse_partition(["a"], 30, 0)
    with pytest.raises(ValueError):
        reuse_partition(["a", "a"], 30, 3)


# -- cooperative cluster --------------------------------------------------------------------------

def _make_cell(name, x, band=None):
    band = band or get_band("lte5")
    lb = LinkBudget(OkumuraHata(environment="open"), band.dl_mhz,
                    band.bandwidth_hz)
    return Cell(name, band, Point(x, 0), lb)


def _ue_ctx(ue_id, x):
    return UeRadioContext(ue_id=ue_id,
                          radio=Radio(Point(x, 0), tx_power_dbm=23))


def test_cooperative_best_ap_assignment():
    """UEs attached to the wrong AP get moved to the strongest one."""
    cluster = CooperativeCluster()
    west, east = _make_cell("west", 0), _make_cell("east", 10_000)
    cluster.join(west)
    cluster.join(east)
    # both UEs start on west, but one lives next to east
    west.add_ue(_ue_ctx("near-west", 500))
    west.add_ue(_ue_ctx("near-east", 9_500))
    cluster.optimize()
    assert "near-west" in west.attached_ues
    assert "near-east" in east.attached_ues
    assert cluster.reassignments == 1


def test_cooperative_demand_weighted_fusion():
    """An idle AP's spectrum flows to its loaded neighbour."""
    cluster = CooperativeCluster()
    busy, idle = _make_cell("busy", 0), _make_cell("idle", 10_000)
    cluster.join(busy)
    cluster.join(idle)
    for i in range(8):
        busy.add_ue(_ue_ctx(f"u{i}", 300 + i * 50))
    cluster.optimize()
    assert len(busy.allowed_prbs) > 3 * len(idle.allowed_prbs)
    assert not (busy.allowed_prbs & idle.allowed_prbs)  # still disjoint


def test_cooperative_handoff_moves_context():
    cluster = CooperativeCluster()
    a, b = _make_cell("a", 0), _make_cell("b", 5000)
    cluster.join(a)
    cluster.join(b)
    a.add_ue(_ue_ctx("mob", 2500))
    cluster.handoff("mob", "b")
    assert "mob" in b.attached_ues and "mob" not in a.attached_ues
    cluster.handoff("mob", "b")  # idempotent
    with pytest.raises(KeyError):
        cluster.handoff("mob", "ghost-cell")
    with pytest.raises(KeyError):
        cluster.handoff("ghost-ue", "a")


def test_cooperative_leave_restores_full_grid():
    cluster = CooperativeCluster()
    a, b = _make_cell("a", 0), _make_cell("b", 5000)
    cluster.join(a)
    cluster.join(b)
    cluster.optimize()
    assert len(a.allowed_prbs) < a.grid.n_prbs
    cluster.leave("a")
    assert a.allowed_prbs == a.grid.all_prbs
    assert cluster.members == ["b"]


def test_cooperative_installs_qos_scheduler():
    from repro.mac.schedulers import QosAwareScheduler
    cluster = CooperativeCluster()
    cell = _make_cell("a", 0)
    cluster.join(cell)
    assert isinstance(cell.scheduler, QosAwareScheduler)


def test_cooperative_empty_cluster_rejected():
    with pytest.raises(RuntimeError):
        CooperativeCluster().optimize()


# -- mesh backhaul (E11) --------------------------------------------------------------------------

def _line_mesh():
    mesh = BackhaulMesh()
    mesh.add_ap("a", backhaul_bps=10e6)
    mesh.add_ap("b", backhaul_bps=0)       # relies on neighbours
    mesh.add_ap("c", backhaul_bps=5e6)
    mesh.connect("a", "b", radio_bps=20e6)
    mesh.connect("b", "c", radio_bps=20e6)
    return mesh


def test_mesh_direct_backhaul_preferred():
    mesh = _line_mesh()
    path, capacity = mesh.route_to_internet("a")
    assert path == ["a"] and capacity == 10e6


def test_mesh_relays_backhaul_less_ap():
    mesh = _line_mesh()
    path, capacity = mesh.route_to_internet("b")
    assert path == ["b", "a"]        # widest gateway wins (10M > 5M)
    assert capacity == 10e6


def test_mesh_failover_to_surviving_gateway():
    """§7: redundancy when the backhaul link goes down."""
    mesh = _line_mesh()
    mesh.fail_backhaul("a")
    path, capacity = mesh.route_to_internet("a")
    assert path == ["a", "b", "c"] and capacity == 5e6
    assert mesh.reachable_fraction() == 1.0
    mesh.fail_backhaul("c")
    assert mesh.route_to_internet("b") is None
    assert mesh.reachable_fraction() == 0.0
    mesh.restore_backhaul("a")
    assert mesh.reachable_fraction() == 1.0


def test_mesh_total_capacity_tracks_failures():
    mesh = _line_mesh()
    assert mesh.total_capacity_bps() == 15e6
    mesh.fail_backhaul("c")
    assert mesh.total_capacity_bps() == 10e6


def test_mesh_validates():
    mesh = BackhaulMesh()
    with pytest.raises(ValueError):
        mesh.add_ap("x", backhaul_bps=-1)
    mesh.add_ap("x")
    with pytest.raises(KeyError):
        mesh.connect("x", "ghost", 1e6)
    mesh.add_ap("y")
    with pytest.raises(ValueError):
        mesh.connect("x", "y", 0)
    with pytest.raises(KeyError):
        mesh.fail_backhaul("ghost")


def test_mesh_equal_paths_tie_breaks_on_connect_order():
    """Same bottleneck, same hop count: the first path enumerated wins,
    and enumeration follows the order links were connected in — not the
    order APs were added in."""
    mesh = BackhaulMesh()
    for ap_id, backhaul_bps in (("s", 0), ("x", 0), ("y", 0), ("g", 5e6)):
        mesh.add_ap(ap_id, backhaul_bps=backhaul_bps)
    for a, b in (("s", "y"), ("s", "x"), ("x", "g"), ("y", "g")):
        mesh.connect(a, b, radio_bps=20e6)
    assert mesh.route_to_internet("s") == (["s", "y", "g"], 5e6)


@st.composite
def _mesh_cases(draw):
    """(aps, links, src, dst, cutoff) with repeated links and self-loops."""
    n = draw(st.integers(min_value=1, max_value=7))
    aps = draw(st.permutations([f"ap{i}" for i in range(n)]))
    ap = st.sampled_from(aps)
    links = draw(st.lists(st.tuples(ap, ap), min_size=2 * n, max_size=3 * n))
    return aps, links, draw(ap), draw(ap), draw(st.sampled_from([0, 1, 2, 3, 6]))


def _paths_by_definition(adj, path, dst, cutoff):
    """Extend by neighbours in insertion order, skip visited, stop at
    ``cutoff`` hops or on reaching ``dst``."""
    if path[-1] == dst:
        yield path
    elif len(path) <= cutoff:
        for neighbour in adj[path[-1]]:
            if neighbour not in path:
                yield from _paths_by_definition(adj, path + [neighbour],
                                                dst, cutoff)


def _adjacency(aps, links):
    mesh = BackhaulMesh()
    for ap_id in aps:
        mesh.add_ap(ap_id)
    for a, b in links:
        mesh.connect(a, b, radio_bps=1e6)
    return mesh._adj


@given(_mesh_cases())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_mesh_path_enumeration_matches_definition(case):
    aps, links, src, dst, cutoff = case
    adj = _adjacency(aps, links)
    assert (list(_bounded_simple_paths(adj, src, dst, cutoff))
            == list(_paths_by_definition(adj, [src], dst, cutoff)))


def test_mesh_path_enumeration_matches_networkx():
    """The order E11's table was recorded under; runs where networkx exists."""
    nx = pytest.importorskip("networkx")

    @given(_mesh_cases())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def check(case):
        aps, links, src, dst, cutoff = case
        graph = nx.Graph()
        graph.add_nodes_from(aps)
        graph.add_edges_from(links)
        adj = _adjacency(aps, links)
        assert (list(_bounded_simple_paths(adj, src, dst, cutoff))
                == list(nx.all_simple_paths(graph, src, dst, cutoff=cutoff)))

    check()
