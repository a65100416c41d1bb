"""Property-based tests (hypothesis) on core data structures and invariants."""

import ipaddress

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.coordination.fair_sharing import compute_weighted_partition
from repro.coordination.icic import reuse_partition
from repro.geo import Point
from repro.mac.schedulers import (
    ProportionalFairScheduler,
    QosAwareScheduler,
    RoundRobinScheduler,
)
from repro.metrics import jain_fairness
from repro.net import AddressPool, GtpTunnel, Packet, TunnelEndpoint
from repro.phy import (
    FreeSpace,
    LogDistance,
    OkumuraHata,
    db_to_linear,
    harq_goodput_factor,
    linear_to_db,
    lte_efficiency_for_sinr,
    select_lte_cqi,
    select_wifi_mcs,
)
from repro.phy.harq import block_error_rate
from repro.simcore import Simulator

from tests.reference import scalar_tti
from tests.reference.scalar_tti import SchedulableUser, allocate_packed

IP = ipaddress.IPv4Address


# -- dB arithmetic ---------------------------------------------------------------

@given(st.floats(min_value=-120, max_value=120))
def test_db_roundtrip_property(db):
    assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-9)


@given(st.floats(min_value=-100, max_value=100),
       st.floats(min_value=-100, max_value=100))
def test_db_addition_is_linear_multiplication(a, b):
    assert db_to_linear(a + b) == pytest.approx(
        db_to_linear(a) * db_to_linear(b), rel=1e-9)


# -- propagation monotonicity -----------------------------------------------------

@given(st.floats(min_value=10, max_value=50_000),
       st.floats(min_value=10, max_value=50_000),
       st.floats(min_value=150, max_value=1500))
def test_path_loss_monotone_in_distance(d1, d2, freq):
    assume(abs(d1 - d2) > 1.0)
    lo, hi = sorted([d1, d2])
    for model in (FreeSpace(), LogDistance(3.5),
                  OkumuraHata(environment="open")):
        assert model.path_loss_db(lo, freq) <= model.path_loss_db(hi, freq) + 1e-9


@given(st.floats(min_value=100, max_value=30_000),
       st.floats(min_value=150, max_value=749))
def test_hata_loss_monotone_in_frequency(distance, freq):
    model = OkumuraHata(environment="open")
    assert (model.path_loss_db(distance, freq)
            <= model.path_loss_db(distance, freq * 2) + 1e-9)


# -- rate tables --------------------------------------------------------------------

@given(st.floats(min_value=-30, max_value=40))
def test_lte_efficiency_nonnegative_and_bounded(sinr):
    eff = lte_efficiency_for_sinr(sinr)
    assert 0.0 <= eff <= 5.5547


@given(st.floats(min_value=-30, max_value=40),
       st.floats(min_value=0.1, max_value=10))
def test_efficiency_monotone_in_sinr(sinr, delta):
    assert (lte_efficiency_for_sinr(sinr)
            <= lte_efficiency_for_sinr(sinr + delta))


@given(st.floats(min_value=-30, max_value=40))
def test_selected_mcs_threshold_is_met(sinr):
    entry = select_lte_cqi(sinr)
    if entry is not None:
        assert entry.min_sinr_db <= sinr
    wifi = select_wifi_mcs(sinr)
    if wifi is not None:
        assert wifi.min_sinr_db <= sinr


# -- HARQ ---------------------------------------------------------------------------------

@given(st.floats(min_value=-30, max_value=30),
       st.floats(min_value=-10, max_value=25))
def test_bler_in_unit_interval(sinr, threshold):
    assert 0.0 <= block_error_rate(sinr, threshold) <= 1.0


@given(st.floats(min_value=-20, max_value=30),
       st.floats(min_value=-7, max_value=23),
       st.integers(min_value=0, max_value=8))
def test_harq_factor_in_unit_interval(sinr, threshold, retx):
    assert 0.0 <= harq_goodput_factor(sinr, threshold, max_retx=retx) <= 1.0


@given(st.floats(min_value=-15, max_value=10),
       st.floats(min_value=-7, max_value=23))
def test_combining_never_hurts(sinr, threshold):
    with_comb = harq_goodput_factor(sinr, threshold, combining=True)
    without = harq_goodput_factor(sinr, threshold, combining=False)
    assert with_comb >= without - 1e-12


# -- weighted partition ----------------------------------------------------------------------

ap_names = st.lists(st.text(alphabet="abcdefgh", min_size=1, max_size=4),
                    min_size=1, max_size=8, unique=True)


@given(st.integers(min_value=0, max_value=200), ap_names,
       st.data())
def test_partition_exact_disjoint_cover(n_prbs, names, data):
    weights = {name: data.draw(st.floats(min_value=0.1, max_value=10.0),
                               label=f"w[{name}]")
               for name in names}
    partition = compute_weighted_partition(n_prbs, weights)
    all_prbs = sorted(p for s in partition.values() for p in s)
    assert all_prbs == list(range(n_prbs))  # disjoint and complete


@given(st.integers(min_value=10, max_value=500), ap_names, st.data())
def test_partition_proportional_within_one_prb(n_prbs, names, data):
    weights = {name: data.draw(st.floats(min_value=0.1, max_value=10.0),
                               label=f"w[{name}]")
               for name in names}
    partition = compute_weighted_partition(n_prbs, weights)
    total = sum(weights.values())
    for name in names:
        exact = n_prbs * weights[name] / total
        assert abs(len(partition[name]) - exact) < 1.0 + 1e-9


@given(st.integers(min_value=0, max_value=120),
       st.integers(min_value=1, max_value=6),
       ap_names)
def test_reuse_partition_slices_within_colors(n_prbs, reuse, names):
    partition = reuse_partition(names, n_prbs, reuse)
    for name, prbs in partition.items():
        assert prbs <= frozenset(range(n_prbs))
    if reuse == 1:
        assert all(p == frozenset(range(n_prbs)) for p in partition.values())


# -- schedulers conserve PRBs -------------------------------------------------------------------
#
# Production grants PRB counts; the PRB sets those counts stand for are
# the oracle's (tests/reference/scalar_tti.py). Each property of PRB
# identity is held on the oracle's sets, and production is held to the
# oracle's per-user set sizes on the same drawn users.

sinr_lists = st.lists(st.floats(min_value=-15, max_value=30),
                      min_size=1, max_size=12)


def _oracle_sets(sched_cls, users, prbs):
    """The oracle's PRB sets, after checking that production (a fresh
    twin scheduler) grants their sizes, to the key order."""
    sets = scalar_tti.allocate(sched_cls(), users, prbs, {})
    counts = allocate_packed(sched_cls(), users, prbs)
    assert list(counts.items()) == list(scalar_tti.grant_counts(sets).items())
    assert sum(counts.values()) <= len(prbs)
    return sets


@given(sinr_lists, st.integers(min_value=0, max_value=100))
@settings(max_examples=50)
def test_schedulers_never_double_grant(sinrs, n_prbs):
    users = [SchedulableUser(f"u{i}", s) for i, s in enumerate(sinrs)]
    prbs = frozenset(range(n_prbs))
    for sched_cls in (RoundRobinScheduler, ProportionalFairScheduler,
                      QosAwareScheduler):
        grants = _oracle_sets(sched_cls, users, prbs)
        seen = []
        for granted in grants.values():
            seen.extend(granted)
        assert len(seen) == len(set(seen))
        assert set(seen) <= prbs
        # only reachable users are granted
        reachable = {u.user_id for u in users if u.efficiency > 0}
        assert set(grants) <= reachable


@given(sinr_lists)
@settings(max_examples=50)
def test_full_grid_fully_used_when_someone_reachable(sinrs):
    users = [SchedulableUser(f"u{i}", s) for i, s in enumerate(sinrs)]
    prbs = frozenset(range(25))
    grants = _oracle_sets(ProportionalFairScheduler, users, prbs)
    if any(u.efficiency > 0 for u in users):
        assert frozenset().union(*grants.values()) == prbs


# -- uplink contiguity invariant ----------------------------------------------------------------

@given(sinr_lists, st.sets(st.integers(min_value=0, max_value=99),
                           max_size=60))
@settings(max_examples=50)
def test_uplink_grants_always_contiguous_and_inside(sinrs, allowed_set):
    from repro.mac.uplink import ContiguousUplinkScheduler

    users = [SchedulableUser(f"u{i}", s) for i, s in enumerate(sinrs)]
    allowed = frozenset(allowed_set)
    grants = _oracle_sets(ContiguousUplinkScheduler, users, allowed)
    seen = []
    for uid, prbs in grants.items():
        lst = sorted(prbs)
        assert lst == list(range(lst[0], lst[0] + len(lst)))  # one block
        assert frozenset(lst) <= allowed
        seen.extend(lst)
    assert len(seen) == len(set(seen))  # disjoint


# -- NR monotonicity ------------------------------------------------------------------------------

@given(st.floats(min_value=-30, max_value=40),
       st.floats(min_value=0.1, max_value=10))
def test_nr_efficiency_monotone(sinr, delta):
    from repro.phy.nr import nr_efficiency_for_sinr

    assert nr_efficiency_for_sinr(sinr) <= nr_efficiency_for_sinr(sinr + delta)


@given(st.integers(min_value=1, max_value=4096),
       st.integers(min_value=1, max_value=4096))
def test_beamforming_gain_monotone(a, b):
    from repro.phy.nr import beamforming_gain_db

    lo, hi = sorted([a, b])
    assert beamforming_gain_db(lo) <= beamforming_gain_db(hi)


# -- fairness index -------------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1,
                max_size=40))
def test_jain_bounds_property(xs):
    f = jain_fairness(xs)
    assert 1.0 / len(xs) - 1e-9 <= f <= 1.0 + 1e-9


@given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1,
                max_size=20),
       st.floats(min_value=0.01, max_value=100))
def test_jain_scale_invariance_property(xs, scale):
    assert jain_fairness(xs) == pytest.approx(
        jain_fairness([x * scale for x in xs]), rel=1e-6)


# -- address pools ------------------------------------------------------------------------------

@given(st.integers(min_value=20, max_value=28), st.data())
@settings(max_examples=30)
def test_pool_alloc_release_invariants(prefix_len, data):
    pool = AddressPool(f"10.77.0.0/{prefix_len}")
    live = set()
    for _ in range(data.draw(st.integers(0, 60), label="ops")):
        if live and data.draw(st.booleans(), label="release?"):
            addr = data.draw(st.sampled_from(sorted(live)), label="victim")
            pool.release(addr)
            live.remove(addr)
        elif pool.in_use < pool.capacity:
            addr = pool.allocate()
            assert addr not in live          # never double-allocated
            assert pool.contains(addr)       # always inside the prefix
            live.add(addr)
    assert pool.in_use == len(live)


# -- GTP tunnels ----------------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=2**32 - 1),
       st.integers(min_value=40, max_value=9000),
       st.integers(min_value=1, max_value=5))
def test_gtp_nested_roundtrip_property(teid, size, depth):
    src, dst = IP("10.0.0.1"), IP("8.8.8.8")
    packet = Packet(src=src, dst=dst, size_bytes=size)
    endpoints = []
    for level in range(depth):
        local = IP(f"172.16.0.{level + 1}")
        remote = IP(f"172.16.1.{level + 1}")
        ep = TunnelEndpoint(local)
        ep.add_tunnel(GtpTunnel(teid, local, remote))
        endpoints.append(ep)
    for ep in endpoints:
        ep.encapsulate(packet, teid)
        packet.dst = ep.address  # loop it straight back for the test
    for ep in reversed(endpoints):
        ep.decapsulate(packet)
    assert (packet.src, packet.dst, packet.size_bytes) == (src, dst, size)
    assert packet.tunnel_depth == 0


# -- simulator ordering ------------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1,
                max_size=50))
def test_simulator_executes_in_time_order(delays):
    sim = Simulator(0)
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append((sim.now, d)))
    sim.run()
    times = [t for t, _d in fired]
    assert times == sorted(times)
    assert sorted(d for _t, d in fired) == sorted(delays)
    for t, d in fired:
        assert t == d


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=10),
                          st.floats(min_value=0, max_value=10)),
                min_size=1, max_size=30))
def test_timeout_chains_accumulate(pairs):
    sim = Simulator(0)
    ends = []

    def proc(a, b):
        yield sim.timeout(a)
        yield sim.timeout(b)
        ends.append((sim.now, a + b))

    for a, b in pairs:
        sim.process(proc(a, b))
    sim.run()
    assert len(ends) == len(pairs)
    for now, expected in ends:
        assert now == pytest.approx(expected)


# -- geometry --------------------------------------------------------------------------------------------

coords = st.floats(min_value=-1e6, max_value=1e6)


@given(coords, coords, coords, coords)
def test_distance_symmetry_and_triangle(x1, y1, x2, y2):
    a, b, origin = Point(x1, y1), Point(x2, y2), Point(0, 0)
    assert a.distance_to(b) == b.distance_to(a)
    assert (a.distance_to(b)
            <= a.distance_to(origin) + origin.distance_to(b) + 1e-6)
