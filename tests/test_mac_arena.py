"""The TTI engine (per-cell UE arena) vs the scalar oracle.

The contract (see DESIGN.md / PERFORMANCE.md): a cell's per-TTI
downlink and uplink scheduling must be *bit-identical* to the scalar
walk in ``tests/reference/scalar_tti.py`` — identical delivered-bits
maps (values AND key order), identical telemetry histograms, identical
EWMA state. These tests randomize UE counts, positions, GBR/priority,
interferers and fragmented PRB masks, and drive a production cell and
an oracle-driven twin through mid-run mutations (mobility, a re-attach
with a new demand, detach, scheduler swap) asserting equality at every
TTI.
"""

import dataclasses
import random

import pytest

from repro.coordination.cooperative import CooperativeCluster
from repro.enodeb.cell import Cell, UeRadioContext
from repro.geo.points import Point
from repro.mac.schedulers import (
    MaxCiScheduler,
    ProportionalFairScheduler,
    QosAwareScheduler,
    RoundRobinScheduler,
)
from repro.mac.uplink import ContiguousUplinkScheduler
from repro.phy.bands import get_band
from repro.phy.linkbudget import LinkBudget, Radio
from repro.phy.propagation import FreeSpace, OkumuraHata
from repro.telemetry import MetricsRegistry

from tests.reference import scalar_tti
from tests.reference.scalar_tti import (
    SchedulableUser,
    allocate_packed,
    arena_rates,
    rates_of,
)

SCHEDULERS = [RoundRobinScheduler, MaxCiScheduler,
              ProportionalFairScheduler, QosAwareScheduler]

HISTOGRAMS = ("phy.sinr_db", "phy.harq.goodput_factor",
              "mac.cell.granted_prbs")


def _build_cell(sched_cls, seed, n_ue, n_inter=0, frag=False):
    """A cell plus registry with n_ue randomly-placed UEs."""
    rng = random.Random(seed)
    band = get_band("lte31")
    lb = LinkBudget(OkumuraHata(environment="open"), freq_mhz=band.dl_mhz,
                    bandwidth_hz=band.bandwidth_hz)
    reg = MetricsRegistry()
    cell = Cell("c0", band, Point(0.0, 0.0), lb, scheduler=sched_cls(),
                metrics=reg)
    cell.interferers = [
        Cell(f"i{k}", band, Point(3000.0 * (k + 1), -1200.0), lb,
             metrics=reg)
        for k in range(n_inter)]
    if frag:
        cell.allowed_prbs = frozenset(
            p for p in cell.grid.all_prbs if p % 3 != 1)
    for u in range(n_ue):
        gbr = rng.choice([0.0, 0.0, 0.0, 2e6])
        cell.add_ue(UeRadioContext(
            f"ue{u:03d}",
            Radio(Point(rng.uniform(-4000, 4000), rng.uniform(-4000, 4000)),
                  tx_power_dbm=23.0, ul_papr_advantage_db=3.0),
            gbr_bps=gbr, priority=rng.randint(1, 9)))
    return cell, reg


def _build_pair(*args, **kwargs):
    """(oracle-driven cell, production cell, their registries)."""
    ref, reg_ref = _build_cell(*args, **kwargs)
    cell, reg = _build_cell(*args, **kwargs)
    return ref, cell, reg_ref, reg


def _plain_pair(scheduler_factory, n_ue, ue_point):
    """Interference-free FreeSpace twins sharing nothing but geometry."""
    band = get_band("lte31")
    lb = LinkBudget(FreeSpace(), freq_mhz=band.dl_mhz,
                    bandwidth_hz=band.bandwidth_hz)
    cells = []
    for _ in range(2):
        cell = Cell("c0", band, Point(0.0, 0.0), lb,
                    scheduler=scheduler_factory())
        for u in range(n_ue):
            cell.add_ue(UeRadioContext(f"ue{u}", Radio(ue_point(u))))
        cells.append(cell)
    return cells


def _assert_rates_equal(ref, cell, where):
    """Every EWMA equal, both directions: the oracle's dicts against the
    production arena's columns."""
    for role in ("scheduler", "uplink_scheduler"):
        assert (rates_of(ref, getattr(ref, role))
                == arena_rates(cell, getattr(cell, role))), (where, role)


def _assert_tti_equal(ref, cell, where):
    ds = scalar_tti.schedule_tti(ref)
    db = cell.schedule_tti()
    assert ds == db, f"DL delivered mismatch at {where}"
    assert list(ds) == list(db), f"DL key order mismatch at {where}"
    us = scalar_tti.schedule_uplink_tti(ref)
    ub = cell.schedule_uplink_tti()
    assert us == ub, f"UL delivered mismatch at {where}"
    assert list(us) == list(ub), f"UL key order mismatch at {where}"


def _assert_metrics_equal(reg_a, reg_b):
    for name in HISTOGRAMS:
        ha = reg_a.histogram(name, cell="c0")
        hb = reg_b.histogram(name, cell="c0")
        assert ha.count == hb.count, name
        assert ha.sum == hb.sum, name
        assert ha.min == hb.min, name
        assert ha.max == hb.max, name
        assert ha.bucket_counts == hb.bucket_counts, name


@pytest.mark.parametrize("trial", range(12))
def test_randomized_cell_equivalence(trial):
    """Oracle and production cells stay bit-identical through mutations."""
    sched_cls = SCHEDULERS[trial % 4]
    n_ue = [0, 1, 3, 17, 40][trial % 5]
    ref, cell, reg_ref, reg = _build_pair(
        sched_cls, 1000 + trial, n_ue, n_inter=trial % 3,
        frag=trial % 2 == 0)
    for t in range(40):
        if t == 15 and n_ue > 2:
            for c, detach in ((ref, scalar_tti.remove_ue),
                              (cell, Cell.remove_ue)):
                ctx = c._ues["ue001"]
                ctx.radio.position = Point(100.0 + trial, 50.0)
                ctx = c._ues["ue002"]  # a new demand: re-attached
                detach(c, "ue002")
                c.add_ue(dataclasses.replace(ctx, gbr_bps=8e5, priority=2))
        if t == 25 and n_ue > 4:
            scalar_tti.remove_ue(ref, "ue003")
            cell.remove_ue("ue003")
        _assert_tti_equal(ref, cell, f"trial={trial} t={t}")
        _assert_rates_equal(ref, cell, f"trial={trial} t={t}")
    _assert_metrics_equal(reg_ref, reg)


def test_empty_cell():
    ref, cell, _, _ = _build_pair(RoundRobinScheduler, 1, 0)
    for t in range(3):
        _assert_tti_equal(ref, cell, f"empty t={t}")
    assert cell.schedule_tti() == {}


def test_single_ue():
    ref, cell, _, _ = _build_pair(ProportionalFairScheduler, 2, 1)
    for t in range(10):
        _assert_tti_equal(ref, cell, f"single t={t}")


def test_all_below_cqi_floor():
    """UEs out of range: nobody schedulable, still bit-identical."""
    ref, cell = _plain_pair(MaxCiScheduler, 4,
                            lambda u: Point(5e7 + u * 1e6, 5e7))
    for t in range(5):
        assert scalar_tti.schedule_tti(ref) == cell.schedule_tti() == {}
        assert (scalar_tti.schedule_uplink_tti(ref)
                == cell.schedule_uplink_tti() == {})


def test_scheduler_swap_mid_run():
    """Swapping the scheduler object mid-run gives the new one a fresh
    arena column."""
    ref, cell, _, _ = _build_pair(RoundRobinScheduler, 4, 9)
    for t in range(6):
        _assert_tti_equal(ref, cell, f"pre-swap t={t}")
    for c in (ref, cell):
        c.scheduler = QosAwareScheduler()
    for t in range(6):
        _assert_tti_equal(ref, cell, f"post-swap t={t}")
        _assert_rates_equal(ref, cell, f"post-swap t={t}")


@pytest.mark.parametrize("sched_cls", [ProportionalFairScheduler,
                                       QosAwareScheduler],
                         ids=lambda c: c.__name__)
def test_detach_reattach_drops_history(sched_cls):
    """Detach drops scheduler history in both directions: a UE that
    re-attaches to the same cell starts from a zero EWMA, downlink and
    uplink, on the arena and in the oracle alike."""
    ref, cell, _, _ = _build_pair(sched_cls, 21, 4)
    for t in range(30):
        _assert_tti_equal(ref, cell, f"pre-detach t={t}")
    assert arena_rates(cell, cell.uplink_scheduler)["ue001"] > 0
    for c, detach in ((ref, scalar_tti.remove_ue), (cell, Cell.remove_ue)):
        ctx = c._ues["ue001"]
        detach(c, "ue001")
        c.add_ue(ctx)
    for role in ("scheduler", "uplink_scheduler"):
        assert "ue001" not in rates_of(ref, getattr(ref, role))
        assert arena_rates(cell, getattr(cell, role))["ue001"] == 0.0
    for t in range(8):
        _assert_tti_equal(ref, cell, f"re-attached t={t}")
        _assert_rates_equal(ref, cell, f"re-attached t={t}")


def test_swapped_out_scheduler_releases_its_store():
    """The arena holds rate columns for the cell's current two schedulers
    only, and a detach resizes the live ones."""
    cell, _ = _build_cell(RoundRobinScheduler, 12, 6)
    arena = cell._arena
    cluster = CooperativeCluster()
    for round_ in range(4):
        old = cell.scheduler
        cluster.join(cell)  # installs a fresh QosAwareScheduler
        assert cell.scheduler is not old
        for t in range(3):
            cell.schedule_tti()
            cell.schedule_uplink_tti()
        assert set(arena._avg) == {cell.scheduler, cell.uplink_scheduler}
        cell.remove_ue(f"ue{round_:03d}")  # resizes the live columns only
        assert all(len(avg) == len(arena.ids)
                   for avg in arena._avg.values())
    rates = arena_rates(cell, cell.scheduler)
    assert list(rates) == arena.ids
    assert any(r > 0 for r in rates.values())


def test_average_rate_readable_while_batched():
    """The arena's rate column, read by user id, equals the oracle's
    EWMA after every TTI."""
    ref, cell, _, _ = _build_pair(ProportionalFairScheduler, 6, 6)
    for t in range(8):
        scalar_tti.schedule_tti(ref)
        cell.schedule_tti()
        assert (rates_of(ref, ref.scheduler)
                == arena_rates(cell, cell.scheduler)), t
    assert any(r > 0 for r in rates_of(ref, ref.scheduler).values())


def test_a_scheduler_shared_by_two_cells_keeps_a_column_per_arena():
    """One scheduler driving two cells runs on both arenas, with one rate
    column in each, and matches the oracle sharing one scheduler the
    same way."""
    band = get_band("lte31")
    lb = LinkBudget(FreeSpace(), freq_mhz=band.dl_mhz,
                    bandwidth_hz=band.bandwidth_hz)

    def two_cells():
        shared = ProportionalFairScheduler()
        cells = [Cell(name, band, Point(x, 0.0), lb, scheduler=shared)
                 for name, x in (("a", 0.0), ("b", 9000.0))]
        for i, cell in enumerate(cells):
            for u in range(3):
                cell.add_ue(UeRadioContext(
                    f"{cell.name}-u{u}",
                    Radio(Point(200.0 + i + 700.0 * u, 100.0))))
        return shared, cells

    shared, (a, b) = two_cells()
    shared_ref, (ar, br) = two_cells()
    for t in range(6):
        assert a.schedule_tti() == scalar_tti.schedule_tti(ar)
        assert b.schedule_tti() == scalar_tti.schedule_tti(br)
    assert a._arena._avg[shared] is not b._arena._avg[shared]
    by_cell = {**arena_rates(a, shared), **arena_rates(b, shared)}
    assert by_cell == {**rates_of(ar, shared_ref), **rates_of(br, shared_ref)}
    assert len(by_cell) == 6 and all(r > 0 for r in by_cell.values())


def test_a_subclassed_policy_runs_on_the_arena(monkeypatch):
    """A subclass overriding ``_assign`` runs on the arena like any
    policy and matches its scalar counterpart registered with the
    oracle."""
    calls = []

    class GreedyScheduler(MaxCiScheduler):
        def _assign(self, cols, prbs):
            calls.append(cols)
            best = max(cols.elig, key=cols.eff.__getitem__)
            return {best: len(prbs)}

    def greedy_scalar(sched, users, prbs, rates):
        best = max(users, key=lambda u: u.efficiency)
        return {best.user_id: list(prbs)}

    monkeypatch.setitem(scalar_tti.POLICIES, GreedyScheduler, greedy_scalar)
    ref, cell = _plain_pair(GreedyScheduler, 4,
                            lambda u: Point(150.0 + 40.0 * u, 80.0))
    for t in range(5):
        got = cell.schedule_tti()
        assert got and got == scalar_tti.schedule_tti(ref)
    assert len(calls) == 5
    assert all(cols.ids is cell._arena.ids for cols in calls)


@pytest.mark.parametrize("sched_cls", SCHEDULERS + [ContiguousUplinkScheduler],
                         ids=lambda c: c.__name__)
def test_allocate_columns_matches_the_oracle(sched_cls):
    """The front door on arena state agrees with the oracle on the same
    users and averages: with the sizes of the scalar ``allocate``'s PRB
    sets and with ``allocate_columns`` over the oracle's packed
    columns."""
    cell, _ = _build_cell(RoundRobinScheduler, 77, 23)
    cell.scheduler = sched_cls()
    arena = cell._arena
    uplink = sched_cls is ContiguousUplinkScheduler
    bank = (arena.refresh_uplink() if uplink
            else arena.refresh_downlink())
    prbs = sorted(cell.allowed_prbs)
    for round_ in range(5):
        # mirror scheduler state: fresh twins fed the same averages
        twins = [sched_cls(), sched_cls()]
        for twin in twins:
            if isinstance(twin, RoundRobinScheduler):
                twin._next = cell.scheduler._next
        averages = arena_rates(cell, cell.scheduler)
        scalar_rates, packed_rates = dict(averages), dict(averages)
        users = [SchedulableUser(
                     user_id=uid, sinr_db=bank.sinr[s],
                     gbr_bps=arena.gbr[s], priority=arena.priority[s])
                 for s, uid in enumerate(arena.ids)]
        expected = scalar_tti.grant_counts(scalar_tti.allocate(
            twins[0], users, frozenset(prbs), scalar_rates))
        packed = allocate_packed(twins[1], users, frozenset(prbs),
                                 packed_rates)
        got = cell.scheduler.allocate_columns(
            arena.columns(bank, cell.scheduler), frozenset(prbs))
        assert got == packed == expected, f"round {round_}"
        assert list(got) == list(packed) == list(expected), (
            f"round {round_} key order")
        assert (arena_rates(cell, cell.scheduler) == scalar_rates
                == packed_rates), round_
        # fragment the allowed set for later rounds
        prbs = [p for p in prbs if (p + round_) % 4 != 2] or prbs


def test_arena_tracks_attach_detach():
    cell, _ = _build_cell(RoundRobinScheduler, 8, 5)
    arena = cell._arena
    assert arena.ids == [f"ue{u:03d}" for u in range(5)]
    cell.remove_ue("ue002")
    assert arena.ids == ["ue000", "ue001", "ue003", "ue004"]
    assert [arena.slot_of[u] for u in arena.ids] == [0, 1, 2, 3]
    cell.add_ue(UeRadioContext(
        "ue009", Radio(Point(10.0, 10.0)), gbr_bps=1e5))
    assert arena.ids[-1] == "ue009"
    assert arena.slot_of["ue009"] == 4


def test_observe_many_matches_sequential_observe():
    import numpy as np
    rng = random.Random(11)
    vals = [rng.uniform(-40.0, 60.0) for _ in range(500)]
    for quantiles in (None, (0.5, 0.99)):  # bucket-derived and declared
        ha = MetricsRegistry().histogram("x", quantiles=quantiles)
        hb = MetricsRegistry().histogram("x", quantiles=quantiles)
        for v in vals:
            ha.observe(v)
        for lo in range(0, 500, 37):  # uneven chunks: boundary-independent
            hb.observe_binned(hb.bin(np.array(vals[lo:lo + 37])))
        assert ha.count == hb.count
        assert ha.sum == hb.sum
        assert ha.min == hb.min and ha.max == hb.max
        assert ha.bucket_counts == hb.bucket_counts
        assert ha.row() == hb.row()
