"""Batch TTI engine (per-cell UE arena) vs scalar reference path.

The contract (see DESIGN.md / PERFORMANCE.md): with ``batch=True`` a
cell's per-TTI downlink and uplink scheduling must be *bit-identical*
to the scalar reference — identical grant maps (values AND key order),
identical delivered-bits maps, identical telemetry histograms. These
tests randomize UE counts, positions, backlogs, GBR/priority, HARQ,
interferers and fragmented PRB masks, and drive paired scalar/batch
cells through mid-run mutations (mobility, backlog changes, detach,
scheduler swap) asserting equality at every TTI.
"""

import random

import pytest

from repro.enodeb.cell import Cell, UeRadioContext
from repro.geo.points import Point
from repro.mac import batch_default, batch_mode, set_batch_default
from repro.mac.schedulers import (
    MaxCiScheduler,
    ProportionalFairScheduler,
    QosAwareScheduler,
    RoundRobinScheduler,
    SchedulableUser,
)
from repro.mac.uplink import ContiguousUplinkScheduler
from repro.phy.bands import get_band
from repro.phy.linkbudget import LinkBudget, Radio
from repro.phy.propagation import FreeSpace, OkumuraHata
from repro.telemetry import MetricsRegistry

SCHEDULERS = [RoundRobinScheduler, MaxCiScheduler,
              ProportionalFairScheduler, QosAwareScheduler]

HISTOGRAMS = ("phy.sinr_db", "phy.harq.goodput_factor",
              "mac.cell.granted_prbs")


def _build_cell(batch, sched_cls, seed, n_ue, harq=True, n_inter=0,
                frag=False):
    """A cell plus registry with n_ue randomly-placed UEs."""
    rng = random.Random(seed)
    band = get_band("lte31")
    lb = LinkBudget(OkumuraHata(environment="open"), freq_mhz=band.dl_mhz,
                    bandwidth_hz=band.bandwidth_hz)
    reg = MetricsRegistry()
    cell = Cell("c0", band, Point(0.0, 0.0), lb, scheduler=sched_cls(),
                harq_enabled=harq, metrics=reg, batch=batch)
    cell.interferers = [
        Cell(f"i{k}", band, Point(3000.0 * (k + 1), -1200.0), lb,
             metrics=reg, batch=batch)
        for k in range(n_inter)]
    if frag:
        cell.allowed_prbs = frozenset(
            p for p in cell.grid.all_prbs if p % 3 != 1)
    for u in range(n_ue):
        backlog = rng.choice([float("inf"), float("inf"), 5e5, 0.0])
        gbr = rng.choice([0.0, 0.0, 0.0, 2e6])
        cell.add_ue(UeRadioContext(
            f"ue{u:03d}",
            Radio(Point(rng.uniform(-4000, 4000), rng.uniform(-4000, 4000)),
                  tx_power_dbm=23.0, ul_papr_advantage_db=3.0),
            backlog_bits=backlog, gbr_bps=gbr, priority=rng.randint(1, 9)))
    return cell, reg


def _assert_tti_equal(scalar_cell, batch_cell, where):
    ds = scalar_cell.schedule_tti()
    db = batch_cell.schedule_tti()
    assert ds == db, f"DL delivered mismatch at {where}"
    assert list(ds) == list(db), f"DL key order mismatch at {where}"
    us = scalar_cell.schedule_uplink_tti()
    ub = batch_cell.schedule_uplink_tti()
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
    """Paired scalar/batch cells stay bit-identical through mutations."""
    sched_cls = SCHEDULERS[trial % 4]
    seed = 1000 + trial
    n_ue = [0, 1, 3, 17, 40][trial % 5]
    harq = trial % 3 != 0
    n_inter = trial % 3
    frag = trial % 2 == 0
    scalar, reg_s = _build_cell(False, sched_cls, seed, n_ue, harq,
                                n_inter, frag)
    batch, reg_b = _build_cell(True, sched_cls, seed, n_ue, harq,
                               n_inter, frag)
    for t in range(40):
        if t == 15 and n_ue > 2:
            for cell in (scalar, batch):
                ctx = cell._ues["ue001"]
                ctx.radio.position = Point(100.0 + trial, 50.0)
                cell._ues["ue002"].backlog_bits = 8e5
        if t == 25 and n_ue > 4:
            for cell in (scalar, batch):
                cell.remove_ue("ue003")
        _assert_tti_equal(scalar, batch, f"trial={trial} t={t}")
    _assert_metrics_equal(reg_s, reg_b)


def test_empty_cell():
    scalar, _ = _build_cell(False, RoundRobinScheduler, 1, 0)
    batch, _ = _build_cell(True, RoundRobinScheduler, 1, 0)
    for t in range(3):
        _assert_tti_equal(scalar, batch, f"empty t={t}")
    assert batch.schedule_tti() == {}


def test_single_ue():
    scalar, _ = _build_cell(False, ProportionalFairScheduler, 2, 1)
    batch, _ = _build_cell(True, ProportionalFairScheduler, 2, 1)
    for t in range(10):
        _assert_tti_equal(scalar, batch, f"single t={t}")


def test_all_below_cqi_floor():
    """UEs out of range: nobody schedulable, still bit-identical."""
    band = get_band("lte31")
    lb = LinkBudget(FreeSpace(), freq_mhz=band.dl_mhz,
                    bandwidth_hz=band.bandwidth_hz)
    cells = []
    for b in (False, True):
        cell = Cell("c0", band, Point(0.0, 0.0), lb,
                    scheduler=MaxCiScheduler(), batch=b)
        for u in range(4):
            cell.add_ue(UeRadioContext(
                f"ue{u}", Radio(Point(5e7 + u * 1e6, 5e7)),
                backlog_bits=float("inf")))
        cells.append(cell)
    scalar, batch = cells
    for t in range(5):
        ds, db = scalar.schedule_tti(), batch.schedule_tti()
        assert ds == db == {}
        us, ub = scalar.schedule_uplink_tti(), batch.schedule_uplink_tti()
        assert us == ub == {}


def test_zero_backlog_everywhere():
    scalar, _ = _build_cell(False, QosAwareScheduler, 3, 0)
    batch, _ = _build_cell(True, QosAwareScheduler, 3, 0)
    for cell in (scalar, batch):
        for u in range(5):
            cell.add_ue(UeRadioContext(
                f"ue{u}", Radio(Point(100.0 * u, 200.0)),
                backlog_bits=0.0))
    for t in range(4):
        _assert_tti_equal(scalar, batch, f"zero-backlog t={t}")


def test_scheduler_swap_mid_run():
    """Swapping the scheduler object mid-run re-binds the arena store."""
    scalar, _ = _build_cell(False, RoundRobinScheduler, 4, 9)
    batch, _ = _build_cell(True, RoundRobinScheduler, 4, 9)
    for t in range(6):
        _assert_tti_equal(scalar, batch, f"pre-swap t={t}")
    for cell in (scalar, batch):
        cell.scheduler = QosAwareScheduler()
    for t in range(6):
        _assert_tti_equal(scalar, batch, f"post-swap t={t}")


def test_batch_toggle_preserves_averages():
    """batch=False mid-run syncs EWMA arrays back to scheduler dicts."""
    ref, _ = _build_cell(False, ProportionalFairScheduler, 5, 8)
    cell, _ = _build_cell(True, ProportionalFairScheduler, 5, 8)
    for t in range(10):
        ref.schedule_tti()
        cell.schedule_tti()
    cell.batch = False
    for uid in cell._ues:
        assert (cell.scheduler.average_rate_bps(uid)
                == ref.scheduler.average_rate_bps(uid)), uid
    for t in range(10):
        assert ref.schedule_tti() == cell.schedule_tti()


def test_average_rate_readable_while_batched():
    """average_rate_bps must read through the arena array store."""
    scalar, _ = _build_cell(False, ProportionalFairScheduler, 6, 6)
    batch, _ = _build_cell(True, ProportionalFairScheduler, 6, 6)
    for t in range(8):
        scalar.schedule_tti()
        batch.schedule_tti()
        for uid in scalar._ues:
            assert (scalar.scheduler.average_rate_bps(uid)
                    == batch.scheduler.average_rate_bps(uid)), (t, uid)


def test_shared_scheduler_falls_back_to_scalar():
    """One scheduler driving two batch cells must not corrupt state:
    the second cell detects foreign store ownership and goes scalar."""
    band = get_band("lte31")
    lb = LinkBudget(FreeSpace(), freq_mhz=band.dl_mhz,
                    bandwidth_hz=band.bandwidth_hz)
    shared = ProportionalFairScheduler()
    a = Cell("a", band, Point(0.0, 0.0), lb, scheduler=shared, batch=True)
    b = Cell("b", band, Point(9000.0, 0.0), lb, scheduler=shared, batch=True)
    for i, cell in enumerate((a, b)):
        cell.add_ue(UeRadioContext(
            f"{cell.name}-u", Radio(Point(200.0 + i, 100.0)),
            backlog_bits=float("inf")))
    # reference: same topology, scalar everywhere
    shared_ref = ProportionalFairScheduler()
    ar = Cell("a", band, Point(0.0, 0.0), lb, scheduler=shared_ref,
              batch=False)
    br = Cell("b", band, Point(9000.0, 0.0), lb, scheduler=shared_ref,
              batch=False)
    for i, cell in enumerate((ar, br)):
        cell.add_ue(UeRadioContext(
            f"{cell.name}-u", Radio(Point(200.0 + i, 100.0)),
            backlog_bits=float("inf")))
    for t in range(6):
        assert a.schedule_tti() == ar.schedule_tti()
        assert b.schedule_tti() == br.schedule_tti()


def test_subclassed_scheduler_not_batched():
    """A subclass overriding _assign must never take the batch twin."""
    class GreedyScheduler(MaxCiScheduler):
        def _assign(self, users, prbs):
            best = max(users, key=lambda u: u.efficiency)
            return {best.user_id: list(prbs)}

    band = get_band("lte31")
    lb = LinkBudget(FreeSpace(), freq_mhz=band.dl_mhz,
                    bandwidth_hz=band.bandwidth_hz)
    cells = []
    for b in (False, True):
        cell = Cell("c0", band, Point(0.0, 0.0), lb,
                    scheduler=GreedyScheduler(), batch=b)
        for u in range(4):
            cell.add_ue(UeRadioContext(
                f"ue{u}", Radio(Point(150.0 + 40.0 * u, 80.0)),
                backlog_bits=float("inf")))
        cells.append(cell)
    scalar, batch = cells
    for t in range(5):
        assert scalar.schedule_tti() == batch.schedule_tti()


@pytest.mark.parametrize("sched_cls", SCHEDULERS + [ContiguousUplinkScheduler],
                         ids=lambda c: c.__name__)
def test_allocate_batch_matches_allocate(sched_cls):
    """Direct allocate() vs allocate_batch() on the same arena state."""
    rng = random.Random(77)
    cell, _ = _build_cell(True, RoundRobinScheduler, 77, 23)
    cell.scheduler = sched_cls()
    arena = cell._arena
    uplink = sched_cls is ContiguousUplinkScheduler
    bank = (arena.refresh_uplink() if uplink
            else arena.refresh_downlink())
    prbs = sorted(cell.allowed_prbs)
    for round_ in range(5):
        # mirror scheduler state: fresh twin fed the same averages
        twin = sched_cls()
        twin._avg_rate_bps = {
            uid: cell.scheduler.average_rate_bps(uid) for uid in arena.ids}
        users = []
        for s, uid in enumerate(arena.ids):
            if bank.eff[s] > 0.0 and arena.backlog[s] > 0.0:
                users.append(SchedulableUser(
                    user_id=uid, sinr_db=bank.sinr_l[s],
                    backlog_bits=arena.backlog[s],
                    gbr_bps=arena.gbr[s], priority=arena.priority[s]))
        if isinstance(twin, RoundRobinScheduler):
            twin._next = cell.scheduler._next
        expected = twin.allocate(users, frozenset(prbs))
        got = cell.scheduler.allocate_batch(arena, bank, frozenset(prbs))
        assert got == expected, f"round {round_}"
        assert list(got) == list(expected), f"round {round_} key order"
        # fragment the allowed set for later rounds
        prbs = [p for p in prbs if (p + round_) % 4 != 2] or prbs


def test_arena_tracks_attach_detach():
    cell, _ = _build_cell(True, RoundRobinScheduler, 8, 5)
    arena = cell._arena
    assert arena.ids == [f"ue{u:03d}" for u in range(5)]
    cell.remove_ue("ue002")
    assert arena.ids == ["ue000", "ue001", "ue003", "ue004"]
    assert [arena.slot_of[u] for u in arena.ids] == [0, 1, 2, 3]
    cell.add_ue(UeRadioContext(
        "ue009", Radio(Point(10.0, 10.0)), backlog_bits=1e5))
    assert arena.ids[-1] == "ue009"
    assert arena.slot_of["ue009"] == 4


def test_batch_mode_context_manager():
    with batch_mode(False):
        cell, _ = _build_cell(None, RoundRobinScheduler, 9, 2)
        assert cell.batch is False
    with batch_mode(True):
        cell, _ = _build_cell(None, RoundRobinScheduler, 9, 2)
        assert cell.batch is True


def test_env_default(monkeypatch):
    import repro.mac.arena as arena_mod
    for raw, expected in (("0", False), ("false", False), ("off", False),
                          ("no", False), ("1", True), ("yes", True)):
        monkeypatch.setenv("REPRO_BATCH_TTI", raw)
        assert arena_mod._env_default() is expected, raw
    monkeypatch.delenv("REPRO_BATCH_TTI")
    assert arena_mod._env_default() is True
    prev = set_batch_default(False)
    assert batch_default() is False
    set_batch_default(prev)
    assert batch_default() is prev


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
            hb.observe_many(np.array(vals[lo:lo + 37]))
        assert ha.count == hb.count
        assert ha.sum == hb.sum
        assert ha.min == hb.min and ha.max == hb.max
        assert ha.bucket_counts == hb.bucket_counts
        assert ha.row() == hb.row()
