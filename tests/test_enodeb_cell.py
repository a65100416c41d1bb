"""Unit tests for the radio cell (repro.enodeb.cell)."""

import pytest

from repro.enodeb.cell import Cell, UeRadioContext
from repro.geo import Point
from repro.phy import (
    LinkBudget,
    OkumuraHata,
    Radio,
    ShadowingField,
    get_band,
)
from repro.phy.linkbudget import _LOSS_CACHE_MAX
from repro.phy.resource_grid import bits_per_prb


def _cell(x=0.0, harq=True, **kw):
    band = get_band("lte5")
    budget = LinkBudget(OkumuraHata(environment="open"), band.dl_mhz,
                        band.bandwidth_hz)
    return Cell(f"cell@{x}", band, Point(x, 0), budget, harq_enabled=harq,
                **kw)


def _ue(ue_id, x, **kw):
    return UeRadioContext(ue_id, Radio(Point(x, 100), tx_power_dbm=23), **kw)


def test_add_remove_ue():
    cell = _cell()
    cell.add_ue(_ue("a", 500))
    assert cell.attached_ues == ["a"]
    with pytest.raises(ValueError):
        cell.add_ue(_ue("a", 600))
    cell.remove_ue("a")
    assert cell.attached_ues == []
    cell.remove_ue("a")  # idempotent


def test_rsrp_decreases_with_distance():
    cell = _cell()
    near = Radio(Point(300, 0), tx_power_dbm=23)
    far = Radio(Point(8000, 0), tx_power_dbm=23)
    assert cell.rsrp_to(near) > cell.rsrp_to(far)


def test_sinr_accounts_for_interferers():
    cell = _cell()
    rival = _cell(x=1200)
    ue = Radio(Point(600, 50), tx_power_dbm=23)
    clean = cell.sinr_to(ue)
    cell.interferers = [rival]
    assert cell.sinr_to(ue) < clean


def test_schedule_tti_delivers_bits():
    cell = _cell()
    cell.add_ue(_ue("near", 400))
    delivered = cell.schedule_tti()
    assert delivered["near"] > 0
    # a near UE at 50 PRBs x CQI15 x ~1000 bits/PRB: bounded sanity
    assert delivered["near"] <= 50 * bits_per_prb(5.5547)


def test_schedule_tti_empty_cell():
    assert _cell().schedule_tti() == {}


def test_unreachable_ue_gets_nothing():
    cell = _cell()
    cell.add_ue(_ue("moon", 90_000))  # beyond the link budget
    assert cell.schedule_tti() == {}


def test_allowed_prbs_cap_throughput():
    full = _cell()
    full.add_ue(_ue("u", 500))
    half = _cell()
    half.add_ue(_ue("u", 500))
    half.allowed_prbs = frozenset(range(25))
    full_bits = full.schedule_tti()["u"]
    half_bits = half.schedule_tti()["u"]
    assert half_bits == pytest.approx(full_bits / 2, rel=0.05)


def test_harq_factor_reduces_weak_ue_goodput():
    with_harq = _cell(harq=True)
    plain = _cell(harq=False)
    for cell in (with_harq, plain):
        cell.add_ue(_ue("edge", 30_000))  # weak but alive
    w = with_harq.schedule_tti().get("edge", 0.0)
    p = plain.schedule_tti().get("edge", 0.0)
    # HARQ-adjusted goodput is below the raw MCS rate and below the
    # no-HARQ nominal (which ignores losses entirely in this model)
    assert 0 < w < p


def test_throughput_aggregation():
    cell = _cell()
    cell.add_ue(_ue("a", 400))
    results = [cell.schedule_tti() for _ in range(100)]
    rates = cell.throughput_bps(results)
    # 100 TTIs = 0.1 s; bits/TTI * 1000 = bps
    per_tti = sum(r.get("a", 0.0) for r in results) / 100
    assert rates["a"] == pytest.approx(per_tti * 1000)
    assert cell.throughput_bps([]) == {}


def test_uplink_tti_delivers_contiguous_blocks():
    cell = _cell()
    cell.add_ue(_ue("a", 400))
    cell.add_ue(_ue("b", 900))
    delivered = cell.schedule_uplink_tti()
    assert set(delivered) == {"a", "b"}
    assert all(bits > 0 for bits in delivered.values())


def test_uplink_weaker_than_downlink_at_range():
    """The asymmetry §3.2 designs around: the UE's 23 dBm PA vs the
    eNodeB's 43 dBm + antenna gain."""
    cell = _cell()
    cell.add_ue(_ue("edge", 15_000))
    down = cell.schedule_tti().get("edge", 0.0)
    up = cell.schedule_uplink_tti().get("edge", 0.0)
    assert up < down


def test_uplink_papr_credit_helps():
    cell_sc = _cell()
    cell_sc.add_ue(UeRadioContext(
        "u", Radio(Point(20_000, 100), tx_power_dbm=23,
                   ul_papr_advantage_db=3.0)))
    cell_ofdm = _cell()
    cell_ofdm.add_ue(UeRadioContext(
        "u", Radio(Point(20_000, 100), tx_power_dbm=23,
                   ul_papr_advantage_db=0.0)))
    sc = cell_sc.schedule_uplink_tti().get("u", 0.0)
    ofdm = cell_ofdm.schedule_uplink_tti().get("u", 0.0)
    assert sc > ofdm


def test_scheduler_state_cleared_on_remove():
    cell = _cell()
    cell.add_ue(_ue("a", 400))
    for _ in range(10):
        cell.schedule_tti()
    assert cell.scheduler.average_rate_bps("a") > 0
    cell.remove_ue("a")
    assert cell.scheduler.average_rate_bps("a") == 0.0


def test_path_loss_memo_is_bounded_and_transparent():
    """Moving UEs on scalar-fallback rows (here: shadowing) hand the
    budget's path-loss memo a distance per UE per TTI that never recurs.
    The memo must stay within its bound, and every TTI must deliver what
    a budget that remembers nothing delivers."""
    cells = [_cell(), _cell()]
    for cell in cells:
        cell.link_budget.shadowing = ShadowingField(sigma_db=6.0, seed=4)
        for u in range(48):
            cell.add_ue(_ue(f"ue{u:02d}", 300.0 + 40.0 * u))
    memo, forgetful = (cell.link_budget._loss_cache for cell in cells)
    distances = 0
    for tti in range(90):
        for cell in cells:
            for ctx in cell._ues.values():
                ctx.radio.position = ctx.radio.position.offset(0.7, 0.3)
        forgetful.clear()
        assert cells[0].schedule_tti() == cells[1].schedule_tti()
        forgetful.clear()
        assert (cells[0].schedule_uplink_tti()
                == cells[1].schedule_uplink_tti())
        distances += 48
        assert len(memo) <= _LOSS_CACHE_MAX
    assert distances > _LOSS_CACHE_MAX  # the memo was cleared on the way
    probe = Radio(Point(777.0, 100.0), tx_power_dbm=23)
    forgetful.clear()
    assert cells[0].sinr_to(probe) == cells[1].sinr_to(probe)
