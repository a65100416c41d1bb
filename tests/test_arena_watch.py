"""Watch hygiene: push invalidation cannot go silently stale, and the
hooks never leak an arena into a copy.

A cell's arena learns that a UE's inputs moved from watchers it hangs on
the ``UeRadioContext`` and its ``Radio`` at attach (see
``repro.phy.linkbudget.Watched``): a radio write marks the row for the
next refresh, a context write is synced into the demand columns on the
spot. These tests hold the edges of that arrangement: who hears a write,
who stops hearing, and what a copy of a watched object carries.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.enodeb.cell import Cell, UeRadioContext
from repro.geo.points import Point
from repro.phy.bands import get_band
from repro.phy.linkbudget import LinkBudget, Radio
from repro.phy.propagation import FreeSpace
from repro.telemetry import MetricsRegistry

from tests.reference import scalar_tti


def _cell(name, x=0.0):
    band = get_band("lte31")
    lb = LinkBudget(FreeSpace(), freq_mhz=band.dl_mhz,
                    bandwidth_hz=band.bandwidth_hz)
    return Cell(name, band, Point(x, 0.0), lb, metrics=MetricsRegistry())


def _ctx(uid="u0", radio=None):
    return UeRadioContext(uid, radio or Radio(Point(300.0, 40.0)))


def _run(cell):
    return cell.schedule_tti(), cell.schedule_uplink_tti()


def _fresh(cell):
    """What the scalar oracle delivers on a never-scheduled twin."""
    twin = _cell(cell.name, cell.position.x)
    for ctx in cell._ues.values():
        twin.add_ue(copy.deepcopy(ctx))  # unwatched, its own radio
    return scalar_tti.schedule_tti(twin), scalar_tti.schedule_uplink_tti(twin)


COPIES = [
    pytest.param(lambda o: pickle.loads(pickle.dumps(o)), id="pickle"),
    pytest.param(copy.copy, id="copy"),
    pytest.param(copy.deepcopy, id="deepcopy"),
    pytest.param(dataclasses.replace, id="replace"),
]


@pytest.mark.parametrize("clone", COPIES)
def test_copy_of_watched_radio_is_unwatched_and_equal(clone):
    cell = _cell("a")
    radio = Radio(Point(300.0, 40.0), tx_power_dbm=20.0)
    cell.add_ue(_ctx(radio=radio))
    assert radio._watchers
    twin = clone(radio)
    assert twin == radio and twin is not radio
    assert not twin._watchers
    twin.position = Point(1.0, 2.0)  # reaches no arena
    assert not cell._arena._touched
    assert radio.position == Point(300.0, 40.0)


@pytest.mark.parametrize("clone", COPIES)
def test_copy_of_watched_context_is_unwatched_and_equal(clone):
    cell = _cell("a")
    ctx = _ctx()
    cell.add_ue(ctx)
    twin = clone(ctx)
    assert twin == ctx and twin is not ctx
    assert not twin._watchers
    twin.backlog_bits = 7.0
    if twin.radio is not ctx.radio:  # a deep copy has its own, unwatched
        twin.radio.position = Point(1.0, 2.0)
    assert not cell._arena._touched
    assert cell._arena.backlog.tolist() == [float("inf")]


def test_pickle_of_watched_radio_carries_no_arena():
    radio = Radio(Point(300.0, 40.0))
    plain = pickle.dumps(radio)
    _cell("a").add_ue(_ctx(radio=radio))
    assert pickle.dumps(radio) == plain
    assert "_watchers" not in copy.copy(radio).__dict__


@pytest.mark.parametrize("clone", COPIES[:3])
def test_copy_of_a_cell_watches_its_own_contexts(clone):
    """The copy's contexts arrive unwatched; its arena re-hooks them and
    re-binds its columns, so it neither goes stale nor marks the
    original."""
    cell = _cell("a")
    for u in range(3):
        cell.add_ue(_ctx(f"u{u}", Radio(Point(300.0 + 50.0 * u, 40.0))))
    _run(cell)
    twin = clone(cell)
    if clone is copy.copy:  # shallow: same arena, same contexts
        assert twin._arena is cell._arena
        return
    twin._ues["u1"].radio.position = Point(5e7, 5e7)  # out of range
    assert twin._arena._touched == {"u1"} and not cell._arena._touched
    assert set(_run(twin)[0]) == {"u0", "u2"}
    assert set(_run(cell)[0]) == {"u0", "u1", "u2"}
    twin.add_ue(_ctx("u3", Radio(Point(80.0, 10.0))))  # re-takes the views
    assert set(_run(twin)[0]) == {"u0", "u2", "u3"}
    assert twin._arena.dl.sinr.base is twin._arena._block


def test_shared_radio_marks_both_cells():
    a, b = _cell("a"), _cell("b", 2500.0)
    radio = Radio(Point(300.0, 40.0))
    a.add_ue(_ctx("ua", radio))
    b.add_ue(_ctx("ub", radio))
    _run(a), _run(b)
    radio.position = Point(1800.0, -60.0)
    assert a._arena._touched == {"ua"} and b._arena._touched == {"ub"}
    assert _run(a) == _fresh(a)
    assert _run(b) == _fresh(b)


def test_detach_unhooks():
    cell = _cell("a")
    ctx = _ctx()
    cell.add_ue(ctx)
    ctx.radio.position = Point(10.0, 10.0)  # marked, then detached
    assert cell._arena._touched == {"u0"}
    cell.remove_ue("u0")
    assert not cell._arena._touched
    assert not ctx._watchers and not ctx.radio._watchers
    ctx.radio.position = Point(50.0, 50.0)
    ctx.gbr_bps = 1e6
    assert not cell._arena._touched
    cell.add_ue(ctx)  # re-attach reads the context as it is now
    assert _run(cell) == _fresh(cell)


def test_replacing_the_radio_moves_the_hook():
    cell = _cell("a")
    ctx = _ctx()
    old = ctx.radio
    cell.add_ue(ctx)
    _run(cell)
    ctx.radio = Radio(Point(900.0, 10.0))
    assert not old._watchers and len(ctx.radio._watchers) == 1
    assert _run(cell) == _fresh(cell)
    old.position = Point(1.0, 1.0)
    assert not cell._arena._touched
    ctx.radio.position = Point(1200.0, 10.0)
    assert cell._arena._touched == {"u0"}
    assert _run(cell) == _fresh(cell)


def test_equal_write_dirties_nothing():
    cell = _cell("a")
    ctx = _ctx()
    cell.add_ue(ctx)
    _run(cell)
    arena = cell._arena
    ctx.radio.position = Point(300.0, 40.0)
    ctx.radio.tx_power_dbm = ctx.radio.tx_power_dbm
    ctx.backlog_bits = ctx.backlog_bits
    ctx.radio = ctx.radio
    assert arena._touched == {"u0"}  # marked ...
    sig = arena._sigs[0]
    arena.refresh_downlink()
    assert not arena._touched
    assert arena._sigs[0] is sig  # ... compared, and found unchanged
    assert not arena.ul.dirty.any()


def test_one_context_on_two_cells_marks_both():
    """Never last-owner-wins: each cell hangs its own watcher."""
    a, b = _cell("a"), _cell("b", 2500.0)
    ctx = _ctx()
    a.add_ue(ctx)
    b.add_ue(ctx)
    _run(a), _run(b)
    ctx.backlog_bits = 0.0
    assert a._arena.backlog.tolist() == b._arena.backlog.tolist() == [0.0]
    ctx.radio.position = Point(2000.0, 30.0)
    assert a._arena._touched == b._arena._touched == {"u0"}
    assert _run(a) == _fresh(a) == ({}, {})
    assert _run(b) == _fresh(b)
    ctx.radio = Radio(Point(400.0, 0.0))  # both hooks move
    ctx.backlog_bits = float("inf")
    assert _run(a) == _fresh(a) != ({}, {})
    assert _run(b) == _fresh(b)
    a.remove_ue("u0")  # b keeps watching
    ctx.radio.position = Point(2400.0, 0.0)
    assert not a._arena._touched and b._arena._touched == {"u0"}
    assert _run(b) == _fresh(b)
    with pytest.raises(ValueError):
        b.add_ue(ctx)  # twice on ONE cell stays an error
