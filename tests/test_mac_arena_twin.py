"""Differential test: the arena ``Cell`` against the scalar TTI oracle.

Twin cells are built from the same inputs; one is scheduled by
``Cell.schedule_tti`` / ``schedule_uplink_tti`` (the UE arena), the
other by ``tests/reference/scalar_tti.py``. A random interleaving of
everything that can invalidate arena state — attach, detach of the
first / a middle / the last slot, moves, radio re-parameterisation,
scheduler swaps (to a fresh one or back to the one the last swap took
out), downlink interferer churn, cell power and PRB masks — is applied
to both, with a downlink and an uplink TTI after every step. A context
is frozen, so a new radio, GBR or priority reaches a UE the way
production gives it one: a detach, then an attach of a fresh context.
Delivered maps must be equal to the key order and every EWMA equal, so
a row that kept a stale SINR, or a column that slipped a slot when the
block grew or closed a gap, shows up at the step that caused it.

Two ops are aimed at what the arena reuses between TTIs (the scheduler
columns, kept while the bank stands still): ``demand`` re-attaches two
UEs with a new GBR and priority, so the demand moves with the slots,
and ``prb_swap`` runs one more downlink TTI and then hands the cell a
new allowed set, so the set changes between two TTIs over unchanged
columns. A columns cache that attach and detach did not move fails on
the first.
"""

import dataclasses
from weakref import WeakKeyDictionary

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enodeb.cell import Cell, UeRadioContext
from repro.geo.points import Point
from repro.phy.linkbudget import Radio
from repro.telemetry import MetricsRegistry

from tests.reference import scalar_tti
from tests.test_mac_arena import (
    SCHEDULERS,
    _assert_metrics_equal,
    _assert_rates_equal,
    _assert_tti_equal,
    _build_pair,
)

STRUCTURAL = ("attach", "detach_first", "detach_middle", "detach_last")
PER_UE = ("move", "replace_radio", "reparam", "gbr", "priority")
PER_CELL = ("swap_scheduler", "dl_interferer", "cell_power", "prb_mask")
#: what the reused columns must hear of: a demand-only re-attach, and an
#: allowed set swapped between two TTIs
REUSE = ("demand", "prb_swap")

steps = st.tuples(st.sampled_from(STRUCTURAL + PER_UE + PER_CELL + REUSE),
                  st.integers(min_value=0, max_value=10**6),
                  st.floats(min_value=-4000.0, max_value=4000.0),
                  st.floats(min_value=30.0, max_value=4000.0))


#: how each twin detaches (oracle, production): the oracle's detach also
#: forgets the UE's rates, as the arena drops the row
DETACH = (scalar_tti.remove_ue, Cell.remove_ue)

#: cell -> the downlink scheduler the last swap took out of it
_SWAPPED_OUT: "WeakKeyDictionary[Cell, object]" = WeakKeyDictionary()


def _reattach(cell, detach, ctx, **changes):
    """Give a UE a new radio or demand as production does: detach it and
    attach a fresh context."""
    detach(cell, ctx.ue_id)
    cell.add_ue(dataclasses.replace(ctx, **changes))


def _apply(cell, detach, op, pick, x, y, tag):
    """Apply one step to ``cell``; every choice derives from the drawn
    values and the cell's own state, so twins stay in lockstep."""
    if op == "attach":
        cell.add_ue(UeRadioContext(
            f"new{tag:02d}",
            Radio(Point(x, y), tx_power_dbm=23.0, ul_papr_advantage_db=3.0),
            gbr_bps=(0.0, 2e6)[pick % 2], priority=1 + pick % 9))
    elif op in STRUCTURAL:
        uids = list(cell._ues)
        if uids:
            slot = {"detach_first": 0, "detach_middle": len(uids) // 2,
                    "detach_last": -1}[op]
            detach(cell, uids[slot])
    elif op in PER_UE:
        ctxs = list(cell._ues.values())
        if not ctxs:
            return
        ctx = ctxs[pick % len(ctxs)]
        if op == "move":
            ctx.radio.position = Point(x, y)
        elif op == "replace_radio":
            _reattach(cell, detach, ctx,
                      radio=Radio(Point(x, y), tx_power_dbm=20.0))
        elif op == "reparam":
            ctx.radio.tx_power_dbm = 10.0 + pick % 14
            ctx.radio.antenna_gain_dbi = float(pick % 5)
            ctx.radio.noise_figure_db = 5.0 + pick % 4
            ctx.radio.cable_loss_db = 0.5 * (pick % 3)
        elif op == "gbr":
            _reattach(cell, detach, ctx, gbr_bps=(0.0, 2e6, 5e5)[pick % 3])
        else:
            _reattach(cell, detach, ctx, priority=1 + pick % 9)
    elif op == "swap_scheduler":
        previous = _SWAPPED_OUT.get(cell)
        _SWAPPED_OUT[cell] = cell.scheduler
        if previous is not None and pick % 3 == 0:
            cell.scheduler = previous  # its rates went with it
        else:
            cell.scheduler = SCHEDULERS[pick % 4]()
    elif op == "dl_interferer":  # mutated in place, as coordination does
        if cell.interferers and pick % 2:
            cell.interferers.pop(pick % len(cell.interferers))
        else:
            cell.interferers.append(
                Cell(f"x{tag}", cell.band, Point(x, -y), cell.link_budget,
                     metrics=MetricsRegistry()))
    elif op == "demand":  # two UEs re-ranked
        ctxs = list(cell._ues.values())
        for k, ctx in enumerate(ctxs[pick % 3::5][:2]):
            _reattach(cell, detach, ctx,
                      gbr_bps=(0.0, 2e6, 5e5)[(pick + k) % 3],
                      priority=1 + (pick + k) % 9)
    elif op == "prb_swap":
        cell.allowed_prbs = _swapped_prbs(cell, pick)
    elif op == "cell_power":
        cell.radio.tx_power_dbm = 37.0 + pick % 7
    else:
        cell.allowed_prbs = frozenset(
            p for p in cell.grid.all_prbs if p % 3 != pick % 3)


def _swapped_prbs(cell, pick):
    """A new allowed set: one slice, two runs, one PRB, or none."""
    n = len(cell.grid.all_prbs)
    lo = pick % n
    shape = pick % 4
    if shape == 0:
        return frozenset(range(lo, min(n, lo + 1 + pick % 17)))
    if shape == 1:
        return (frozenset(range(0, 1 + lo % 7))
                | frozenset(range(lo, min(n, lo + 3))))
    if shape == 2:
        return frozenset((lo,))
    return frozenset()


@given(st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=20),
       st.integers(min_value=0, max_value=2**16),
       st.lists(steps, min_size=1, max_size=12))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_arena_cell_equals_scalar_walk_under_churn(sched, n_ue, seed, script):
    # 9+ UEs have already grown the arena's initial 8-slot block
    ref, cell, reg_ref, reg = _build_pair(
        SCHEDULERS[sched], seed, n_ue, n_inter=seed % 2)
    _assert_tti_equal(ref, cell, "before the script")
    for tag, (op, pick, x, y) in enumerate(script):
        where = f"step {tag}: {op}"
        if op == "prb_swap":  # one more DL TTI, then the swap
            assert cell.schedule_tti() == scalar_tti.schedule_tti(ref), where
        for twin, detach in zip((ref, cell), DETACH):
            _apply(twin, detach, op, pick, x, y, tag)
        _assert_tti_equal(ref, cell, where)
        assert list(ref._ues) == cell._arena.ids, where
        _assert_rates_equal(ref, cell, where)
    _assert_metrics_equal(reg_ref, reg)


# -- push invalidation: who marks a row --------------------------------------
#
# The arena re-reads only the rows whose ``Radio`` was written since its
# last refresh. The ops below are the ways a write
# can miss its row (or hit one it should not), interleaved with every op
# of the churn test above. Each twin gets a neighbour cell serving some of
# the same UEs: through its own context around a shared radio (even
# slots) or through the very same context object (odd slots), so one
# write has to reach two arenas.

WRITES = ("write_equal", "move_shared", "detached_write", "burst",
          "mid_tti_move")

push_steps = st.tuples(
    st.sampled_from(STRUCTURAL + PER_UE + PER_CELL + WRITES + WRITES),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=-4000.0, max_value=4000.0),
    st.floats(min_value=30.0, max_value=4000.0))


def _neighbour(cell):
    nbr = Cell("n0", cell.band, Point(1500.0, 300.0), cell.link_budget,
               metrics=MetricsRegistry())
    for i, ctx in enumerate(cell._ues.values()):
        if i % 2:
            nbr.add_ue(ctx)
        else:
            nbr.add_ue(UeRadioContext(ctx.ue_id, ctx.radio, priority=3))
    return nbr


def _apply_write(cell, nbr, detach, op, pick, x, y):
    if op == "move_shared":  # picked on the neighbour, seen by both
        ctxs = list(nbr._ues.values())
    else:
        ctxs = list(cell._ues.values())
    if not ctxs:
        return
    ctx = ctxs[pick % len(ctxs)]
    radio = ctx.radio
    if op == "write_equal":
        radio.position = Point(radio.position.x, radio.position.y)
        radio.tx_power_dbm = radio.tx_power_dbm
    elif op in ("move_shared", "mid_tti_move"):
        radio.position = Point(x, y)
    elif op == "detached_write":
        detach(cell, ctx.ue_id)
        radio.position = Point(x, y)
        cell.add_ue(dataclasses.replace(ctx, gbr_bps=(0.0, 2e6)[pick % 2]))
    else:  # burst: many writes, one refresh; the last values stand
        for k in range(6):
            radio.position = Point(x + 10.0 * k, y - 10.0 * k)
        radio.cable_loss_db = 0.5 * (pick % 3)


@given(st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=12),
       st.integers(min_value=0, max_value=2**16),
       st.lists(push_steps, min_size=1, max_size=12))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_every_write_reaches_its_rows_and_no_others(sched, n_ue, seed, script):
    ref, cell, reg_ref, reg = _build_pair(
        SCHEDULERS[sched], seed, n_ue, n_inter=seed % 2)
    twins = ((ref, _neighbour(ref), DETACH[0]),
             (cell, _neighbour(cell), DETACH[1]))
    (_, nbr_ref, _), (_, nbr, _) = twins
    _assert_tti_equal(ref, cell, "before the script")
    _assert_tti_equal(nbr_ref, nbr, "neighbour, before the script")
    for tag, (op, pick, x, y) in enumerate(script):
        where = f"step {tag}: {op}"
        if op in WRITES and op != "mid_tti_move":
            for twin, twin_nbr, detach in twins:
                _apply_write(twin, twin_nbr, detach, op, pick, x, y)
        elif op not in WRITES:
            for twin, _nbr, detach in twins:
                _apply(twin, detach, op, pick, x, y, tag)
        dl = cell.schedule_tti()
        assert dl == scalar_tti.schedule_tti(ref), where
        if op == "mid_tti_move":  # between the DL and the UL TTI of a step
            for twin, twin_nbr, detach in twins:
                _apply_write(twin, twin_nbr, detach, op, pick, x, y)
        ul = cell.schedule_uplink_tti()
        assert ul == scalar_tti.schedule_uplink_tti(ref), where
        _assert_tti_equal(nbr_ref, nbr, f"neighbour, {where}")
        assert list(ref._ues) == cell._arena.ids, where
        assert not cell._arena._touched and not nbr._arena._touched, where
        _assert_rates_equal(ref, cell, where)
        _assert_rates_equal(nbr_ref, nbr, f"neighbour, {where}")
    _assert_metrics_equal(reg_ref, reg)
