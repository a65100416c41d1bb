"""Differential test: the arena ``Cell`` against the scalar TTI oracle.

Twin cells are built from the same inputs; one is scheduled by
``Cell.schedule_tti`` / ``schedule_uplink_tti`` (the UE arena), the
other by ``tests/reference/scalar_tti.py``. A random interleaving of
everything that can invalidate arena state — attach, detach of the
first / a middle / the last slot, moves, radio replacement and
re-parameterisation, demand edits, scheduler swaps, interferer churn in
both directions, HARQ and shadowing toggles — is applied to both, with
a downlink and an uplink TTI after every step. Delivered maps must be
equal to the key order and every EWMA equal, so a row that kept a stale
SINR, or a column that slipped a slot when the block grew or closed a
gap, shows up at the step that caused it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enodeb.cell import Cell, UeRadioContext
from repro.geo.points import Point
from repro.phy.fading import ShadowingField
from repro.phy.linkbudget import Radio
from repro.telemetry import MetricsRegistry

from tests.reference import scalar_tti
from tests.test_mac_arena import (
    SCHEDULERS,
    _assert_metrics_equal,
    _assert_tti_equal,
    _build_pair,
)

STRUCTURAL = ("attach", "detach_first", "detach_middle", "detach_last")
PER_UE = ("move", "replace_radio", "reparam", "backlog", "gbr", "priority")
PER_CELL = ("swap_scheduler", "dl_interferer", "ul_interferers", "harq",
            "shadowing", "cell_power", "prb_mask")

BACKLOGS = (float("inf"), 0.0, 5e5, 3e3)

steps = st.tuples(st.sampled_from(STRUCTURAL + PER_UE + PER_CELL),
                  st.integers(min_value=0, max_value=10**6),
                  st.floats(min_value=-4000.0, max_value=4000.0),
                  st.floats(min_value=30.0, max_value=4000.0))


def _apply(cell, op, pick, x, y, tag):
    """Apply one step to ``cell``; every choice derives from the drawn
    values and the cell's own state, so twins stay in lockstep."""
    if op == "attach":
        cell.add_ue(UeRadioContext(
            f"new{tag:02d}",
            Radio(Point(x, y), tx_power_dbm=23.0, ul_papr_advantage_db=3.0),
            backlog_bits=BACKLOGS[pick % 4], gbr_bps=(0.0, 2e6)[pick % 2],
            priority=1 + pick % 9))
    elif op in STRUCTURAL:
        uids = list(cell._ues)
        if uids:
            slot = {"detach_first": 0, "detach_middle": len(uids) // 2,
                    "detach_last": -1}[op]
            cell.remove_ue(uids[slot])
    elif op in PER_UE:
        ctxs = list(cell._ues.values())
        if not ctxs:
            return
        ctx = ctxs[pick % len(ctxs)]
        if op == "move":
            ctx.radio.position = Point(x, y)
        elif op == "replace_radio":
            ctx.radio = Radio(Point(x, y), tx_power_dbm=20.0)
        elif op == "reparam":
            ctx.radio.tx_power_dbm = 10.0 + pick % 14
            ctx.radio.antenna_gain_dbi = float(pick % 5)
            ctx.radio.noise_figure_db = 5.0 + pick % 4
            ctx.radio.cable_loss_db = 0.5 * (pick % 3)
        elif op == "backlog":
            ctx.backlog_bits = BACKLOGS[pick % 4]
        elif op == "gbr":
            ctx.gbr_bps = (0.0, 2e6, 5e5)[pick % 3]
        else:
            ctx.priority = 1 + pick % 9
    elif op == "swap_scheduler":
        cell.scheduler = SCHEDULERS[pick % 4]()
    elif op == "dl_interferer":  # mutated in place, as coordination does
        if cell.interferers and pick % 2:
            cell.interferers.pop(pick % len(cell.interferers))
        else:
            cell.interferers.append(
                Cell(f"x{tag}", cell.band, Point(x, -y), cell.link_budget,
                     metrics=MetricsRegistry()))
    elif op == "ul_interferers":
        cell.link_budget.interferers = (
            () if cell.link_budget.interferers
            else (Radio(Point(x, -y), tx_power_dbm=23.0),))
    elif op == "harq":
        cell.harq_enabled = not cell.harq_enabled
        cell.harq_max_retx = pick % 4
    elif op == "shadowing":
        cell.link_budget.shadowing = (
            None if cell.link_budget.shadowing is not None
            else ShadowingField(sigma_db=6.0, seed=pick))
    elif op == "cell_power":
        cell.radio.tx_power_dbm = 37.0 + pick % 7
    else:
        cell.allowed_prbs = frozenset(
            p for p in cell.grid.all_prbs if p % 3 != pick % 3)


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
        for twin in (ref, cell):
            _apply(twin, op, pick, x, y, tag)
        where = f"step {tag}: {op}"
        _assert_tti_equal(ref, cell, where)
        assert list(ref._ues) == cell._arena.ids, where
        for role in ("scheduler", "uplink_scheduler"):
            for uid in ref._ues:
                assert (getattr(ref, role).average_rate_bps(uid)
                        == getattr(cell, role).average_rate_bps(uid)), (
                    where, role, uid)
    _assert_metrics_equal(reg_ref, reg)


# -- push invalidation: who marks a row --------------------------------------
#
# The arena re-reads only the rows whose ``Radio`` / ``UeRadioContext``
# were written since its last refresh. The ops below are the ways a write
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
            nbr.add_ue(UeRadioContext(ctx.ue_id, ctx.radio,
                                      backlog_bits=5e5, priority=3))
    return nbr


def _apply_write(cell, nbr, op, pick, x, y):
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
        ctx.backlog_bits = ctx.backlog_bits
        ctx.radio = radio
    elif op in ("move_shared", "mid_tti_move"):
        radio.position = Point(x, y)
    elif op == "detached_write":
        cell.remove_ue(ctx.ue_id)
        radio.position = Point(x, y)
        ctx.backlog_bits = BACKLOGS[pick % 4]
        ctx.gbr_bps = (0.0, 2e6)[pick % 2]
        cell.add_ue(ctx)
    else:  # burst: many writes, one refresh; the last values stand
        for k in range(6):
            radio.position = Point(x + 10.0 * k, y - 10.0 * k)
            ctx.backlog_bits = BACKLOGS[(pick + k) % 4]
        radio.cable_loss_db = 0.5 * (pick % 3)
        ctx.priority = 1 + pick % 9


@given(st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=12),
       st.integers(min_value=0, max_value=2**16),
       st.lists(push_steps, min_size=1, max_size=12))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_every_write_reaches_its_rows_and_no_others(sched, n_ue, seed, script):
    ref, cell, reg_ref, reg = _build_pair(
        SCHEDULERS[sched], seed, n_ue, n_inter=seed % 2)
    twins = ((ref, _neighbour(ref)), (cell, _neighbour(cell)))
    (_, nbr_ref), (_, nbr) = twins
    _assert_tti_equal(ref, cell, "before the script")
    _assert_tti_equal(nbr_ref, nbr, "neighbour, before the script")
    for tag, (op, pick, x, y) in enumerate(script):
        where = f"step {tag}: {op}"
        if op in WRITES and op != "mid_tti_move":
            for twin, twin_nbr in twins:
                _apply_write(twin, twin_nbr, op, pick, x, y)
        elif op not in WRITES:
            for twin, _nbr in twins:
                _apply(twin, op, pick, x, y, tag)
        dl = cell.schedule_tti()
        assert dl == scalar_tti.schedule_tti(ref), where
        if op == "mid_tti_move":  # between the DL and the UL TTI of a step
            for twin, twin_nbr in twins:
                _apply_write(twin, twin_nbr, op, pick, x, y)
        ul = cell.schedule_uplink_tti()
        assert ul == scalar_tti.schedule_uplink_tti(ref), where
        _assert_tti_equal(nbr_ref, nbr, f"neighbour, {where}")
        assert list(ref._ues) == cell._arena.ids, where
        assert not cell._arena._touched and not nbr._arena._touched, where
        for role in ("scheduler", "uplink_scheduler"):
            for uid in ref._ues:
                assert (getattr(ref, role).average_rate_bps(uid)
                        == getattr(cell, role).average_rate_bps(uid)), (
                    where, role, uid)
    _assert_metrics_equal(reg_ref, reg)
