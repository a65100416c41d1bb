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

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enodeb.cell import Cell, UeRadioContext
from repro.geo.points import Point
from repro.phy.antenna import SectorAntenna
from repro.phy.fading import ShadowingField
from repro.phy.linkbudget import Radio
from repro.telemetry import MetricsRegistry

from tests.test_mac_arena import (
    SCHEDULERS,
    _assert_metrics_equal,
    _assert_tti_equal,
    _build_pair,
)

STRUCTURAL = ("attach", "detach_first", "detach_middle", "detach_last")
PER_UE = ("move", "replace_radio", "reparam", "antenna", "backlog", "gbr",
          "priority")
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
        elif op == "antenna":  # directional rows leave the vector path
            ctx.radio.antenna = (None if ctx.radio.antenna is not None else
                                 SectorAntenna(x / 4000.0 * math.pi, 8.0))
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
