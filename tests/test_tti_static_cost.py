"""Count gate: a static cell's downlink TTI costs O(granted), not
O(attached).

Nothing polls the attached set: a write to a ``Radio`` or a
``UeRadioContext`` marks its arena row when it happens, policies return
only the users they served, and whatever still spans the attached set
(the eligibility mask, the EWMA update, the SINR histogram) is array
work. So the Python a ``schedule_tti()`` executes on a cell nobody wrote
to is set by the PRB budget, and the count of ``sys.settrace`` line
events inside one warm call must not grow with the attached count. The
count repeats exactly from run to run; the few lines of slack are the
data-dependent min/max branches of ``Histogram.observe``.

Line events rather than frames: per-UE work is inlined loops, so a frame
count reads the same whether or not a loop walks every UE.
"""

import sys

import pytest

from repro.enodeb.cell import Cell, UeRadioContext
from repro.geo.points import Point
from repro.mac.schedulers import ProportionalFairScheduler, QosAwareScheduler
from repro.phy.bands import get_band
from repro.phy.linkbudget import LinkBudget, Radio
from repro.phy.propagation import FreeSpace
from repro.telemetry import MetricsRegistry
from repro.telemetry.registry import Histogram, P2Quantile

PRB_BUDGET = 6
#: bearers with a guaranteed rate, the same at every cell size: the
#: QoS-aware policy orders them in Python, so its cost is O(granted +
#: GBR bearers)
GBR_BEARERS = 2


def _static_cell(sched_cls, n_ue, metrics):
    band = get_band("lte31")
    lb = LinkBudget(FreeSpace(), freq_mhz=band.dl_mhz,
                    bandwidth_hz=band.bandwidth_hz)
    cell = Cell("c0", band, Point(0.0, 0.0), lb, scheduler=sched_cls(),
                metrics=metrics)
    cell.interferers = [Cell("i0", band, Point(4000.0, 0.0), lb,
                             metrics=metrics)]
    cell.allowed_prbs = frozenset(range(PRB_BUDGET))
    for u in range(n_ue):
        cell.add_ue(UeRadioContext(
            f"ue{u:03d}", Radio(Point(120.0 + 9.0 * u, 40.0 + 3.0 * u)),
            gbr_bps=2e5 if u < GBR_BEARERS else 0.0, priority=1 + u % 9))
    return cell


def _line_events(fn):
    """Line events traced inside one call of ``fn``, and its result."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return tracer

    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = fn()
    finally:
        sys.settrace(outer)
    return count, result


def _warm_static_tti(sched_cls, n_ue, metrics):
    cell = _static_cell(sched_cls, n_ue, metrics)
    for _ in range(5):
        cell.schedule_tti()
    arena = cell._arena
    assert len(arena._touched) == 0
    assert not arena.dl.dirty.any()
    lines, delivered = _line_events(cell.schedule_tti)
    # the traced TTI re-read no context and recomputed no row
    assert len(arena._touched) == 0
    assert not arena.dl.dirty.any()
    assert sum(1 for _ in delivered) <= PRB_BUDGET
    assert delivered, "the traced TTI must actually grant"
    return lines


@pytest.mark.parametrize("private_registry", [False, True],
                         ids=["ambient", "private"])
@pytest.mark.parametrize("sched_cls", [ProportionalFairScheduler,
                                       QosAwareScheduler],
                         ids=lambda c: c.__name__)
def test_static_downlink_tti_lines_do_not_grow_with_attached(
        sched_cls, private_registry):
    def registry():
        return MetricsRegistry() if private_registry else None

    small = _warm_static_tti(sched_cls, 16, registry())
    large = _warm_static_tti(sched_cls, 128, registry())
    # at the parent commit: >= 2,100 more lines at 128 UEs than at 16
    assert large - small <= 10, (small, large)


def _one_moved_ue_tti(n_ue):
    """Lines of the TTI after one UE of ``n_ue`` moved."""
    cell = _static_cell(ProportionalFairScheduler, n_ue, MetricsRegistry())
    for _ in range(3):
        cell.schedule_tti()
        cell.schedule_uplink_tti()
    arena = cell._arena
    static, _ = _line_events(cell.schedule_tti)
    before = arena.dl.sinr.copy()
    cell._ues["ue007"].radio.position = Point(900.0, 700.0)
    assert arena._touched == {"ue007"}
    assert not arena.dl.dirty.any()  # marked, not yet compared
    moved, _ = _line_events(cell.schedule_tti)
    assert len(arena._touched) == 0
    changed = (arena.dl.sinr != before).nonzero()[0].tolist()
    assert changed == [arena.slot_of["ue007"]]
    assert arena.ul.dirty.nonzero()[0].tolist() == changed  # UL not yet run
    again, _ = _line_events(cell.schedule_tti)
    assert abs(again - static) <= 10  # static again
    return moved


def test_a_write_costs_its_own_row_only():
    """One moved UE: the refresh re-reads and recomputes that row alone,
    at the same cost among 128 attached as among 16."""
    assert abs(_one_moved_ue_tti(128) - _one_moved_ue_tti(16)) <= 10


# -- the SINR column is binned when it changes, not every TTI ------------

@pytest.fixture
def bin_calls(monkeypatch):
    calls = [0]
    real = Histogram.bin

    def counting_bin(self, values):
        calls[0] += 1
        return real(self, values)

    monkeypatch.setattr(Histogram, "bin", counting_bin)
    return calls


def test_a_static_cell_bins_its_sinr_column_once(bin_calls):
    cell = _static_cell(ProportionalFairScheduler, 32, MetricsRegistry())
    cell.schedule_tti()
    assert bin_calls[0] == 1
    for _ in range(5):
        cell.schedule_tti()
        cell.schedule_uplink_tti()
    assert bin_calls[0] == 1            # warm and static: never again
    cell._ues["ue007"].radio.position = Point(900.0, 700.0)
    cell.schedule_tti()
    assert bin_calls[0] == 2            # one write, one re-bin
    cell.schedule_tti()
    assert bin_calls[0] == 2
    cell.remove_ue("ue003")             # the views were re-taken
    cell.schedule_tti()
    assert bin_calls[0] == 3


def test_binned_sinr_row_is_the_observe_many_row():
    registry = MetricsRegistry()
    cell = _static_cell(ProportionalFairScheduler, 32, registry)
    twin = MetricsRegistry().histogram(
        "phy.sinr_db", buckets=cell._m_sinr.buckets, quantiles=(0.5, 0.9),
        cell="c0")
    # a declared quantile reader on the production histogram too: the
    # P² trackers are fed per value, per TTI, either way
    cell._m_sinr._quantiles = tuple(P2Quantile(q) for q in (0.5, 0.9))
    for _ in range(50):
        cell.schedule_tti()
        twin.observe_many(cell._arena.dl.sinr)
    assert cell._m_sinr.row() == twin.row()
    assert cell._m_sinr.bucket_counts == twin.bucket_counts
    assert cell._m_sinr.count == 50 * 32
    assert [t.estimate for t in cell._m_sinr._quantiles] \
        == [t.estimate for t in twin._quantiles]
