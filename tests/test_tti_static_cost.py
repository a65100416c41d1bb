"""Count gate: a static cell's TTI costs O(granted), not O(attached),
in both directions.

Nothing polls the attached set: a write to a ``Radio`` or a
``UeRadioContext`` marks its arena row when it happens, policies return
only the users they served (the contiguous uplink packer included), a
row's HARQ factor is evaluated at its first grant after a refresh, and
whatever still spans the attached set (the eligibility mask, the EWMA
update, the SINR histogram) is array work. So the Python a
``schedule_tti()`` or ``schedule_uplink_tti()`` executes on a cell
nobody wrote to is set by the PRB budget, and the count of
``sys.settrace`` line events inside one warm call must not grow with the
attached count. The count repeats exactly from run to run; the few lines
of slack are the data-dependent min/max branches of ``Histogram.observe``.

Warm means every eligible row's HARQ factor is filled: a TTI that grants
a row for the first time since its refresh also evaluates that row's
factor, so its count depends on the grant history, not on the attached
count.

Line events rather than frames: per-UE work is inlined loops, so a frame
count reads the same whether or not a loop walks every UE.
"""

import ast
import inspect
import sys
import textwrap

import numpy as np
import pytest

import repro.mac.arena
from repro.enodeb.cell import Cell, UeRadioContext
from repro.geo.points import Point
from repro.mac.arena import UeArena
from repro.mac.schedulers import ProportionalFairScheduler, QosAwareScheduler
from repro.phy.bands import get_band
from repro.phy.linkbudget import LinkBudget, Radio
from repro.phy.propagation import FreeSpace, model_for_frequency
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


@pytest.fixture
def harq_rows(monkeypatch):
    """Rows passed to each ``harq_goodput_factor_many`` call."""
    calls = []
    real = repro.mac.arena.harq_goodput_factor_many

    def counting(sinr, thresh, **kw):
        calls.append(len(sinr))
        return real(sinr, thresh, **kw)

    monkeypatch.setattr(repro.mac.arena, "harq_goodput_factor_many",
                        counting)
    return calls


def _fill_eligible(cell):
    """Fill every eligible row's HARQ factor, both banks. The downlink
    policies get there by themselves within a few dozen TTIs; the
    uplink packer never does at this budget (with 128 users every target
    is one PRB, so the six lowest ids win every TTI), so the rows are
    filled the way a first grant fills them."""
    arena = cell._arena
    for bank in (arena.dl, arena.ul):
        eligible = (bank.eff > 0.0) & (arena.backlog > 0.0)
        arena.fill_harq(bank, eligible.nonzero()[0].tolist())
        assert not np.isnan(bank.harq[eligible]).any()


def _warm_static_tti(sched_cls, n_ue, metrics, harq_rows, uplink=False):
    cell = _static_cell(sched_cls, n_ue, metrics)
    tti = cell.schedule_uplink_tti if uplink else cell.schedule_tti
    for _ in range(5):
        cell.schedule_tti()
        cell.schedule_uplink_tti()
    _fill_eligible(cell)
    arena = cell._arena
    bank = arena.ul if uplink else arena.dl
    assert len(arena._touched) == 0
    assert not bank.dirty.any()
    del harq_rows[:]
    lines, delivered = _line_events(tti)
    # the traced TTI re-read no context, recomputed no row and
    # evaluated no HARQ factor
    assert len(arena._touched) == 0
    assert not bank.dirty.any()
    assert harq_rows == []
    assert sum(1 for _ in delivered) <= PRB_BUDGET
    assert delivered, "the traced TTI must actually grant"
    return lines


REGISTRIES = pytest.mark.parametrize("private_registry", [False, True],
                                     ids=["ambient", "private"])


def _registry(private):
    return MetricsRegistry() if private else None


@REGISTRIES
@pytest.mark.parametrize("sched_cls", [ProportionalFairScheduler,
                                       QosAwareScheduler],
                         ids=lambda c: c.__name__)
def test_static_downlink_tti_lines_do_not_grow_with_attached(
        sched_cls, private_registry, harq_rows):
    small = _warm_static_tti(sched_cls, 16, _registry(private_registry),
                             harq_rows)
    large = _warm_static_tti(sched_cls, 128, _registry(private_registry),
                             harq_rows)
    # before push invalidation: >= 2,100 more lines at 128 UEs than at 16
    assert large - small <= 10, (small, large)


@REGISTRIES
def test_static_uplink_tti_lines_do_not_grow_with_attached(
        private_registry, harq_rows):
    small = _warm_static_tti(ProportionalFairScheduler, 16,
                             _registry(private_registry), harq_rows,
                             uplink=True)
    large = _warm_static_tti(ProportionalFairScheduler, 128,
                             _registry(private_registry), harq_rows,
                             uplink=True)
    # with a per-eligible-user packer: 477 lines at 16 UEs, 1,933 at 128
    assert large - small <= 10, (small, large)


def _one_moved_ue_tti(n_ue, harq_rows):
    """Lines of the TTI after one UE of ``n_ue`` moved, and the HARQ
    rows that TTI evaluated."""
    cell = _static_cell(ProportionalFairScheduler, n_ue, MetricsRegistry())
    for _ in range(3):
        cell.schedule_tti()
        cell.schedule_uplink_tti()
    _fill_eligible(cell)
    arena = cell._arena
    static, _ = _line_events(cell.schedule_tti)
    before = arena.dl.sinr.copy()
    cell._ues["ue007"].radio.position = Point(900.0, 700.0)
    assert arena._touched == {"ue007"}
    assert not arena.dl.dirty.any()  # marked, not yet compared
    del harq_rows[:]
    moved, delivered = _line_events(cell.schedule_tti)
    filled = sum(harq_rows)
    # a write stales its own factor and no other
    assert filled == ("ue007" in delivered)
    assert len(arena._touched) == 0
    changed = (arena.dl.sinr != before).nonzero()[0].tolist()
    assert changed == [arena.slot_of["ue007"]]
    assert arena.ul.dirty.nonzero()[0].tolist() == changed  # UL not yet run
    again, _ = _line_events(cell.schedule_tti)
    assert abs(again - static) <= 10  # static again
    return moved, filled


def test_a_write_costs_its_own_row_only(harq_rows):
    """One moved UE: the refresh re-reads and recomputes that row alone,
    at the same cost among 128 attached as among 16."""
    (large, filled_large), (small, filled_small) = (
        _one_moved_ue_tti(128, harq_rows), _one_moved_ue_tti(16, harq_rows))
    assert filled_large == filled_small
    assert abs(large - small) <= 10


# -- HARQ is evaluated for the rows a TTI grants -----------------------------

def test_a_moving_cell_evaluates_harq_for_its_grants_only(harq_rows):
    """Every UE moves every TTI, so every row is refreshed every TTI; the
    HARQ factor is evaluated for the granted rows alone (the refresh used
    to evaluate it for every attached row)."""
    band = get_band("lte5")
    budget = LinkBudget(model_for_frequency(band.dl_mhz), band.dl_mhz,
                        band.bandwidth_hz)
    cells = [Cell(f"m{i}", band, Point(600.0 * i, 0.0), budget,
                  metrics=MetricsRegistry()) for i in range(2)]
    for cell in cells:
        cell.interferers = [c for c in cells if c is not cell]
    rng = np.random.default_rng(3)
    radios = []
    for k in range(128):
        x, y = rng.uniform([-200.0, 50.0], [800.0, 400.0]).tolist()
        radio = Radio(Point(x, y))
        radios.append(radio)
        cells[k % 2].add_ue(UeRadioContext(f"u{k:03d}", radio))
    for _ in range(6):
        for radio in radios:
            p = radio.position
            radio.position = Point(p.x + 0.02, p.y - 0.01)
        for cell in cells:
            for tti in (cell.schedule_tti, cell.schedule_uplink_tti):
                del harq_rows[:]
                delivered = tti()
                # every granted row was stale: one evaluation each
                assert sum(harq_rows) == len(delivered), cell.name
                assert len(harq_rows) <= 1
                assert 0 < len(delivered) < len(cell.attached_ues)


def test_the_refresh_does_not_evaluate_harq():
    """Held on the syntax tree, so no reformatting hides a call."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(UeArena._refresh_rows)))
    called = {node.func.id if isinstance(node.func, ast.Name)
              else getattr(node.func, "attr", None)
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert "harq_goodput_factor_many" not in called
    assert "harq_goodput_factor" not in called


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
