"""Count gate: a static cell's TTI costs O(granted), not O(attached),
in both directions.

Nothing polls the attached set: a write to a ``Radio`` marks its arena
row when it happens, policies return a PRB count for only the users
they served (the contiguous uplink packer included), a row's HARQ
factor is evaluated at its first grant after a refresh, and whatever
still spans the attached set (the EWMA update, the SINR histogram's
sum) is array work. So the Python a ``schedule_tti()`` or
``schedule_uplink_tti()`` executes on a cell nobody wrote to is set by
the PRB budget, plus two lines per SINR bucket the column fills
(``Histogram.observe_binned`` adds the non-empty buckets only, at most
the ladder's length), and the count of ``sys.settrace`` line events
inside one warm call, less those, must not grow with the attached
count. The count repeats exactly from run to
run; the few lines of slack are the data-dependent min/max branches of
``Histogram.observe``.

A warm static TTI also re-derives nothing: the scheduler columns the
arena hands over (``eff`` as a list, the eligibility) are reused while
the bank stands still, so the columns path converts no
array (``ndarray.tolist``), and grants are counts, so no module the TTI
runs builds a ``frozenset``.

Warm means every eligible row's HARQ factor is filled: a TTI that grants
a row for the first time since its refresh also evaluates that row's
factor, so its count depends on the grant history, not on the attached
count.

Line events rather than frames: per-UE work is inlined loops, so a frame
count reads the same whether or not a loop walks every UE.
"""

import ast
import dataclasses
import inspect
import sys
import textwrap
from functools import partial

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


def _static_cell(sched_cls, n_ue, metrics, budget=PRB_BUDGET):
    band = get_band("lte31")
    lb = LinkBudget(FreeSpace(), freq_mhz=band.dl_mhz,
                    bandwidth_hz=band.bandwidth_hz)
    cell = Cell("c0", band, Point(0.0, 0.0), lb, scheduler=sched_cls(),
                metrics=metrics)
    cell.interferers = [Cell("i0", band, Point(4000.0, 0.0), lb,
                             metrics=metrics)]
    cell.allowed_prbs = frozenset(range(budget))
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
        eligible = bank.eff > 0.0
        arena.fill_harq(bank, eligible.nonzero()[0].tolist())
        assert not np.isnan(bank.harq[eligible]).any()


def _warm_cell(sched_cls, n_ue, metrics, budget=PRB_BUDGET):
    cell = _static_cell(sched_cls, n_ue, metrics, budget)
    for _ in range(5):
        cell.schedule_tti()
        cell.schedule_uplink_tti()
    _fill_eligible(cell)
    return cell


def _filled_buckets(cell, uplink):
    """SINR buckets a warm downlink TTI adds into (the uplink observes
    no SINR)."""
    return 0 if uplink else len(cell._sinr_binned[3])


def _warm_static_tti(sched_cls, n_ue, metrics, harq_rows, uplink=False):
    """Line events of one warm static TTI, less two per filled SINR
    bucket, and the raw count."""
    cell = _warm_cell(sched_cls, n_ue, metrics)
    tti = cell.schedule_uplink_tti if uplink else cell.schedule_tti
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
    filled = _filled_buckets(cell, uplink)
    assert filled <= len(cell._m_sinr.buckets)
    return lines - 2 * filled, lines


REGISTRIES = pytest.mark.parametrize("private_registry", [False, True],
                                     ids=["ambient", "private"])


def _registry(private):
    return MetricsRegistry() if private else None


#: raw line events of one warm static TTI at 16 / 128 UEs, measured on
#: CPython 3.11.7 (the SINR column fills 4 / 12 buckets): downlink PF
#: 233 / 250 and QoS 275 / 291, uplink 264 / 264. With the PF heap run
#: on every TTI they were PF 281 / 298 and QoS 307 / 323; with PRB sets,
#: a columns path re-derived per TTI and a dense bucket add, PF 406 /
#: 407, QoS 428 / 428 and uplink 324 / 324. The ceilings carry the
#: count gate's slack.
CEILINGS = {(ProportionalFairScheduler, False): (243, 260),
            (QosAwareScheduler, False): (285, 301),
            (ProportionalFairScheduler, True): (274, 274)}


@REGISTRIES
@pytest.mark.parametrize("sched_cls", [ProportionalFairScheduler,
                                       QosAwareScheduler],
                         ids=lambda c: c.__name__)
def test_static_downlink_tti_lines_do_not_grow_with_attached(
        sched_cls, private_registry, harq_rows):
    small, small_raw = _warm_static_tti(
        sched_cls, 16, _registry(private_registry), harq_rows)
    large, large_raw = _warm_static_tti(
        sched_cls, 128, _registry(private_registry), harq_rows)
    # before push invalidation: >= 2,100 more lines at 128 UEs than at 16
    assert large - small <= 10, (small, large)
    ceiling_small, ceiling_large = CEILINGS[sched_cls, False]
    assert small_raw <= ceiling_small and large_raw <= ceiling_large, (
        small_raw, large_raw)


@REGISTRIES
def test_static_uplink_tti_lines_do_not_grow_with_attached(
        private_registry, harq_rows):
    small, small_raw = _warm_static_tti(
        ProportionalFairScheduler, 16, _registry(private_registry),
        harq_rows, uplink=True)
    large, large_raw = _warm_static_tti(
        ProportionalFairScheduler, 128, _registry(private_registry),
        harq_rows, uplink=True)
    # with a per-eligible-user packer: 477 lines at 16 UEs, 1,933 at 128
    assert large - small <= 10, (small, large)
    ceiling_small, ceiling_large = CEILINGS[ProportionalFairScheduler, True]
    assert small_raw <= ceiling_small and large_raw <= ceiling_large, (
        small_raw, large_raw)


def test_a_single_grant_pf_tti_costs_the_same_at_any_budget():
    """A warm static 128-UE cell has more eligible users than PRBs at 6
    and at 50 PRBs, and PF grants each winner one PRB: the selection is
    one sort, so ``_fair_counts`` runs the same lines at both budgets
    (a heap step per PRB cost 58 lines at 6 PRBs and 366 at 50)."""
    code = ProportionalFairScheduler._fair_counts.__code__
    counts = []
    for budget in (PRB_BUDGET, 50):
        cell = _warm_cell(ProportionalFairScheduler, 128, MetricsRegistry(),
                          budget)
        lines = 0

        def local(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return local

        outer = sys.gettrace()
        sys.settrace(lambda frame, event, arg:
                     local if frame.f_code is code else None)
        try:
            delivered = cell.schedule_tti()
        finally:
            sys.settrace(outer)
        # one PRB each: as many users served as PRBs granted
        assert len(delivered) == budget
        counts.append(lines)
    assert counts[0] == counts[1], counts


def _counting(calls, real, *args, **kwargs):
    calls.append(args)
    return real(*args, **kwargs)


@pytest.mark.parametrize("uplink", [False, True], ids=["downlink", "uplink"])
@pytest.mark.parametrize("sched_cls", [ProportionalFairScheduler,
                                       QosAwareScheduler],
                         ids=lambda c: c.__name__)
def test_a_warm_static_tti_rederives_no_column(sched_cls, uplink,
                                               monkeypatch):
    """No ``ndarray.tolist`` inside ``UeArena.columns`` and no
    ``frozenset(...)`` in any module the TTI runs, on a warm static cell
    (the first TTI after a write or a re-attach derives the columns
    again)."""
    cell = _warm_cell(sched_cls, 64, MetricsRegistry())
    tti = cell.schedule_uplink_tti if uplink else cell.schedule_tti
    modules = set()

    def tracer(frame, event, arg):
        if event == "call":
            modules.add(frame.f_globals.get("__name__"))

    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        tti()
    finally:
        sys.settrace(outer)
    assert {"repro.enodeb.cell", "repro.mac.arena",
            "repro.mac.schedulers"} <= modules
    frozensets = []
    for name in modules:
        module = sys.modules.get(name)
        if name.startswith("repro.") and module is not None:
            monkeypatch.setattr(module, "frozenset",
                                partial(_counting, frozensets, frozenset),
                                raising=False)
    inside = [False]
    real_columns = UeArena.columns

    def columns(self, bank, scheduler):
        inside[0] = True
        try:
            return real_columns(self, bank, scheduler)
        finally:
            inside[0] = False

    monkeypatch.setattr(UeArena, "columns", columns)
    conversions = []

    def profiler(frame, event, arg):
        if (event == "c_call" and inside[0]
                and getattr(arg, "__name__", None) == "tolist"):
            conversions.append(frame.f_code.co_name)

    def profiled():
        outer = sys.getprofile()
        sys.setprofile(profiler)
        try:
            return tti()
        finally:
            sys.setprofile(outer)

    assert profiled()
    assert conversions == [] and frozensets == []
    # a new demand is a detach and an attach of a fresh context, and the
    # next TTI derives the columns again
    ctx = cell._ues["ue005"]
    cell.remove_ue("ue005")
    cell.add_ue(dataclasses.replace(ctx, priority=1))
    assert profiled()
    assert conversions == ["columns", "columns"]
    assert frozensets == []


def _one_moved_ue_tti(n_ue, harq_rows):
    """Lines of the TTI after one UE of ``n_ue`` moved (less two per
    filled SINR bucket), and the HARQ rows that TTI evaluated."""
    cell = _static_cell(ProportionalFairScheduler, n_ue, MetricsRegistry())
    for _ in range(3):
        cell.schedule_tti()
        cell.schedule_uplink_tti()
    _fill_eligible(cell)
    arena = cell._arena
    static, _ = _line_events(cell.schedule_tti)
    static -= 2 * _filled_buckets(cell, False)
    before = arena.dl.sinr.copy()
    cell._ues["ue007"].radio.position = Point(900.0, 700.0)
    assert arena._touched == {"ue007"}
    assert not arena.dl.dirty.any()  # marked, not yet compared
    del harq_rows[:]
    moved, delivered = _line_events(cell.schedule_tti)
    moved -= 2 * _filled_buckets(cell, False)
    filled = sum(harq_rows)
    # a write stales its own factor and no other
    assert filled == ("ue007" in delivered)
    assert len(arena._touched) == 0
    changed = (arena.dl.sinr != before).nonzero()[0].tolist()
    assert changed == [arena.slot_of["ue007"]]
    assert arena.ul.dirty.nonzero()[0].tolist() == changed  # UL not yet run
    again, _ = _line_events(cell.schedule_tti)
    again -= 2 * _filled_buckets(cell, False)
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
        twin.observe_binned(twin.bin(cell._arena.dl.sinr))
    assert cell._m_sinr.row() == twin.row()
    assert cell._m_sinr.bucket_counts == twin.bucket_counts
    assert cell._m_sinr.count == 50 * 32
    assert [t.estimate for t in cell._m_sinr._quantiles] \
        == [t.estimate for t in twin._quantiles]
