"""Per-cell UE arena: struct-of-arrays state for the TTI engine.

The TTI engine is array work over one slot per attached UE, in attach
(dict) order — the slot order IS the iteration order of ``Cell._ues``,
so every order-sensitive artifact (grant map order, telemetry
observation order, EWMA accumulation) follows it. Per slot the arena
holds the demand columns, the radio inputs, a downlink and an uplink PHY
bank (SINR, CQI row index, spectral efficiency, per-PRB bits, HARQ
goodput factor) and one EWMA average-rate array per scheduler the cell
currently runs.

Every per-UE datum is stored once. What the radio math reads of a UE
are its input columns (position, power, gain, noise figure, cable loss,
PAPR credit), written at attach and when a re-read finds the radio
changed — one transposition per move, not one per bank per refresh;
the per-slot value tuple is only what the next write is compared
against. What the math writes (a bank's five columns), each
bank's dirty flags, the backlog and the GBR are rows of the same float
block, whose capacity doubles when full, so attach and detach are O(1)
array operations and a refresh gathers from and scatters straight into
the columns. A refresh leaves a row's HARQ factor stale (NaN): it is filled
at the row's first grant after the refresh (:meth:`UeArena.fill_harq`,
called by ``Cell._deliver``), so a moving cell evaluates HARQ for the
rows it grants, not for every row it refreshed. Readers that need Python
values take ``tolist()`` of a column; nothing is mirrored, so there is
nothing to keep in step.

The contract is **bit identity** with the per-UE scalar evaluators
(held by the test oracle under ``tests/reference/``): the vector
refresh routes its transcendental choke points through the libm element
maps in ``repro.phy.vmath`` (numpy's SIMD kernels round differently at
1 ulp on a few percent of inputs) and keeps the scalar expressions'
association order. A bank the vector path does not cover (shadowing,
or per-transmitter interferer exclusions on the uplink) is refreshed
with the scalar evaluators instead, row by row; its rows are still
cached and still scheduled through the arena.

Who changes a row says so; nothing polls the attached set. At attach the
arena hangs a watcher on the UE's ``Radio`` and one on its
``UeRadioContext`` (``repro.phy.linkbudget.Watched``), taken off at
detach and re-made by a copied arena. Any assignment to the radio, by
whoever moves or re-parameterises it, adds the UE to ``_touched``
through a C-level call, and the next refresh re-reads those radios only.
The re-read still compares the cached tuple *by value*: an equal write,
or writes that end where they began, dirty nothing. An assignment to
the context syncs backlog / GBR / priority on the spot (they never feed
the radio math, so no bank is dirtied) and moves the radio watcher if
the radio was replaced. What stays a per-TTI poll is the cell-level
environment signature (interferer set, serving radio, link budget, HARQ
config): it is O(interferers), not O(UEs), and a change dirties every
row. A TTI on a cell nobody wrote to runs no per-UE Python.
"""

from __future__ import annotations

from functools import partial
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Set, Tuple)

import numpy as np

from repro.mac.schedulers import (
    LteScheduler,
    RateStore,
    UserColumns,
    descending_id_order,
)
from repro.phy.harq import harq_goodput_factor_many
from repro.phy.linkbudget import Radio, _thermal_noise_cached
from repro.phy.mcs import (
    lte_efficiency_for_index,
    lte_min_sinr_for_index,
    select_lte_cqi_index_many,
)
from repro.phy.resource_grid import PRB_BANDWIDTH_HZ, TTI_S

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.enodeb.cell import Cell, UeRadioContext

__all__ = ["UeArena"]

#: rows of an arena's column block: backlog, GBR, six per PHY bank, then
#: the seven radio inputs of :func:`_radio_sig`
_BLOCK_ROWS = 21


def _radio_sig(radio: Radio) -> tuple:
    """Value tuple of every radio field the PHY math reads (the arena's
    input rows, in this order)."""
    p = radio.position
    return (p.x, p.y, radio.tx_power_dbm, radio.antenna_gain_dbi,
            radio.noise_figure_db, radio.cable_loss_db,
            radio.ul_papr_advantage_db)


def _model_sig(model: object) -> tuple:
    """Value signature of a propagation/shadowing model."""
    attrs = getattr(model, "__dict__", None)
    items = tuple(sorted(attrs.items())) if attrs else ()
    return (type(model).__name__, items)


class _PhyBank:
    """Cached per-slot radio quantities for one link direction.

    The six columns are views of the owning arena's block, re-taken
    whenever the slot count changes: ``dirty`` is non-zero where a row's
    inputs changed since its last refresh, ``cqi`` holds the CQI row
    index as a float, ``-1`` below the CQI floor, and ``harq`` is NaN
    from a row's refresh until its first grant fills it. ``version``
    moves whenever a row's radio state may have: a refresh rewrote a
    row, or the views were re-taken (attach / detach) — a reader that
    derived something from a column keeps it while ``version`` stands
    still. Filling a HARQ factor does not move it: the factor is a
    function of the row's SINR and CQI, which stood still.
    """

    __slots__ = ("env_sig", "vector_ok", "version", "dirty", "sinr", "cqi",
                 "eff", "b", "harq")

    def __init__(self) -> None:
        self.env_sig: Optional[tuple] = None
        self.vector_ok = False
        self.version = 0

    def bind(self, rows: np.ndarray) -> None:
        (self.dirty, self.sinr, self.cqi, self.eff, self.b,
         self.harq) = rows
        self.version += 1


class UeArena:
    """Struct-of-arrays mirror of one cell's attached-UE set."""

    def __init__(self, cell: "Cell") -> None:
        self._cell = cell
        #: UE ids in slot (attach) order — mirrors ``Cell._ues`` exactly.
        self.ids: List[str] = []
        self.slot_of: Dict[str, int] = {}
        #: per-slot (context, its watcher, its radio's watcher)
        self._hooks: List[Tuple["UeRadioContext", Callable, Callable]] = []
        #: the radio each slot's watcher hangs on (its context's)
        self._radios: List[Radio] = []
        #: per-slot :func:`_radio_sig` as last read: what a write is
        #: compared against (the math reads the input rows of the block)
        self._sigs: List[tuple] = []
        #: ids of UEs whose radio was written since the last refresh
        self._touched: Set[str] = set()
        # scheduler-visible per-slot demand state (``backlog`` and
        # ``gbr`` are rows 0-1 of the block, taken by _bind_columns, as
        # is ``_inputs``)
        self.priority: List[int] = []
        self.dl = _PhyBank()
        self.ul = _PhyBank()
        self._block = np.zeros((_BLOCK_ROWS, 8))
        self._bind_columns()
        #: rate stores of the schedulers the cell currently runs
        self._stores: List[Tuple[LteScheduler, RateStore]] = []
        #: slots sorted by descending UE id (PF tie-break order), cached
        self.desc_order = descending_id_order(self.ids)
        self._desc_stale = True

    # -- structural maintenance (driven by Cell.add_ue / remove_ue) --------

    def _bind_columns(self) -> None:
        """Re-take every column as a view of the block's live slots."""
        live = self._block[:, :len(self.ids)]
        self.backlog, self.gbr = live[:2]
        self.dl.bind(live[2:8])
        self.ul.bind(live[8:14])
        self._inputs = live[14:21]

    def _watch(self, ctx: "UeRadioContext") -> None:
        """A radio write marks the row with one C-level call (every UE
        may move every TTI); a context write, rare, is synced on the spot."""
        mark = partial(self._touched.add, ctx.ue_id)
        sync = partial(self._context_written, ctx, ctx.ue_id, mark)
        self._hooks.append((ctx, sync, mark))
        ctx.watch(sync)
        ctx.radio.watch(mark)

    def _context_written(self, ctx: "UeRadioContext", uid: str,
                         mark: Callable[[], None]) -> None:
        slot = self.slot_of[uid]
        self.backlog[slot] = ctx.backlog_bits
        self.gbr[slot] = ctx.gbr_bps
        self.priority[slot] = ctx.priority
        old = self._radios[slot]
        if ctx.radio is not old:  # the mark follows the context's radio
            old.unwatch(mark)
            ctx.radio.watch(mark)
            self._radios[slot] = ctx.radio
            mark()

    def __setstate__(self, state: dict) -> None:
        # a pickled or deep-copied arena's contexts arrive unwatched and
        # its columns as copies, not views: bind and hook its own
        self.__dict__.update(state)
        self._bind_columns()
        stale, self._hooks = self._hooks, []
        for ctx, _sync, _mark in stale:
            self._watch(ctx)

    def attach(self, ctx: "UeRadioContext") -> None:
        uid = ctx.ue_id
        slot = len(self.ids)
        self.slot_of[uid] = slot
        self.ids.append(uid)
        self._radios.append(ctx.radio)
        sig = _radio_sig(ctx.radio)
        self._sigs.append(sig)
        self.priority.append(ctx.priority)
        self._watch(ctx)
        block = self._block
        if slot == block.shape[1]:
            self._block = np.zeros((_BLOCK_ROWS, 2 * slot))
            self._block[:, :slot] = block
        self._bind_columns()
        self.backlog[slot] = ctx.backlog_bits
        self.gbr[slot] = ctx.gbr_bps
        self._inputs[:, slot] = sig
        # a new row is dirty in both banks, so its other cells (whatever
        # an earlier tenant of the column left) are written before read
        self.dl.dirty[slot] = self.ul.dirty[slot] = True
        self._desc_stale = True
        for _sched, store in self._stores:
            store.avg = np.append(store.avg, 0.0)

    def detach(self, uid: str) -> None:
        slot = self.slot_of.pop(uid, None)
        if slot is None:
            return
        ctx, sync, mark = self._hooks[slot]
        ctx.unwatch(sync)
        self._radios[slot].unwatch(mark)
        self._touched.discard(uid)
        for lst in (self.ids, self._hooks, self._radios, self._sigs,
                    self.priority):
            del lst[slot]
        ids = self.ids
        for i in range(slot, len(ids)):
            self.slot_of[ids[i]] = i
        block = self._block
        block[:, slot:len(ids)] = block[:, slot + 1:len(ids) + 1]
        self._bind_columns()
        self._desc_stale = True
        for _sched, store in self._stores:
            store.avg = np.delete(store.avg, slot)

    # -- scheduler-facing columns ------------------------------------------

    def _store_for(self, scheduler: LteScheduler) -> RateStore:
        for sched, store in self._stores:
            if sched is scheduler:
                return store
        # a miss means the cell's scheduler was swapped: whatever it no
        # longer runs gives its store back
        cell = self._cell
        kept = []
        for sched, old in self._stores:
            if sched is cell.scheduler or sched is cell.uplink_scheduler:
                kept.append((sched, old))
            else:
                sched._stores.remove(old)
        store = RateStore(self.slot_of, np.zeros(len(self.ids)))
        scheduler._stores.append(store)
        kept.append((scheduler, store))
        self._stores = kept
        return store

    def columns(self, bank: _PhyBank, scheduler: LteScheduler) -> UserColumns:
        """This TTI's columns for ``scheduler`` over a refreshed bank."""
        mask = (bank.eff > 0.0) & (self.backlog > 0.0)
        desc = self.desc_order
        return UserColumns(
            ids=self.ids, slot_of=self.slot_of, eff=bank.eff.tolist(),
            b=bank.b, avg=self._store_for(scheduler).avg, gbr=self.gbr,
            priority=self.priority, elig=mask.nonzero()[0].tolist(),
            elig_desc=desc[mask[desc]])

    # -- per-TTI refresh ---------------------------------------------------

    def refresh_downlink(self) -> _PhyBank:
        return self._refresh(self.dl, downlink=True)

    def refresh_uplink(self) -> _PhyBank:
        return self._refresh(self.ul, downlink=False)

    def _refresh(self, bank: _PhyBank, downlink: bool) -> _PhyBank:
        if self._desc_stale:
            self.desc_order = descending_id_order(self.ids)
            self._desc_stale = False
        if self._touched:
            self._reread_touched()
        env = self._env(downlink)
        if env != bank.env_sig:
            bank.env_sig = env
            bank.vector_ok = self._vector_ok(downlink)
            bank.dirty[:] = True
        stale = bank.dirty.nonzero()[0]
        if stale.size:
            self._refresh_rows(bank, stale, downlink)
            bank.dirty[stale] = False
            bank.version += 1
        return bank

    def _reread_touched(self) -> None:
        """Value-compare the written radios against the cached copies:
        only a field that really changed rewrites the row's inputs and
        dirties it."""
        slot_of = self.slot_of
        radios = self._radios
        sigs = self._sigs
        changed: List[int] = []
        fresh: List[tuple] = []
        for uid in self._touched:
            slot = slot_of[uid]
            # _radio_sig, inlined: with every UE moving, this loop runs
            # per attached UE per TTI
            r = radios[slot]
            p = r.position
            sig = (p.x, p.y, r.tx_power_dbm, r.antenna_gain_dbi,
                   r.noise_figure_db, r.cable_loss_db,
                   r.ul_papr_advantage_db)
            if sig != sigs[slot]:
                sigs[slot] = sig
                changed.append(slot)
                fresh.append(sig)
        self._touched.clear()
        if changed:
            # one transposition of the changed rows into the input rows
            idx = np.array(changed, dtype=np.intp)
            self._inputs[:, idx] = list(zip(*fresh))
            self.dl.dirty[idx] = self.ul.dirty[idx] = True

    # -- environment signatures -------------------------------------------

    def _interferers(self, downlink: bool) -> Sequence[Radio]:
        """Radios interfering with this cell's links in one direction."""
        cell = self._cell
        if downlink:
            return [c.radio for c in cell.interferers if c is not cell]
        return cell.link_budget.interferers

    def _env(self, downlink: bool) -> tuple:
        cell = self._cell
        lb = cell.link_budget
        inter = tuple(_radio_sig(r) for r in self._interferers(downlink))
        shadow = None if lb.shadowing is None else _model_sig(lb.shadowing)
        return (id(lb), lb.freq_mhz, lb.bandwidth_hz, _model_sig(lb.model),
                shadow, cell.harq_enabled, cell.harq_max_retx,
                _radio_sig(cell.radio), inter)

    def _vector_ok(self, downlink: bool) -> bool:
        if self._cell.link_budget.shadowing is not None:
            return False
        # uplink interferers carry per-transmitter exclusions: scalar rows
        return downlink or not self._interferers(downlink)

    # -- row recomputation -------------------------------------------------

    def _refresh_rows(self, bank: _PhyBank, rows: np.ndarray,
                      downlink: bool) -> None:
        cell = self._cell
        lb = cell.link_budget
        sinr = bank.sinr
        if bank.vector_ok:
            xs, ys, power, gains, nf, cables, papr = self._inputs[:, rows]
            if downlink:
                # thermal_noise_dbm is (kTB over the band) + NF, added in
                # that order: the same bits as the per-row scalar call
                noise = _thermal_noise_cached(lb.bandwidth_hz, 0.0) + nf
                sinr[rows] = lb.sinr_db_fixed_tx_many(
                    cell.radio, xs, ys, gains, cables, noise,
                    self._interferers(True))
            else:
                sinr[rows] = lb.sinr_db_many_tx_fixed_rx(
                    xs, ys, power, papr, gains, cables, cell.radio)
        else:
            sinr_of = cell.sinr_to if downlink else cell.uplink_sinr_from
            radios = self._radios
            for s in rows.tolist():
                sinr[s] = sinr_of(radios[s])
        cqi = select_lte_cqi_index_many(sinr[rows])
        eff = lte_efficiency_for_index(cqi)
        bank.harq[rows] = np.nan  # filled at the row's next grant
        bank.cqi[rows] = cqi
        bank.eff[rows] = eff
        # same association order as bits_per_prb: (eff * 180e3) * 1e-3
        bank.b[rows] = eff * PRB_BANDWIDTH_HZ * TTI_S

    def fill_harq(self, bank: _PhyBank, slots: List[int]) -> None:
        """Fill the stale HARQ factors among granted ``slots`` (rows below
        the CQI floor deliver nothing and stay stale)."""
        idx = np.array(slots, dtype=np.intp)
        cqi = bank.cqi[idx]
        stale = np.isnan(bank.harq[idx]) & (cqi >= 0.0)
        idx = idx[stale]
        bank.harq[idx] = harq_goodput_factor_many(
            bank.sinr[idx], lte_min_sinr_for_index(cqi[stale].astype(np.intp)),
            max_retx=self._cell.harq_max_retx)
