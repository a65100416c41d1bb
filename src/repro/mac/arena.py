"""Per-cell UE arena: struct-of-arrays state for the TTI engine.

The TTI engine is array work over one slot per attached UE, in attach
(dict) order — the slot order IS the iteration order of ``Cell._ues``,
so every order-sensitive artifact (grant map order, telemetry
observation order, EWMA accumulation) follows it. Per slot the arena
holds the demand columns, the radio inputs, a downlink and an uplink PHY
bank (SINR, CQI row index, spectral efficiency, per-PRB bits, HARQ
goodput factor) and one EWMA average-rate array per scheduler the cell
currently runs.

Every UE is full-buffer and its demand (GBR, priority) is fixed at
attach: a ``UeRadioContext`` is frozen, and a UE whose demand changes
is detached and attached again. So the demand columns are written at
attach and moved at detach, and by nothing else.

Every per-UE datum is stored once. What the radio math reads of a UE
are its input columns (position, power, gain, noise figure, cable loss,
PAPR credit), written at attach and when a re-read finds the radio
changed — one transposition per move, not one per bank per refresh;
the per-slot value tuple is only what the next write is compared
against. What the math writes (a bank's five columns), each
bank's dirty flags and the GBR are rows of the same float
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
association order. There is one refresh path per direction: the
downlink against the cell's interfering cells, the uplink against no
interferer (none is modelled at the cell's receiver).

Who changes a row says so; nothing polls the attached set. At attach the
arena hangs a watcher on the UE's ``Radio``
(``repro.phy.linkbudget.Watched``), taken off at detach and re-made by
a copied arena. Any assignment to the radio, by whoever moves or
re-parameterises it, adds the UE to ``_touched`` through a C-level
call, and the next refresh re-reads those radios only. The re-read
still compares the cached tuple *by value*: an equal write, or writes
that end where they began, dirty nothing. What stays a per-TTI poll is
the cell-level environment signature (interferer set, serving radio,
link budget): it is O(interferers), not O(UEs), and a change dirties
every row. A TTI on a cell nobody wrote to runs no per-UE Python.

What a TTI reads of the arena is reused while it cannot have changed.
Each bank's ``version`` moves when a refresh rewrites a row or the
views are re-taken, which attach and detach do. The scheduler columns'
``eff`` list and eligibility (:meth:`UeArena.columns`) are derived once
per bank version, and ``Cell`` bins the downlink SINR column once per
bank version, so a static cell's TTI converts no column for the
scheduler. The GBR, priority, bits-per-PRB and EWMA columns are handed
over as they are, never copied.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from repro.mac.schedulers import (
    LteScheduler,
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

#: rows of an arena's column block: GBR, six per PHY bank, then the
#: seven radio inputs of :func:`_radio_sig`
_BLOCK_ROWS = 20


def _radio_sig(radio: Radio) -> tuple:
    """Value tuple of every radio field the PHY math reads (the arena's
    input rows, in this order)."""
    p = radio.position
    return (p.x, p.y, radio.tx_power_dbm, radio.antenna_gain_dbi,
            radio.noise_figure_db, radio.cable_loss_db,
            radio.ul_papr_advantage_db)


def _model_sig(model: object) -> tuple:
    """Value signature of a propagation model: its attributes in their
    own (insertion) order. Equal tuples mean equal values; an equal model
    whose attributes were set in another order only costs a refresh."""
    attrs = getattr(model, "__dict__", None)
    return (type(model).__name__, tuple(attrs.items()) if attrs else ())


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
    function of the row's SINR and CQI, which stood still. ``reads``
    is :meth:`UeArena.columns`' own such reader: the version it was
    derived at and what it derived.
    """

    __slots__ = ("env_sig", "version", "dirty", "sinr", "cqi", "eff", "b",
                 "harq", "reads")

    def __init__(self) -> None:
        self.env_sig: Optional[tuple] = None
        self.version = 0
        self.reads: tuple = (None,)

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
        #: per-slot radio (its context's) and the watcher hung on it
        self._radios: List[Radio] = []
        self._marks: List[Callable[[], None]] = []
        #: per-slot :func:`_radio_sig` as last read: what a write is
        #: compared against (the math reads the input rows of the block)
        self._sigs: List[tuple] = []
        #: ids of UEs whose radio was written since the last refresh
        self._touched: Set[str] = set()
        # scheduler-visible per-slot demand state (``gbr`` is row 0 of
        # the block, taken by _bind_columns, as is ``_inputs``)
        self.priority: List[int] = []
        self.dl = _PhyBank()
        self.ul = _PhyBank()
        self._block = np.zeros((_BLOCK_ROWS, 8))
        self._bind_columns()
        #: EWMA average rate per slot, one column per scheduler the cell
        #: currently runs (the only store of scheduler history)
        self._avg: Dict[LteScheduler, np.ndarray] = {}
        #: slots sorted by descending UE id (PF tie-break order), cached
        self.desc_order = descending_id_order(self.ids)
        self._desc_stale = True

    # -- structural maintenance (driven by Cell.add_ue / remove_ue) --------

    def _bind_columns(self) -> None:
        """Re-take every column as a view of the block's live slots."""
        live = self._block[:, :len(self.ids)]
        self.gbr = live[0]
        self.dl.bind(live[1:7])
        self.ul.bind(live[7:13])
        self._inputs = live[13:20]

    def _watch(self, uid: str, radio: Radio) -> None:
        """A radio write marks the row with one C-level call (every UE
        may move every TTI)."""
        mark = partial(self._touched.add, uid)
        self._marks.append(mark)
        radio.watch(mark)

    def __setstate__(self, state: dict) -> None:
        # a pickled or deep-copied arena's radios arrive unwatched and
        # its columns as copies, not views: bind and hook its own
        self.__dict__.update(state)
        self._bind_columns()
        self._marks = []
        for uid, radio in zip(self.ids, self._radios):
            self._watch(uid, radio)

    def attach(self, ctx: "UeRadioContext") -> None:
        uid = ctx.ue_id
        slot = len(self.ids)
        self.slot_of[uid] = slot
        self.ids.append(uid)
        self._radios.append(ctx.radio)
        sig = _radio_sig(ctx.radio)
        self._sigs.append(sig)
        self.priority.append(ctx.priority)
        self._watch(uid, ctx.radio)
        block = self._block
        if slot == block.shape[1]:
            self._block = np.zeros((_BLOCK_ROWS, 2 * slot))
            self._block[:, :slot] = block
        self._bind_columns()
        self.gbr[slot] = ctx.gbr_bps
        self._inputs[:, slot] = sig
        # a new row is dirty in both banks, so its other cells (whatever
        # an earlier tenant of the column left) are written before read
        self.dl.dirty[slot] = self.ul.dirty[slot] = True
        self._desc_stale = True
        for sched, avg in self._avg.items():
            self._avg[sched] = np.append(avg, 0.0)

    def detach(self, uid: str) -> None:
        slot = self.slot_of.pop(uid, None)
        if slot is None:
            return
        self._radios[slot].unwatch(self._marks[slot])
        self._touched.discard(uid)
        for lst in (self.ids, self._radios, self._marks, self._sigs,
                    self.priority):
            del lst[slot]
        ids = self.ids
        for i in range(slot, len(ids)):
            self.slot_of[ids[i]] = i
        block = self._block
        block[:, slot:len(ids)] = block[:, slot + 1:len(ids) + 1]
        self._bind_columns()
        self._desc_stale = True
        for sched, avg in self._avg.items():
            self._avg[sched] = np.delete(avg, slot)

    # -- scheduler-facing columns ------------------------------------------

    def _avg_for(self, scheduler: LteScheduler) -> np.ndarray:
        avg = self._avg.get(scheduler)
        if avg is None:
            # a miss means the cell's scheduler was swapped: whatever it
            # no longer runs loses its column
            cell = self._cell
            self._avg = {sched: old for sched, old in self._avg.items()
                         if sched is cell.scheduler
                         or sched is cell.uplink_scheduler}
            avg = self._avg[scheduler] = np.zeros(len(self.ids))
        return avg

    def columns(self, bank: _PhyBank, scheduler: LteScheduler) -> UserColumns:
        """This TTI's columns for ``scheduler`` over a refreshed bank.

        ``eff`` as a list and the two eligibility columns are derived
        once per bank version and reused until it moves; nothing a
        scheduler is handed is written by it except ``avg``."""
        version = bank.version
        reads = bank.reads
        if reads[0] != version:
            mask = bank.eff > 0.0
            desc = self.desc_order
            reads = bank.reads = (version, bank.eff.tolist(),
                                  mask.nonzero()[0].tolist(),
                                  desc[mask[desc]])
        _version, eff, elig, elig_desc = reads
        return UserColumns(
            ids=self.ids, eff=eff, b=bank.b, avg=self._avg_for(scheduler),
            gbr=self.gbr, priority=self.priority, elig=elig,
            elig_desc=elig_desc)

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
        return ()

    def _env(self, downlink: bool) -> tuple:
        cell = self._cell
        lb = cell.link_budget
        inter = tuple(_radio_sig(r) for r in self._interferers(downlink))
        return (id(lb), lb.freq_mhz, lb.bandwidth_hz, _model_sig(lb.model),
                _radio_sig(cell.radio), inter)

    # -- row recomputation -------------------------------------------------

    def _refresh_rows(self, bank: _PhyBank, rows: np.ndarray,
                      downlink: bool) -> None:
        cell = self._cell
        lb = cell.link_budget
        sinr = bank.sinr
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
        cqi = select_lte_cqi_index_many(sinr[rows])
        eff = lte_efficiency_for_index(cqi)
        bank.harq[rows] = np.nan  # filled at the row's next grant
        bank.cqi[rows] = cqi
        bank.eff[rows] = eff
        # bits per PRB pair per TTI, associated as the scalar oracle's
        # per-PRB bits: (eff * 180e3) * 1e-3
        bank.b[rows] = eff * PRB_BANDWIDTH_HZ * TTI_S

    def fill_harq(self, bank: _PhyBank, slots: List[int]) -> None:
        """Fill the stale HARQ factors among granted ``slots``."""
        idx = np.array(slots, dtype=np.intp)
        idx = idx[np.isnan(bank.harq[idx])]
        bank.harq[idx] = harq_goodput_factor_many(
            bank.sinr[idx],
            lte_min_sinr_for_index(bank.cqi[idx].astype(np.intp)))
