"""Per-cell UE arena: struct-of-arrays state for the TTI engine.

A naive TTI walks every attached UE every TTI: a link-budget
evaluation, a CQI bisect, a HARQ factor, a ``SchedulableUser`` object,
and an EWMA dict update per UE. At hundreds of UEs per cell that
Python-object churn dominates the radio phase. The arena expresses the
same computation over contiguous per-cell arrays:

* one slot per attached UE, in attach (dict) order — the slot order IS
  the iteration order of ``Cell._ues``, so every order-sensitive
  artifact (grant dict insertion order, telemetry observation order,
  EWMA accumulation) follows it;
* PHY banks (downlink and uplink) holding SINR, CQI row index, spectral
  efficiency, per-PRB bits, and HARQ goodput factor per slot, refreshed
  *only* for rows whose inputs changed (a moved or re-parameterized UE)
  or when the cell-level environment signature changes (interferer set,
  serving radio, link budget, HARQ config);
* one EWMA average-rate array per scheduler the cell currently runs.

Every per-UE datum is stored once. What the radio math reads of a UE is
its cached value tuple and nothing else; what it writes (a bank's five
columns), each bank's dirty flags and the backlog are rows of one float
block per arena whose capacity doubles when full, so attach and detach
are O(1) array operations and a refresh scatters straight into the
columns. Readers that need Python values (schedulers, telemetry, the
delivered map) take ``tolist()`` of a column; nothing is mirrored, so
there is nothing to keep in step.

The contract is **bit identity** with the per-UE scalar evaluators
(held by the test oracle under ``tests/reference/``): the vector
refresh routes its transcendental choke points through the libm element
maps in ``repro.phy.vmath`` (numpy's SIMD kernels round differently at
1 ulp on a few percent of inputs), keeps the scalar expressions'
association order, and falls back to the scalar evaluators per row for
geometries the vector path does not cover (directional antennas,
shadowing, per-transmitter interferer exclusions on the uplink). Those
fallback rows are still cached and still scheduled through the arena.

Row staleness is detected by value: each slot caches a tuple of its
radio's PHY-relevant fields (position included), compared every TTI, so
both radio replacement and in-place mutation invalidate the row.
Backlog / GBR / priority are synced every TTI without dirtying the PHY
banks (they never feed the radio math).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

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

#: rows of an arena's column block: backlog, then six per PHY bank
_BLOCK_ROWS = 13


def _radio_sig(radio: Radio) -> tuple:
    """Value tuple of every radio field the PHY math reads."""
    p = radio.position
    return (p.x, p.y, radio.tx_power_dbm, radio.antenna_gain_dbi,
            radio.noise_figure_db, radio.cable_loss_db,
            radio.ul_papr_advantage_db, radio.antenna)


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
    index as a float, ``-1`` below the CQI floor.
    """

    __slots__ = ("env_sig", "vector_ok", "dirty", "sinr", "cqi", "eff",
                 "b", "harq")

    def __init__(self) -> None:
        self.env_sig: Optional[tuple] = None
        self.vector_ok = False

    def bind(self, rows: np.ndarray) -> None:
        (self.dirty, self.sinr, self.cqi, self.eff, self.b,
         self.harq) = rows


class UeArena:
    """Struct-of-arrays mirror of one cell's attached-UE set."""

    def __init__(self, cell: "Cell") -> None:
        self._cell = cell
        #: UE ids in slot (attach) order — mirrors ``Cell._ues`` exactly.
        self.ids: List[str] = []
        self.slot_of: Dict[str, int] = {}
        self._ctxs: List["UeRadioContext"] = []
        #: per-slot :func:`_radio_sig`: the PHY math's only view of a UE
        self._sigs: List[tuple] = []
        # scheduler-visible per-slot demand state (``backlog`` is row 0
        # of the block, taken by _bind_columns)
        self.gbr: List[float] = []
        self.priority: List[int] = []
        self.dl = _PhyBank()
        self.ul = _PhyBank()
        self._block = np.zeros((_BLOCK_ROWS, 8))
        self._bind_columns()
        #: rate stores of the schedulers the cell currently runs
        self._stores: List[Tuple[LteScheduler, RateStore]] = []
        #: slots sorted by descending UE id (PF tie-break order), cached
        self.desc_order: List[int] = []
        self._desc_stale = True

    # -- structural maintenance (driven by Cell.add_ue / remove_ue) --------

    def _bind_columns(self) -> None:
        """Re-take every column as a view of the block's live slots."""
        live = self._block[:, :len(self.ids)]
        self.backlog = live[0]
        self.dl.bind(live[1:7])
        self.ul.bind(live[7:13])

    def attach(self, ctx: "UeRadioContext") -> None:
        uid = ctx.ue_id
        slot = len(self.ids)
        self.slot_of[uid] = slot
        self.ids.append(uid)
        self._ctxs.append(ctx)
        self._sigs.append(_radio_sig(ctx.radio))
        self.gbr.append(ctx.gbr_bps)
        self.priority.append(ctx.priority)
        block = self._block
        if slot == block.shape[1]:
            self._block = np.zeros((_BLOCK_ROWS, 2 * slot))
            self._block[:, :slot] = block
        self._bind_columns()
        self.backlog[slot] = ctx.backlog_bits
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
        for lst in (self.ids, self._ctxs, self._sigs, self.gbr,
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
        return UserColumns(
            ids=self.ids, slot_of=self.slot_of, eff=bank.eff.tolist(),
            b=bank.b, avg=self._store_for(scheduler).avg, gbr=self.gbr,
            priority=self.priority, elig=mask.nonzero()[0].tolist(),
            desc_order=self.desc_order)

    # -- per-TTI refresh ---------------------------------------------------

    def refresh_downlink(self) -> _PhyBank:
        return self._refresh(self.dl, downlink=True)

    def refresh_uplink(self) -> _PhyBank:
        return self._refresh(self.ul, downlink=False)

    def _refresh(self, bank: _PhyBank, downlink: bool) -> _PhyBank:
        if self._desc_stale:
            self.desc_order = descending_id_order(self.ids)
            self._desc_stale = False
        self._scan_rows()
        env = self._env(downlink)
        if env != bank.env_sig:
            bank.env_sig = env
            bank.vector_ok = self._vector_ok(downlink)
            bank.dirty[:] = True
        stale = bank.dirty.nonzero()[0]
        if stale.size:
            self._refresh_rows(bank, stale, downlink)
            bank.dirty[stale] = False
        return bank

    def _scan_rows(self) -> None:
        """Value-compare every row's inputs against the cached copies."""
        sigs = self._sigs
        backlog = self.backlog
        seen = backlog.tolist()  # compare Python floats, not array cells
        gbr = self.gbr
        prio = self.priority
        changed: List[int] = []
        for slot, ctx in enumerate(self._ctxs):
            # _radio_sig(ctx.radio), inlined: this loop runs per attached
            # UE per TTI and is the engine's traced top line
            r = ctx.radio
            p = r.position
            sig = (p.x, p.y, r.tx_power_dbm, r.antenna_gain_dbi,
                   r.noise_figure_db, r.cable_loss_db,
                   r.ul_papr_advantage_db, r.antenna)
            if sig != sigs[slot]:
                sigs[slot] = sig
                changed.append(slot)
            bl = ctx.backlog_bits
            if bl != seen[slot]:
                backlog[slot] = bl
            gbr[slot] = ctx.gbr_bps
            prio[slot] = ctx.priority
        if changed:
            self.dl.dirty[changed] = self.ul.dirty[changed] = True

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
        cell = self._cell
        if (cell.link_budget.shadowing is not None
                or cell.radio.antenna is not None):
            return False
        inter = self._interferers(downlink)
        if downlink:
            return all(r.antenna is None for r in inter)
        # uplink interferers carry per-transmitter exclusions: scalar rows
        return not inter

    # -- row recomputation -------------------------------------------------

    def _refresh_rows(self, bank: _PhyBank, rows: np.ndarray,
                      downlink: bool) -> None:
        cell = self._cell
        lb = cell.link_budget
        sigs = self._sigs
        vec: List[int] = []
        sca = rows.tolist()
        if bank.vector_ok:  # omni antenna -> vector-refreshable
            vec = [s for s in sca if sigs[s][7] is None]
            sca = [s for s in sca if sigs[s][7] is not None]
        sinr = bank.sinr
        if vec:
            # transpose the dirty rows' tuples: one contiguous input
            # vector per radio field (the antennas, all None, fall off)
            fields = list(zip(*[sigs[s] for s in vec]))
            xs, ys, power, gains, _nf, cables, papr = np.array(
                fields[:7], dtype=float)
            if downlink:
                bw = lb.bandwidth_hz
                noise = np.array([_thermal_noise_cached(bw, nf)
                                  for nf in fields[4]])
                sinr[vec] = lb.sinr_db_fixed_tx_many(
                    cell.radio, xs, ys, gains, cables, noise,
                    self._interferers(True))
            else:
                sinr[vec] = lb.sinr_db_many_tx_fixed_rx(
                    xs, ys, power, papr, gains, cables, cell.radio)
        if sca:
            sinr_of = cell.sinr_to if downlink else cell.uplink_sinr_from
            ctxs = self._ctxs
            for s in sca:
                sinr[s] = sinr_of(ctxs[s].radio)
        svals = sinr[rows]
        cqi = select_lte_cqi_index_many(svals)
        eff = lte_efficiency_for_index(cqi)
        thresh = lte_min_sinr_for_index(cqi)
        # rows below CQI 1 get a junk factor (threshold 0.0) that the
        # delivery tail never consumes — eligibility requires eff > 0
        bank.harq[rows] = harq_goodput_factor_many(
            svals, thresh, max_retx=cell.harq_max_retx)
        bank.cqi[rows] = cqi
        bank.eff[rows] = eff
        # same association order as bits_per_prb: (eff * 180e3) * 1e-3
        bank.b[rows] = eff * PRB_BANDWIDTH_HZ * TTI_S
