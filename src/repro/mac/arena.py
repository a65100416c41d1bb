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

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

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


_EMPTY = np.empty(0)


class _PhyBank:
    """Cached per-slot radio quantities for one link direction."""

    __slots__ = ("env_sig", "vector_ok", "dirty", "sinr_l", "cqi", "eff",
                 "b", "harq", "sinr_arr", "eff_arr", "b_arr", "arrays_stale")

    def __init__(self) -> None:
        self.env_sig: Optional[tuple] = None
        self.vector_ok = False
        self.dirty: List[bool] = []
        self.sinr_l: List[float] = []
        self.cqi: List[int] = []
        self.eff: List[float] = []
        self.b: List[float] = []
        self.harq: List[float] = []
        self.sinr_arr = _EMPTY
        self.eff_arr = _EMPTY
        self.b_arr = _EMPTY
        self.arrays_stale = True

    def append_row(self) -> None:
        self.dirty.append(True)
        self.sinr_l.append(0.0)
        self.cqi.append(-1)
        self.eff.append(0.0)
        self.b.append(0.0)
        self.harq.append(0.0)
        self.arrays_stale = True

    def drop_row(self, slot: int) -> None:
        for lst in (self.dirty, self.sinr_l, self.cqi, self.eff,
                    self.b, self.harq):
            del lst[slot]
        self.arrays_stale = True

    def rebuild_arrays(self) -> None:
        self.sinr_arr = np.array(self.sinr_l, dtype=float)
        self.eff_arr = np.array(self.eff, dtype=float)
        self.b_arr = np.array(self.b, dtype=float)
        self.arrays_stale = False


class UeArena:
    """Struct-of-arrays mirror of one cell's attached-UE set."""

    def __init__(self, cell: "Cell") -> None:
        self._cell = cell
        #: UE ids in slot (attach) order — mirrors ``Cell._ues`` exactly.
        self.ids: List[str] = []
        self.slot_of: Dict[str, int] = {}
        self._ctxs: List["UeRadioContext"] = []
        # per-slot cached radio value tuples + unpacked columns
        self._sigs: List[tuple] = []
        self._plain: List[bool] = []  # omni antenna -> vector-refreshable
        self._x: List[float] = []
        self._y: List[float] = []
        self._gain: List[float] = []
        self._cable: List[float] = []
        self._nf: List[float] = []
        self._power: List[float] = []
        self._papr: List[float] = []
        # scheduler-visible per-slot demand state
        self.backlog: List[float] = []
        self.gbr: List[float] = []
        self.priority: List[int] = []
        self.backlog_arr = _EMPTY
        self._backlog_stale = True
        self.dl = _PhyBank()
        self.ul = _PhyBank()
        #: rate stores of the schedulers the cell currently runs
        self._stores: List[Tuple[LteScheduler, RateStore]] = []
        #: slots sorted by descending UE id (PF tie-break order), cached
        self.desc_order: List[int] = []
        self._desc_stale = True

    @property
    def n(self) -> int:
        return len(self.ids)

    # -- structural maintenance (driven by Cell.add_ue / remove_ue) --------

    def attach(self, ctx: "UeRadioContext") -> None:
        uid = ctx.ue_id
        self.slot_of[uid] = len(self.ids)
        self.ids.append(uid)
        self._ctxs.append(ctx)
        sig = _radio_sig(ctx.radio)
        self._sigs.append(sig)
        self._plain.append(sig[7] is None)
        self._x.append(sig[0])
        self._y.append(sig[1])
        self._power.append(sig[2])
        self._gain.append(sig[3])
        self._nf.append(sig[4])
        self._cable.append(sig[5])
        self._papr.append(sig[6])
        self.backlog.append(ctx.backlog_bits)
        self.gbr.append(ctx.gbr_bps)
        self.priority.append(ctx.priority)
        self._backlog_stale = True
        self._desc_stale = True
        self.dl.append_row()
        self.ul.append_row()
        for _sched, store in self._stores:
            store.avg = np.append(store.avg, 0.0)

    def detach(self, uid: str) -> None:
        slot = self.slot_of.pop(uid, None)
        if slot is None:
            return
        for lst in (self.ids, self._ctxs, self._sigs, self._plain,
                    self._x, self._y, self._power, self._gain, self._nf,
                    self._cable, self._papr, self.backlog, self.gbr,
                    self.priority):
            del lst[slot]
        ids = self.ids
        for i in range(slot, len(ids)):
            self.slot_of[ids[i]] = i
        self._backlog_stale = True
        self._desc_stale = True
        self.dl.drop_row(slot)
        self.ul.drop_row(slot)
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
        elig: List[int] = []
        if self.ids:
            mask = (bank.eff_arr > 0.0) & (self.backlog_arr > 0.0)
            elig = np.nonzero(mask)[0].tolist()
        return UserColumns(
            ids=self.ids, slot_of=self.slot_of, eff=bank.eff, b=bank.b_arr,
            avg=self._store_for(scheduler).avg, gbr=self.gbr,
            priority=self.priority, elig=elig, desc_order=self.desc_order)

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
        env = self._dl_env() if downlink else self._ul_env()
        if env != bank.env_sig:
            bank.env_sig = env
            bank.vector_ok = (self._dl_vector_ok() if downlink
                              else self._ul_vector_ok())
            dirty = bank.dirty
            for i in range(len(dirty)):
                dirty[i] = True
        stale = [i for i, d in enumerate(bank.dirty) if d]
        if stale:
            self._refresh_rows(bank, stale, downlink)
            dirty = bank.dirty
            for s in stale:
                dirty[s] = False
        if bank.arrays_stale:
            bank.rebuild_arrays()
        if self._backlog_stale:
            self.backlog_arr = np.array(self.backlog, dtype=float)
            self._backlog_stale = False
        return bank

    def _scan_rows(self) -> None:
        """Value-compare every row's inputs against the cached copies."""
        sigs = self._sigs
        backlog = self.backlog
        gbr = self.gbr
        prio = self.priority
        barr = self.backlog_arr
        bstale = self._backlog_stale
        dl_dirty = self.dl.dirty
        ul_dirty = self.ul.dirty
        for slot, ctx in enumerate(self._ctxs):
            r = ctx.radio
            p = r.position
            sig = (p.x, p.y, r.tx_power_dbm, r.antenna_gain_dbi,
                   r.noise_figure_db, r.cable_loss_db,
                   r.ul_papr_advantage_db, r.antenna)
            if sig != sigs[slot]:
                sigs[slot] = sig
                self._plain[slot] = sig[7] is None
                self._x[slot] = sig[0]
                self._y[slot] = sig[1]
                self._power[slot] = sig[2]
                self._gain[slot] = sig[3]
                self._nf[slot] = sig[4]
                self._cable[slot] = sig[5]
                self._papr[slot] = sig[6]
                dl_dirty[slot] = True
                ul_dirty[slot] = True
            bl = ctx.backlog_bits
            if bl != backlog[slot]:
                backlog[slot] = bl
                if not bstale:
                    barr[slot] = bl
            g = ctx.gbr_bps
            if g != gbr[slot]:
                gbr[slot] = g
            pr = ctx.priority
            if pr != prio[slot]:
                prio[slot] = pr

    # -- environment signatures -------------------------------------------

    def _dl_env(self) -> tuple:
        cell = self._cell
        lb = cell.link_budget
        inter = tuple(_radio_sig(c.radio) for c in cell.interferers
                      if c is not cell)
        shadow = None if lb.shadowing is None else _model_sig(lb.shadowing)
        return (id(lb), lb.freq_mhz, lb.bandwidth_hz, _model_sig(lb.model),
                shadow, cell.harq_enabled, cell.harq_max_retx,
                _radio_sig(cell.radio), inter)

    def _ul_env(self) -> tuple:
        cell = self._cell
        lb = cell.link_budget
        inter = tuple(_radio_sig(r) for r in lb.interferers)
        shadow = None if lb.shadowing is None else _model_sig(lb.shadowing)
        return (id(lb), lb.freq_mhz, lb.bandwidth_hz, _model_sig(lb.model),
                shadow, cell.harq_enabled, cell.harq_max_retx,
                _radio_sig(cell.radio), inter)

    def _dl_vector_ok(self) -> bool:
        cell = self._cell
        lb = cell.link_budget
        return (lb.shadowing is None and cell.radio.antenna is None
                and all(c.radio.antenna is None for c in cell.interferers
                        if c is not cell))

    def _ul_vector_ok(self) -> bool:
        cell = self._cell
        lb = cell.link_budget
        return (lb.shadowing is None and cell.radio.antenna is None
                and not lb.interferers)

    # -- row recomputation -------------------------------------------------

    def _refresh_rows(self, bank: _PhyBank, rows: List[int],
                      downlink: bool) -> None:
        cell = self._cell
        lb = cell.link_budget
        if bank.vector_ok:
            plain = self._plain
            vec = [s for s in rows if plain[s]]
            sca = [s for s in rows if not plain[s]]
        else:
            vec = []
            sca = rows
        sinr_l = bank.sinr_l
        if vec:
            xs = np.array([self._x[s] for s in vec])
            ys = np.array([self._y[s] for s in vec])
            gains = np.array([self._gain[s] for s in vec])
            cables = np.array([self._cable[s] for s in vec])
            if downlink:
                bw = lb.bandwidth_hz
                noise = np.array([_thermal_noise_cached(bw, self._nf[s])
                                  for s in vec])
                inter = [c.radio for c in cell.interferers if c is not cell]
                svals = lb.sinr_db_fixed_tx_many(
                    cell.radio, xs, ys, gains, cables, noise, inter)
            else:
                power = np.array([self._power[s] for s in vec])
                papr = np.array([self._papr[s] for s in vec])
                svals = lb.sinr_db_many_tx_fixed_rx(
                    xs, ys, power, papr, gains, cables, cell.radio)
            sv = svals.tolist()
            for i, s in enumerate(vec):
                sinr_l[s] = sv[i]
        if sca:
            ctxs = self._ctxs
            if downlink:
                for s in sca:
                    sinr_l[s] = cell.sinr_to(ctxs[s].radio)
            else:
                for s in sca:
                    sinr_l[s] = cell.uplink_sinr_from(ctxs[s].radio)
        svals = np.array([sinr_l[s] for s in rows], dtype=float)
        cqi = select_lte_cqi_index_many(svals)
        eff = lte_efficiency_for_index(cqi)
        thresh = lte_min_sinr_for_index(cqi)
        # same association order as bits_per_prb: (eff * 180e3) * 1e-3
        b = eff * PRB_BANDWIDTH_HZ * TTI_S
        # rows below CQI 1 get a junk factor (threshold 0.0) that the
        # delivery tail never consumes — eligibility requires eff > 0
        harq = harq_goodput_factor_many(svals, thresh,
                                        max_retx=cell.harq_max_retx)
        cl = cqi.tolist()
        el = eff.tolist()
        bl = b.tolist()
        hl = harq.tolist()
        cqi_l = bank.cqi
        eff_l = bank.eff
        b_l = bank.b
        harq_l = bank.harq
        for i, s in enumerate(rows):
            cqi_l[s] = cl[i]
            eff_l[s] = el[i]
            b_l[s] = bl[i]
            harq_l[s] = hl[i]
        bank.arrays_stale = True
