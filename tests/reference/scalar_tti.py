"""Test oracle: the scalar per-UE TTI walk, its per-link SINR evaluators,
the five scalar policies, and a user-list packer for the schedulers.

Frozen copy of the reference path that ``src/`` shipped beside the arena
engine until it became the only production path. One per-link SINR
(:func:`sinr_to` / :func:`uplink_sinr_from`, built on
:func:`link_sinr_db` and the :func:`sinr_db` combiner), one CQI lookup,
one HARQ factor and one :class:`SchedulableUser` per UE per TTI, EWMA
rates in a dict keyed by user id. As in production, every UE is
full-buffer (eligible whenever it reaches CQI 1) and HARQ is always on
at ``repro.phy.harq``'s default budget. Production must match it bit
for bit: ``test_mac_arena.py`` compares per TTI, and the ``oracle``
cells of ``test_determinism.py`` swap :func:`schedule_tti` /
:func:`schedule_uplink_tti` / :func:`remove_ue` in for the three ``Cell``
methods and compare whole experiment tables. ``test_enodeb_cell.py`` and
``test_phy_linkbudget_grid.py`` test the SINR evaluators directly.

The oracle keeps its own EWMA state, never on the scheduler, which
stores no rates: one dict per (cell, scheduler) (:func:`rates_of`),
dropped by the rule the arena's columns follow. A walk whose scheduler
has no dict in its cell yet means the cell's scheduler was swapped, and
whatever the cell no longer runs loses its rates, so a scheduler swapped
out and back starts again from zero. A detach must forget the UE's
rates in both directions as the arena does when it drops the row, so
:func:`remove_ue` is ``Cell.remove_ue`` plus that forgetting; a walk
cannot prune it later, because a UE detached and re-attached between two
TTIs (E5's cooperative re-homing) looks attached to both. The
round-robin cursor stays the scheduler's ``_next``.
Policies dispatch on the exact scheduler type via :data:`POLICIES`.

:func:`pack` turns a ``SchedulableUser`` list and a caller-held rates
dict into the :class:`~repro.mac.schedulers.UserColumns` that the
schedulers' one front door, ``allocate_columns``, runs over, so unit
tests can drive a policy without a cell; :func:`allocate_packed` runs
the front door over them and writes the updated averages back.
:func:`arena_rates` reads the production EWMA out of a cell's arena.

The oracle grants PRB *sets*, laid out as each policy lays them out
(round-robin cycling, the PF heap's per-PRB winners, GBR bearers first
in PRB order, one contiguous block per uplink user), while production
grants PRB *counts*. The properties of PRB identity (no PRB granted
twice, every PRB inside the allowed set, one block per uplink user)
are therefore held on :func:`allocate`'s sets, and production is held
to the oracle's per-user set sizes (:func:`grant_counts`).
"""

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from repro.enodeb.cell import Cell
from repro.mac.schedulers import (
    LteScheduler,
    MaxCiScheduler,
    ProportionalFairScheduler,
    QosAwareScheduler,
    RoundRobinScheduler,
    UserColumns,
    descending_id_order,
)
from repro.mac.uplink import ContiguousUplinkScheduler, contiguous_runs
from repro.phy.harq import harq_goodput_factor
from repro.phy.linkbudget import LinkBudget, Radio
from repro.phy.mcs import lte_efficiency_for_sinr, select_lte_cqi
from repro.phy.resource_grid import PRB_BANDWIDTH_HZ, TTI_S
from repro.phy.units import db_to_linear, linear_to_db

Grants = Dict[str, List[int]]


def bits_per_prb(efficiency_bps_hz: float) -> float:
    """Data bits carried by one PRB pair in one TTI at a spectral
    efficiency: eff x 180 kHz x 1 ms (efficiency is defined over
    occupied bandwidth)."""
    if efficiency_bps_hz < 0:
        raise ValueError("efficiency must be non-negative")
    return efficiency_bps_hz * PRB_BANDWIDTH_HZ * TTI_S


@dataclass
class SchedulableUser:
    """Per-TTI view of one attached user.

    Attributes:
        user_id: stable identity across TTIs (EWMA state keys off it).
        sinr_db: current wideband SINR toward this user.
        gbr_bps: guaranteed bit rate, 0 for best-effort.
        priority: lower value = more important, used by QoS scheduler.
    """

    user_id: str
    sinr_db: float
    gbr_bps: float = 0.0
    priority: int = 9

    @property
    def efficiency(self) -> float:
        """Spectral efficiency at the current SINR (0 when unreachable)."""
        return lte_efficiency_for_sinr(self.sinr_db)


# -- the oracle's EWMA store, and production's -------------------------------

#: cell -> {scheduler: {user id: EWMA average rate in bits/s}}
_RATES: "WeakKeyDictionary[Cell, Dict[LteScheduler, Dict[str, float]]]" = (
    WeakKeyDictionary())

#: the production detach :func:`remove_ue` wraps (taken before any patch)
_detach = Cell.remove_ue


def rates_of(cell, sched: LteScheduler) -> Dict[str, float]:
    """The oracle's EWMA averages for ``sched`` in ``cell``, by user id
    (empty until ``sched`` has run a TTI there)."""
    return _RATES.get(cell, {}).get(sched, {})


def _rates_for(cell, sched: LteScheduler) -> Dict[str, float]:
    """The dict a walk of ``sched`` in ``cell`` updates; on a miss, the
    schedulers ``cell`` no longer runs lose theirs."""
    per_cell = _RATES.setdefault(cell, {})
    rates = per_cell.get(sched)
    if rates is None:
        for old in list(per_cell):
            if old is not cell.scheduler and old is not cell.uplink_scheduler:
                del per_cell[old]
        rates = per_cell[sched] = {}
    return rates


def remove_ue(cell, ue_id: str) -> None:
    """Scalar ``Cell.remove_ue``: detach, and forget the UE's rates in
    both directions."""
    _detach(cell, ue_id)
    for sched in (cell.scheduler, cell.uplink_scheduler):
        rates_of(cell, sched).pop(ue_id, None)


def arena_rates(cell, sched: LteScheduler) -> Dict[str, float]:
    """Production's EWMA averages for ``sched`` in ``cell``'s arena, by
    user id (empty until ``sched`` has run a TTI there)."""
    arena = cell._arena
    avg = arena._avg.get(sched)
    return {} if avg is None else dict(zip(arena.ids, avg.tolist()))


# -- the list front door -----------------------------------------------------

def pack(users: Sequence[SchedulableUser],
         rates: Dict[str, float]) -> UserColumns:
    """The columns ``allocate_columns`` runs over, packed from ``users``
    in list order; ``avg`` reads ``rates`` (0 for a user it lacks)."""
    ids = [u.user_id for u in users]
    eff = [u.efficiency for u in users]
    mask = np.array([e > 0 for e in eff], dtype=bool)
    desc = descending_id_order(ids)
    return UserColumns(
        ids=ids, eff=eff,
        b=np.array([bits_per_prb(e) for e in eff], dtype=float),
        avg=np.array([rates.get(uid, 0.0) for uid in ids], dtype=float),
        gbr=np.array([u.gbr_bps for u in users], dtype=float),
        priority=[u.priority for u in users],
        elig=mask.nonzero()[0].tolist(), elig_desc=desc[mask[desc]])


def allocate_packed(sched: LteScheduler, users: Sequence[SchedulableUser],
                    prbs: FrozenSet[int],
                    rates: Optional[Dict[str, float]] = None
                    ) -> Dict[str, int]:
    """``sched.allocate_columns`` over :func:`pack`; the updated averages
    go back into ``rates`` (a fresh dict when None)."""
    rates = {} if rates is None else rates
    cols = pack(users, rates)
    result = sched.allocate_columns(cols, prbs)
    rates.update(zip(cols.ids, cols.avg.tolist()))
    return result


def grant_counts(grants: Dict[str, FrozenSet[int]]) -> Dict[str, int]:
    """The oracle's PRB sets as the per-user counts production grants,
    in the same key order."""
    return {uid: len(prbs) for uid, prbs in grants.items()}


# -- the scalar SINR evaluators, one link at a time ----------------------------

def sinr_db(signal_dbm: float, interferer_dbms: Iterable[float],
            noise_dbm: float) -> float:
    """Combine a signal with interferers and noise into an SINR in dB."""
    denom_mw = db_to_linear(noise_dbm)
    for i_dbm in interferer_dbms:
        denom_mw += db_to_linear(i_dbm)
    return signal_dbm - linear_to_db(denom_mw)


def link_sinr_db(lb: LinkBudget, tx: Radio, rx: Radio,
                 interferers: Iterable[Radio] = ()) -> float:
    """SINR of the ``tx`` -> ``rx`` link over ``lb``; a transmitter is
    never its own interferer."""
    interference = [lb.rx_power_dbm(i, rx) for i in interferers if i is not tx]
    return sinr_db(lb.rx_power_dbm(tx, rx), interference, lb.noise_dbm(rx))


def sinr_to(cell, ue_radio: Radio) -> float:
    """Downlink SINR at a UE, counting overlapping-PRB cells."""
    return link_sinr_db(
        cell.link_budget, cell.radio, ue_radio,
        interferers=[c.radio for c in cell.interferers if c is not cell])


def uplink_sinr_from(cell, ue_radio: Radio) -> float:
    """Uplink SINR at the cell from a UE (SC-FDMA PAPR credit applies
    via the UE radio's ``ul_papr_advantage_db``)."""
    return link_sinr_db(cell.link_budget, ue_radio, cell.radio)


# -- the five scalar policies ------------------------------------------------

def _round_robin(sched, users: List[SchedulableUser], prbs: List[int],
                 rates: Dict[str, float]) -> Grants:
    grants: Grants = {u.user_id: [] for u in users}
    for i, prb in enumerate(prbs):
        user = users[(sched._next + i) % len(users)]
        grants[user.user_id].append(prb)
    sched._next = (sched._next + len(prbs)) % max(len(users), 1)
    return grants


def _max_ci(sched, users: List[SchedulableUser], prbs: List[int],
            rates: Dict[str, float]) -> Grants:
    best = max(users, key=lambda u: (u.efficiency, u.user_id))
    return {best.user_id: list(prbs)}


def _proportional_fair(sched, users: List[SchedulableUser], prbs: List[int],
                       rates: Dict[str, float]) -> Grants:
    grants: Grants = {u.user_id: [] for u in users}
    floor = 1e3  # avoids div-by-zero for new users, biases toward them
    order = sorted(users, key=lambda u: u.user_id, reverse=True)
    insts: List[float] = []
    avgs: List[float] = []
    lists: List[List[int]] = []
    entries: List = []
    for rank, user in enumerate(order):
        inst = bits_per_prb(user.efficiency) * 1e3
        avg = max(rates.get(user.user_id, 0.0), floor)
        insts.append(inst)
        avgs.append(avg)
        lists.append(grants[user.user_id])
        entries.append((-(inst / (avg + 0.0)), rank))
    heapq.heapify(entries)
    for prb in prbs:
        _neg, rank = heapq.heappop(entries)
        granted = lists[rank]
        granted.append(prb)
        inst = insts[rank]
        heapq.heappush(
            entries, (-(inst / (avgs[rank] + len(granted) * inst)), rank))
    return grants


def _qos_aware(sched, users: List[SchedulableUser], prbs: List[int],
               rates: Dict[str, float]) -> Grants:
    grants: Grants = {u.user_id: [] for u in users}
    remaining = list(prbs)
    gbr_users = sorted((u for u in users if u.gbr_bps > 0),
                       key=lambda u: (u.priority, u.user_id))
    for user in gbr_users:
        needed_bits = user.gbr_bps * 1e-3  # per TTI
        per_prb = bits_per_prb(user.efficiency)
        while remaining and needed_bits > 0:
            grants[user.user_id].append(remaining.pop(0))
            needed_bits -= per_prb
    if remaining:
        for uid, extra in _proportional_fair(sched, users, remaining,
                                             rates).items():
            grants[uid].extend(extra)
    return grants


def _contiguous_uplink(sched, users: List[SchedulableUser], prbs: List[int],
                       rates: Dict[str, float]) -> Grants:
    allowed = frozenset(prbs)
    runs = contiguous_runs(allowed)
    total = len(allowed)
    floor = 1e3
    weights = {
        u.user_id: (bits_per_prb(u.efficiency) * 1e3
                    / max(rates.get(u.user_id, 0.0), floor))
        for u in users}
    weight_sum = sum(weights.values()) or 1.0
    target = {uid: max(1, round(total * w / weight_sum))
              for uid, w in weights.items()}
    order = sorted(users, key=lambda u: (-target[u.user_id], u.user_id))
    runs = sorted(runs, key=lambda r: -r[1])
    grants: Grants = {u.user_id: [] for u in users}
    for user in order:
        want = target[user.user_id]
        for i, (start, length) in enumerate(runs):
            if length <= 0:
                continue
            take = min(want, length)
            grants[user.user_id] = list(range(start, start + take))
            runs[i] = (start + take, length - take)
            break
    return grants


#: exact scheduler type -> scalar policy (tests add their own subclasses)
POLICIES = {
    RoundRobinScheduler: _round_robin,
    MaxCiScheduler: _max_ci,
    ProportionalFairScheduler: _proportional_fair,
    QosAwareScheduler: _qos_aware,
    ContiguousUplinkScheduler: _contiguous_uplink,
}


# -- the scalar allocation ----------------------------------------------------

def allocate(sched: LteScheduler, users: Sequence[SchedulableUser],
             prbs: FrozenSet[int],
             rates: Dict[str, float]) -> Dict[str, FrozenSet[int]]:
    """Scalar ``allocate_columns``: filter, assign, per-user EWMA update
    of ``rates``."""
    eligible = [u for u in users if u.efficiency > 0]
    grants: Grants = {}
    if eligible and prbs:
        grants = POLICIES[type(sched)](sched, eligible, sorted(prbs), rates)
    result = {uid: frozenset(g) for uid, g in grants.items() if g}
    alpha = 1.0 / sched.PF_WINDOW_TTIS
    for user in users:
        served = len(result.get(user.user_id, ()))
        inst = served * bits_per_prb(user.efficiency) * 1e3  # bits/s
        prev = rates.get(user.user_id, 0.0)
        rates[user.user_id] = (1 - alpha) * prev + alpha * inst
    return result


# -- the scalar walk (signatures match the two Cell methods) -------------------

def _deliver(cell, grants: Dict[str, FrozenSet[int]],
             sinrs: Dict[str, float]) -> Dict[str, float]:
    delivered: Dict[str, float] = {}
    for ue_id, prbs in grants.items():
        if not prbs:
            continue
        sinr = sinrs[ue_id]
        entry = select_lte_cqi(sinr)
        assert entry is not None, \
            f"{ue_id} granted {len(prbs)} PRBs below the CQI floor"
        factor = harq_goodput_factor(sinr, entry.min_sinr_db)
        cell._m_harq.observe(factor)
        cell._m_prbs.observe(len(prbs))
        delivered[ue_id] = (len(prbs) * bits_per_prb(entry.efficiency_bps_hz)
                            * factor)
    return delivered


def _walk(cell, scheduler, sinr_of, observe_sinr: bool) -> Dict[str, float]:
    cell._m_ttis.inc()
    users = []
    sinrs: Dict[str, float] = {}
    for ctx in cell._ues.values():
        sinr = sinr_of(cell, ctx.radio)
        sinrs[ctx.ue_id] = sinr
        if observe_sinr:
            cell._m_sinr.observe(sinr)
        users.append(SchedulableUser(user_id=ctx.ue_id, sinr_db=sinr,
                                     gbr_bps=ctx.gbr_bps,
                                     priority=ctx.priority))
    grants = allocate(scheduler, users, cell.allowed_prbs,
                      _rates_for(cell, scheduler))
    return _deliver(cell, grants, sinrs)


def schedule_tti(cell) -> Dict[str, float]:
    """Scalar ``Cell.schedule_tti``."""
    return _walk(cell, cell.scheduler, sinr_to, observe_sinr=True)


def schedule_uplink_tti(cell) -> Dict[str, float]:
    """Scalar ``Cell.schedule_uplink_tti`` (no per-UE SINR telemetry)."""
    return _walk(cell, cell.uplink_scheduler, uplink_sinr_from,
                 observe_sinr=False)
