"""Test oracle: the scalar per-UE TTI walk and the five scalar policies.

Frozen copy of the reference path that ``src/`` shipped beside the arena
engine until it became the only production path. One link budget, one
CQI lookup, one HARQ factor and one ``SchedulableUser`` per UE per TTI,
EWMA rates in a dict keyed by user id. Production must match it bit for
bit: ``test_mac_arena.py`` compares per TTI, ``test_batch_equivalence.py``
swaps :func:`schedule_tti` / :func:`schedule_uplink_tti` in for the two
``Cell`` methods and compares whole experiment tables.

The oracle keeps no state of its own: rates live in the production
scheduler's ``allocate`` front-door dict (``_rates``, which
``Cell.remove_ue`` forgets for both directions — "detach drops
scheduler history") and the round-robin cursor in its ``_next``.
Policies dispatch on the exact scheduler type via :data:`POLICIES`.
"""

import heapq
from typing import Dict, FrozenSet, List, Sequence

from repro.mac.schedulers import (
    LteScheduler,
    MaxCiScheduler,
    ProportionalFairScheduler,
    QosAwareScheduler,
    RoundRobinScheduler,
    SchedulableUser,
)
from repro.mac.uplink import ContiguousUplinkScheduler, contiguous_runs
from repro.phy.harq import harq_goodput_factor
from repro.phy.mcs import select_lte_cqi
from repro.phy.resource_grid import bits_per_prb

Grants = Dict[str, List[int]]


# -- the five scalar policies ------------------------------------------------

def _round_robin(sched, users: List[SchedulableUser], prbs: List[int]) -> Grants:
    grants: Grants = {u.user_id: [] for u in users}
    for i, prb in enumerate(prbs):
        user = users[(sched._next + i) % len(users)]
        grants[user.user_id].append(prb)
    sched._next = (sched._next + len(prbs)) % max(len(users), 1)
    return grants


def _max_ci(sched, users: List[SchedulableUser], prbs: List[int]) -> Grants:
    best = max(users, key=lambda u: (u.efficiency, u.user_id))
    return {best.user_id: list(prbs)}


def _proportional_fair(sched, users: List[SchedulableUser],
                       prbs: List[int]) -> Grants:
    grants: Grants = {u.user_id: [] for u in users}
    floor = 1e3  # avoids div-by-zero for new users, biases toward them
    order = sorted(users, key=lambda u: u.user_id, reverse=True)
    insts: List[float] = []
    avgs: List[float] = []
    lists: List[List[int]] = []
    entries: List = []
    for rank, user in enumerate(order):
        inst = bits_per_prb(user.efficiency) * 1e3
        avg = max(sched._rates.get(user.user_id, 0.0), floor)
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


def _qos_aware(sched, users: List[SchedulableUser], prbs: List[int]) -> Grants:
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
        for uid, extra in _proportional_fair(sched, users, remaining).items():
            grants[uid].extend(extra)
    return grants


def _contiguous_uplink(sched, users: List[SchedulableUser],
                       prbs: List[int]) -> Grants:
    allowed = frozenset(prbs)
    runs = contiguous_runs(allowed)
    total = len(allowed)
    floor = 1e3
    weights = {
        u.user_id: (bits_per_prb(u.efficiency) * 1e3
                    / max(sched._rates.get(u.user_id, 0.0), floor))
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


# -- scalar LteScheduler.allocate ---------------------------------------------

def allocate(sched: LteScheduler, users: Sequence[SchedulableUser],
             prbs: FrozenSet[int]) -> Dict[str, FrozenSet[int]]:
    """Scalar ``allocate``: filter, assign, per-user EWMA update."""
    eligible = [u for u in users if u.efficiency > 0 and u.backlog_bits > 0]
    grants: Grants = {}
    if eligible and prbs:
        grants = POLICIES[type(sched)](sched, eligible, sorted(prbs))
    result = {uid: frozenset(g) for uid, g in grants.items() if g}
    alpha = 1.0 / sched.PF_WINDOW_TTIS
    for user in users:
        served = len(result.get(user.user_id, ()))
        inst = served * bits_per_prb(user.efficiency) * 1e3  # bits/s
        prev = sched._rates.get(user.user_id, 0.0)
        sched._rates[user.user_id] = (1 - alpha) * prev + alpha * inst
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
        if entry is None:
            cell._m_no_cqi.inc()
            continue
        factor = 1.0
        if cell.harq_enabled:
            factor = harq_goodput_factor(sinr, entry.min_sinr_db,
                                         max_retx=cell.harq_max_retx)
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
        sinr = sinr_of(ctx.radio)
        sinrs[ctx.ue_id] = sinr
        if observe_sinr:
            cell._m_sinr.observe(sinr)
        users.append(SchedulableUser(user_id=ctx.ue_id, sinr_db=sinr,
                                     backlog_bits=ctx.backlog_bits,
                                     gbr_bps=ctx.gbr_bps,
                                     priority=ctx.priority))
    return _deliver(cell, allocate(scheduler, users, cell.allowed_prbs), sinrs)


def schedule_tti(cell) -> Dict[str, float]:
    """Scalar ``Cell.schedule_tti``."""
    return _walk(cell, cell.scheduler, cell.sinr_to, observe_sinr=True)


def schedule_uplink_tti(cell) -> Dict[str, float]:
    """Scalar ``Cell.schedule_uplink_tti`` (no per-UE SINR telemetry)."""
    return _walk(cell, cell.uplink_scheduler, cell.uplink_sinr_from,
                 observe_sinr=False)
