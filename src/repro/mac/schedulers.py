"""LTE downlink/uplink PRB schedulers.

Each scheduler answers one question per TTI: which user gets each PRB of
the set this cell is allowed to use. The allowed set comes from the
coordination layer (full grid when standalone, a slice under fair
sharing, a jointly-optimized slice in cooperative mode), which is exactly
the paper's §4.3 division of labor: coordination decides the slices,
the local scheduler fills them.

Implemented policies:

* :class:`RoundRobinScheduler` — cyclic, rate-oblivious.
* :class:`MaxCiScheduler` — always the best-channel user (max capacity,
  min fairness).
* :class:`ProportionalFairScheduler` — the industry default: maximize
  instantaneous-rate / EWMA-average-rate.
* :class:`QosAwareScheduler` — PF with a strict-priority guarantee layer
  for bearers carrying a guaranteed bit rate (used by cooperative mode's
  "QoS aware joint flow scheduling").
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Sequence

import numpy as np

from repro.phy.mcs import lte_efficiency_for_sinr
from repro.phy.resource_grid import bits_per_prb


@dataclass
class SchedulableUser:
    """Per-TTI view of one attached user.

    Attributes:
        user_id: stable identity across TTIs (EWMA state keys off it).
        sinr_db: current wideband SINR toward this user.
        backlog_bits: queued demand; users with zero backlog are skipped.
        gbr_bps: guaranteed bit rate, 0 for best-effort.
        priority: lower value = more important, used by QoS scheduler.
    """

    user_id: str
    sinr_db: float
    backlog_bits: float = float("inf")
    gbr_bps: float = 0.0
    priority: int = 9

    @property
    def efficiency(self) -> float:
        """Spectral efficiency at the current SINR (0 when unreachable)."""
        return lte_efficiency_for_sinr(self.sinr_db)


def descending_id_order(ids: List[str]) -> np.ndarray:
    """Slots sorted by descending user id (PF's tie-break order), as an
    index array."""
    return np.array(sorted(range(len(ids)), key=ids.__getitem__,
                           reverse=True), dtype=np.intp)


class UserColumns(NamedTuple):
    """Flat per-slot columns one allocation runs over.

    Slot ``s`` is one user; every column is indexed by slot. A cell's
    :class:`repro.mac.arena.UeArena` holds each of these once and hands
    its own columns over (``eff`` read out as a list, the two ``elig``
    columns computed per TTI); :meth:`LteScheduler.allocate` packs them
    from its ``SchedulableUser`` list.

    Attributes:
        ids: user ids in slot order (grant maps are keyed in this order).
        slot_of: inverse of ``ids``.
        eff: spectral efficiency per slot (list of Python floats).
        b: bits one PRB carries in one TTI per slot (float array).
        avg: EWMA average rate per slot in bits/s (float array, updated
            in place by the allocation).
        gbr: guaranteed bit rate per slot, 0 for best effort (float
            array).
        priority: lower value = more important.
        elig: slots with efficiency > 0 and backlog > 0, ascending.
        elig_desc: the same slots in :func:`descending_id_order` (int
            array).
    """

    ids: List[str]
    slot_of: Dict[str, int]
    eff: List[float]
    b: np.ndarray
    avg: np.ndarray
    gbr: np.ndarray
    priority: List[int]
    elig: List[int]
    elig_desc: np.ndarray


class RateStore:
    """One scheduler's EWMA average rates for one cell, slot-aligned
    with that cell's arena (which resizes ``avg`` on attach/detach)."""

    __slots__ = ("slot_of", "avg")

    def __init__(self, slot_of: Dict[str, int], avg: np.ndarray) -> None:
        self.slot_of = slot_of
        self.avg = avg


class LteScheduler(ABC):
    """Base class: allocate a PRB set among users, track average rates.

    A policy is one :meth:`_assign` over :class:`UserColumns`. It is
    reached through two front doors: :meth:`allocate_columns`, which a
    ``Cell`` calls every TTI with its arena's columns, and
    :meth:`allocate`, which packs the same columns from a list of
    ``SchedulableUser``. Average rates live in one :class:`RateStore`
    per cell this scheduler serves (history lasts as long as the UE is
    attached and this is the cell's scheduler) and, for ``allocate``
    callers, in a dict keyed by user id.
    """

    #: EWMA horizon for PF average-rate tracking, in TTIs.
    PF_WINDOW_TTIS = 100.0

    def __init__(self) -> None:
        self._rates: Dict[str, float] = {}
        self._stores: List[RateStore] = []

    def allocate(self, users: Sequence[SchedulableUser],
                 prbs: FrozenSet[int]) -> Dict[str, FrozenSet[int]]:
        """Assign each PRB in ``prbs`` to at most one user.

        Users with zero efficiency (below CQI 1) or zero backlog receive
        nothing. Returns {user_id: prb set}; unassigned PRBs are simply
        absent. Also updates the PF rate averages.
        """
        ids = [u.user_id for u in users]
        eff = [u.efficiency for u in users]
        rates = self._rates
        mask = np.array([e > 0 and u.backlog_bits > 0
                         for e, u in zip(eff, users)], dtype=bool)
        desc = descending_id_order(ids)
        cols = UserColumns(
            ids=ids, slot_of={uid: s for s, uid in enumerate(ids)}, eff=eff,
            b=np.array([bits_per_prb(e) for e in eff], dtype=float),
            avg=np.array([rates.get(uid, 0.0) for uid in ids], dtype=float),
            gbr=np.array([u.gbr_bps for u in users], dtype=float),
            priority=[u.priority for u in users],
            elig=mask.nonzero()[0].tolist(), elig_desc=desc[mask[desc]])
        result = self.allocate_columns(cols, prbs)
        rates.update(zip(ids, cols.avg.tolist()))
        return result

    def allocate_columns(self, cols: UserColumns,
                         prbs: FrozenSet[int]) -> Dict[str, FrozenSet[int]]:
        """:meth:`allocate` over ready-made columns; updates ``cols.avg``."""
        grants: Dict[str, List[int]] = {}
        if cols.elig and prbs:
            grants = self._assign(cols, sorted(prbs))
        slot_of = cols.slot_of
        result = {uid: frozenset(grants[uid])
                  for uid in sorted(grants, key=slot_of.__getitem__)
                  if grants[uid]}
        if cols.ids:
            alpha = 1.0 / self.PF_WINDOW_TTIS
            served = np.zeros(len(cols.ids))
            for uid, g in result.items():
                served[slot_of[uid]] = len(g)
            avg = cols.avg
            avg *= 1 - alpha
            avg += alpha * (served * cols.b * 1e3)  # bits/s
        return result

    @abstractmethod
    def _assign(self, cols: UserColumns,
                prbs: List[int]) -> Dict[str, List[int]]:
        """Policy-specific assignment of sorted ``prbs`` over a non-empty
        ``cols.elig``; returns {user_id: prbs} for the users it served,
        in any order (users mapped to no PRBs are dropped)."""

    # -- rate accounting ----------------------------------------------------

    def average_rate_bps(self, user_id: str) -> float:
        """EWMA throughput of ``user_id`` (0 for never-seen users)."""
        for store in self._stores:
            slot = store.slot_of.get(user_id)
            if slot is not None:
                return float(store.avg[slot])
        return self._rates.get(user_id, 0.0)

    def forget(self, user_id: str) -> None:
        """Drop EWMA state for a departed user."""
        self._rates.pop(user_id, None)


class RoundRobinScheduler(LteScheduler):
    """Cycle PRBs across users regardless of channel quality."""

    def __init__(self) -> None:
        super().__init__()
        self._next = 0

    def _assign(self, cols: UserColumns,
                prbs: List[int]) -> Dict[str, List[int]]:
        ids = cols.ids
        elig = cols.elig
        grants: Dict[str, List[int]] = {}
        n = len(elig)
        nxt = self._next
        for i, prb in enumerate(prbs):
            grants.setdefault(ids[elig[(nxt + i) % n]], []).append(prb)
        self._next = (nxt + len(prbs)) % n
        return grants


class MaxCiScheduler(LteScheduler):
    """Give every PRB to the user with the best channel."""

    def _assign(self, cols: UserColumns,
                prbs: List[int]) -> Dict[str, List[int]]:
        ids = cols.ids
        eff = cols.eff
        best = max(cols.elig, key=lambda s: (eff[s], ids[s]))
        return {ids[best]: list(prbs)}


class ProportionalFairScheduler(LteScheduler):
    """Maximize sum log-rate: pick argmax of instantaneous/average rate.

    PRBs are granted greedily one at a time; the in-TTI grant count feeds
    back into the metric so one TTI already spreads PRBs when averages tie.

    Granting a PRB only lowers the winner's own metric (``inst / (avg +
    n*inst)`` is decreasing in ``n``) and touches nobody else's, so the
    argmax scan over all users per PRB is replaced by a heap: pop the
    winner, grant, re-push with its updated metric — O(log U) per PRB
    instead of O(U) closure calls, with identical float arithmetic. Heap
    entries are ``(-metric, rank)`` where rank ascends in *descending*
    ``user_id`` order, replicating ``max(..., key=(metric, user_id))``
    tie-breaking exactly (this is the F1/E7 radio-phase hot path).
    """

    def _assign(self, cols: UserColumns,
                prbs: List[int]) -> Dict[str, List[int]]:
        # heap ranks in descending-uid order; the seed metrics are one
        # array division (IEEE division: the scalar expression's bits) and
        # everything the loop touches is a Python float (via tolist)
        desc = cols.elig_desc
        floor = 1e3  # avoids div-by-zero for new users, biases toward them
        inst_arr = cols.b[desc] * 1e3
        avg_arr = np.maximum(cols.avg[desc], floor)
        insts = inst_arr.tolist()
        avgs = avg_arr.tolist()
        entries = list(zip((-(inst_arr / avg_arr)).tolist(),
                           range(len(insts))))
        heapq.heapify(entries)
        pop = heapq.heappop
        push = heapq.heappush
        by_rank: Dict[int, List[int]] = {}
        for prb in prbs:
            _neg, rank = pop(entries)
            granted = by_rank.get(rank)
            if granted is None:
                granted = by_rank[rank] = []
            granted.append(prb)
            inst = insts[rank]
            push(entries, (-(inst / (avgs[rank] + len(granted) * inst)), rank))
        ids = cols.ids
        return {ids[desc[rank]]: granted for rank, granted in by_rank.items()}


class QosAwareScheduler(ProportionalFairScheduler):
    """GBR-first scheduling: guarantee bit rates, then PF the remainder.

    Bearers with ``gbr_bps > 0`` are served in priority order until their
    guarantee is met for this TTI (gbr x TTI bits); remaining PRBs go to
    the PF policy over everyone. This is the scheduler cooperative mode
    installs for "QoS aware joint flow scheduling between APs" (§4.3).
    """

    def _assign(self, cols: UserColumns,
                prbs: List[int]) -> Dict[str, List[int]]:
        ids = cols.ids
        grants: Dict[str, List[int]] = {}
        remaining = list(prbs)
        gbr = cols.gbr
        prio = cols.priority
        elig = cols.elig_desc
        gbr_slots = sorted(elig[gbr[elig] > 0].tolist(),
                           key=lambda s: (prio[s], ids[s]))
        for s in gbr_slots:
            needed_bits = float(gbr[s]) * 1e-3  # per TTI
            per_prb = float(cols.b[s])
            granted = grants[ids[s]] = []
            while remaining and needed_bits > 0:
                granted.append(remaining.pop(0))
                needed_bits -= per_prb
        if remaining:
            pf = super()._assign(cols, remaining)
            for uid, extra in pf.items():
                grants.setdefault(uid, []).extend(extra)
        return grants
