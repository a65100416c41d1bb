"""LTE downlink/uplink PRB schedulers.

Each scheduler answers one question per TTI: how many PRBs of the set
this cell is allowed to use each user gets. The allowed set comes from
the coordination layer (full grid when standalone, a slice under fair
sharing, a jointly-optimized slice in cooperative mode), which is exactly
the paper's §4.3 division of labor: coordination decides the slices,
the local scheduler fills them. A grant is a count, not a PRB set:
SINR is wideband, so which PRBs a user gets changes nothing it is
delivered (the PRB-level layout each policy implies is kept by the test
oracle under ``tests/reference/``).

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
from typing import AbstractSet, Dict, List, NamedTuple

import numpy as np


def descending_id_order(ids: List[str]) -> np.ndarray:
    """Slots sorted by descending user id (PF's tie-break order), as an
    index array."""
    return np.array(sorted(range(len(ids)), key=ids.__getitem__,
                           reverse=True), dtype=np.intp)


class UserColumns(NamedTuple):
    """Flat per-slot columns one allocation runs over.

    Slot ``s`` is one user; every column is indexed by slot. A cell's
    :class:`repro.mac.arena.UeArena` holds each of these once and hands
    its own columns over (``eff`` read out as a list and the two
    ``elig`` columns derived once per change of the bank or the
    demand); ``avg`` is the arena's rate column for the scheduler being
    run.

    Attributes:
        ids: user ids in slot order (grant maps are keyed in this order).
        eff: spectral efficiency per slot (list of Python floats).
        b: bits one PRB carries in one TTI per slot (float array).
        avg: EWMA average rate per slot in bits/s (float array, updated
            in place by the allocation).
        gbr: guaranteed bit rate per slot, 0 for best effort (float
            array).
        priority: lower value = more important.
        elig: slots with efficiency > 0 (every UE is full-buffer),
            ascending.
        elig_desc: the same slots in :func:`descending_id_order` (int
            array).
    """

    ids: List[str]
    eff: List[float]
    b: np.ndarray
    avg: np.ndarray
    gbr: np.ndarray
    priority: List[int]
    elig: List[int]
    elig_desc: np.ndarray


class LteScheduler(ABC):
    """Base class: an allocation policy over :class:`UserColumns`.

    A policy is one :meth:`_assign`, reached through one front door,
    :meth:`allocate_columns`, which a ``Cell`` calls every TTI with its
    arena's columns. A scheduler stores no rates: the EWMA averages are
    the ``avg`` column it is handed, which the cell's arena owns (one
    column per scheduler it runs; history lasts as long as the UE is
    attached and this is the cell's scheduler). The only scheduler state
    is :class:`RoundRobinScheduler`'s cursor.
    """

    #: EWMA horizon for PF average-rate tracking, in TTIs.
    PF_WINDOW_TTIS = 100.0

    def allocate_columns(self, cols: UserColumns,
                         prbs: AbstractSet[int]) -> Dict[str, int]:
        """Grant the PRBs of ``prbs`` as per-user counts.

        Users outside ``cols.elig`` (below CQI 1) receive nothing.
        Returns {user_id: PRB count} in slot order, for the users granted
        at least one; the counts sum to at most ``len(prbs)``. Updates
        ``cols.avg`` in place.
        """
        counts: Dict[int, int] = {}
        if cols.elig and prbs:
            counts = self._assign(cols, prbs)
        ids = cols.ids
        result = {ids[s]: counts[s] for s in sorted(counts) if counts[s]}
        alpha = 1.0 / self.PF_WINDOW_TTIS
        served = np.zeros(len(ids))
        served[list(counts)] = list(counts.values())
        avg = cols.avg
        avg *= 1 - alpha
        avg += alpha * (served * cols.b * 1e3)  # bits/s
        return result

    @abstractmethod
    def _assign(self, cols: UserColumns,
                prbs: AbstractSet[int]) -> Dict[int, int]:
        """Policy-specific split of ``prbs`` over a non-empty
        ``cols.elig``; returns {slot: PRB count} for the users it
        served, in any order (a count of 0 is dropped)."""


class RoundRobinScheduler(LteScheduler):
    """Cycle PRBs across users regardless of channel quality."""

    def __init__(self) -> None:
        self._next = 0

    def _assign(self, cols: UserColumns,
                prbs: AbstractSet[int]) -> Dict[int, int]:
        # PRB i goes to eligible user (cursor + i) mod n: every user
        # gets ``rounds`` and the ``extra`` users from the cursor on one
        # more
        elig = cols.elig
        n = len(elig)
        nxt = self._next
        rounds, extra = divmod(len(prbs), n)
        counts = dict.fromkeys(elig, rounds) if rounds else {}
        for i in range(nxt, nxt + extra):
            counts[elig[i % n]] = rounds + 1
        self._next = (nxt + len(prbs)) % n
        return counts


class MaxCiScheduler(LteScheduler):
    """Give every PRB to the user with the best channel."""

    def _assign(self, cols: UserColumns,
                prbs: AbstractSet[int]) -> Dict[int, int]:
        ids = cols.ids
        eff = cols.eff
        best = max(cols.elig, key=lambda s: (eff[s], ids[s]))
        return {best: len(prbs)}


class ProportionalFairScheduler(LteScheduler):
    """Maximize sum log-rate: pick argmax of instantaneous/average rate.

    PRBs are granted greedily one at a time; the in-TTI grant count feeds
    back into the metric so one TTI already spreads PRBs when averages tie.

    Granting a PRB only lowers the winner's own metric (``inst / (avg +
    n*inst)`` never rises with ``n``) and touches nobody else's, so the
    argmax scan over all users per PRB is a heap: read the winner at the
    top, count the grant, replace it with its updated metric. Heap
    entries are ``(-metric, rank)`` where rank ascends in *descending*
    ``user_id`` order, replicating ``max(..., key=(metric, user_id))``
    tie-breaking exactly.

    Because no user's metric rises as it wins, the greedy grants the
    ``n_prbs`` smallest entries of all users' ``(-metric, rank)``
    sequences. When users outnumber PRBs and no winner's second-grant
    entry sorts before the ``n_prbs``-th best first-grant entry, those
    are the first grants alone: each of the top ``n_prbs`` users gets
    one PRB, read off one stable sort of the first-grant keys with the
    loop's float arithmetic, and the heap never runs. That is every
    TTI of a dense cell (E5 at 64 UEs per AP); the heap runs when some
    user can win twice, or when PRBs outnumber users (E5 at its
    published defaults, F1, E19's fluid cells).
    """

    def _assign(self, cols: UserColumns,
                prbs: AbstractSet[int]) -> Dict[int, int]:
        return self._fair_counts(cols, len(prbs))

    @staticmethod
    def _fair_counts(cols: UserColumns, n_prbs: int) -> Dict[int, int]:
        """PF over ``n_prbs`` PRBs: {slot: count}."""
        # ranks are positions in descending-uid order; the first-grant
        # heap keys are one array division (IEEE division: the scalar
        # expression's bits)
        desc = cols.elig_desc
        floor = 1e3  # avoids div-by-zero for new users, biases toward them
        inst_arr = cols.b[desc] * 1e3
        avg_arr = np.maximum(cols.avg[desc], floor)
        keys = -(inst_arr / avg_arr)
        if len(desc) > n_prbs:
            # the n_prbs best first grants in (key, rank) order; if every
            # winner's second grant sorts after the last of them, each
            # winner gets exactly one PRB
            top = keys.argsort(kind="stable")[:n_prbs]
            last = top[-1]
            bar = keys[last]
            inst_top = inst_arr[top]
            second = -(inst_top / (avg_arr[top] + inst_top))
            if ((second > bar) | ((second == bar) & (top >= last))).all():
                return dict.fromkeys(desc[top].tolist(), 1)
        # everything the loop touches is a Python float (via tolist)
        insts = inst_arr.tolist()
        avgs = avg_arr.tolist()
        entries = list(zip(keys.tolist(), range(len(insts))))
        heapq.heapify(entries)
        replace = heapq.heapreplace
        by_rank = [0] * len(insts)
        won: List[int] = []
        for _ in range(n_prbs):
            # the top is the winner (ranks are distinct, so the order of
            # winners does not depend on how the heap is laid out)
            rank = entries[0][1]
            n = by_rank[rank] = by_rank[rank] + 1
            if n == 1:
                won.append(rank)
            inst = insts[rank]
            replace(entries, (-(inst / (avgs[rank] + n * inst)), rank))
        slots = desc.tolist()
        return {slots[rank]: by_rank[rank] for rank in won}


class QosAwareScheduler(ProportionalFairScheduler):
    """GBR-first scheduling: guarantee bit rates, then PF the remainder.

    Bearers with ``gbr_bps > 0`` are served in priority order until their
    guarantee is met for this TTI (gbr x TTI bits); remaining PRBs go to
    the PF policy over everyone. This is the scheduler cooperative mode
    installs for "QoS aware joint flow scheduling between APs" (§4.3).
    """

    def _assign(self, cols: UserColumns,
                prbs: AbstractSet[int]) -> Dict[int, int]:
        ids = cols.ids
        counts: Dict[int, int] = {}
        remaining = len(prbs)
        gbr = cols.gbr
        prio = cols.priority
        elig = cols.elig_desc
        gbr_slots = sorted(elig[gbr[elig] > 0].tolist(),
                           key=lambda s: (prio[s], ids[s]))
        for s in gbr_slots:
            # one PRB at a time, as the guarantee's sequential float
            # subtraction decides when it is met
            needed_bits = float(gbr[s]) * 1e-3  # per TTI
            per_prb = float(cols.b[s])
            n = 0
            while remaining and needed_bits > 0:
                n += 1
                remaining -= 1
                needed_bits -= per_prb
            counts[s] = n
        if remaining:
            for s, extra in self._fair_counts(cols, remaining).items():
                counts[s] = counts.get(s, 0) + extra
        return counts
