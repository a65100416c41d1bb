"""Uplink scheduling: SC-FDMA's contiguity constraint.

§3.2 credits "LTE's SC-FDMA uplink modulation" for range — the price of
its single-carrier property is a scheduling constraint: each UE's uplink
grant must be a *contiguous* block of PRBs (3GPP Rel-8 PUSCH). The
uplink scheduler therefore packs users into contiguous runs instead of
sprinkling PRBs freely like the downlink's OFDMA.

:class:`ContiguousUplinkScheduler` implements demand-proportional
contiguous allocation. The constraint strands PRBs only when the allowed
set is itself fragmented (e.g. under ICIC slicing), which is why fair
sharing's *contiguous* slices (see ``compute_weighted_partition``)
compose so well with SC-FDMA uplinks.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Tuple

import numpy as np

from repro.mac.schedulers import LteScheduler, UserColumns


def contiguous_runs(prbs: AbstractSet[int]) -> List[Tuple[int, int]]:
    """Maximal runs of consecutive indices as (start, length), sorted.

    A run starts at every index whose predecessor is absent; only the
    starts are sorted, never the set."""
    runs: List[Tuple[int, int]] = []
    for start in sorted(p for p in prbs if p - 1 not in prbs):
        end = start + 1
        while end in prbs:
            end += 1
        runs.append((start, end - start))
    return runs


class ContiguousUplinkScheduler(LteScheduler):
    """PUSCH allocation: one contiguous PRB block per UE per TTI.

    Demand shares are proportional-fair-flavoured (inverse average
    rate), then users are laid out greedily into the allowed set's
    contiguous runs, largest-share-first into largest-run-first. A user
    never spans two runs; leftovers inside a run go to the next user
    that fits. The grant is the block's size: where a run of a given
    length sits in the grid changes no user's count.
    """

    def _assign(self, cols: UserColumns,
                prbs: AbstractSet[int]) -> Dict[int, int]:
        total = len(prbs)
        floor = 1e3
        # demand weight ~ PF metric: efficiency / average rate
        weights = cols.b * 1e3 / np.maximum(cols.avg, floor)
        # the test oracle folds the weights with builtin ``sum`` in
        # eligible (slot) order, and ``sum`` of a list is already C-level
        weight_sum = sum(weights[cols.elig].tolist()) or 1.0
        # eligible slots in ascending id order; ``rint`` rounds half to
        # even exactly as ``round`` does, and a stable sort on -target
        # keeps ascending id among equal targets
        asc = cols.elig_desc[::-1]
        targets = np.maximum(1.0, np.rint(total * weights[asc] / weight_sum))
        # each served user takes at least one PRB: at most ``total`` are
        order = np.argsort(-targets, kind="stable")[:total]
        # run lengths, largest first
        rooms = sorted((length for _start, length in contiguous_runs(prbs)),
                       reverse=True)
        counts: Dict[int, int] = {}
        j = 0
        room = rooms[0]
        for s, want in zip(asc[order].tolist(),
                           targets[order].astype(np.intp).tolist()):
            # the first run with room; shrink the block to fit
            take = counts[s] = min(want, room)
            room -= take
            if not room:
                j += 1
                if j == len(rooms):
                    break
                room = rooms[j]
        return counts
