"""Uplink scheduling: SC-FDMA's contiguity constraint.

§3.2 credits "LTE's SC-FDMA uplink modulation" for range — the price of
its single-carrier property is a scheduling constraint: each UE's uplink
grant must be a *contiguous* block of PRBs (3GPP Rel-8 PUSCH). The
uplink scheduler therefore packs users into contiguous runs instead of
sprinkling PRBs freely like the downlink's OFDMA.

:class:`ContiguousUplinkScheduler` implements demand-proportional
contiguous allocation; :func:`contiguity_loss` quantifies what the
constraint costs versus an unconstrained (OFDMA-style) allocation — a
fragmentation-shaped penalty that only appears when the allowed PRB set
is itself fragmented (e.g. under ICIC slicing), which is why fair
sharing's *contiguous* slices (see ``compute_weighted_partition``)
compose so well with SC-FDMA uplinks.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.mac.schedulers import LteScheduler, SchedulableUser, UserColumns


def contiguous_runs(prbs: FrozenSet[int]) -> List[Tuple[int, int]]:
    """Maximal runs of consecutive indices as (start, length), sorted."""
    runs: List[Tuple[int, int]] = []
    for prb in sorted(prbs):
        if runs and prb == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((prb, 1))
    return runs


class ContiguousUplinkScheduler(LteScheduler):
    """PUSCH allocation: one contiguous PRB block per UE per TTI.

    Demand shares are proportional-fair-flavoured (inverse average
    rate), then users are laid out greedily into the allowed set's
    contiguous runs, largest-share-first into largest-run-first. A user
    never spans two runs; leftovers inside a run go to the next user
    that fits.
    """

    def _assign(self, cols: UserColumns,
                prbs: List[int]) -> Dict[str, List[int]]:
        # the weight sum is a sequential Python ``sum`` in eligible order
        # and targets use Python ``round``: both fix the float/rounding
        # behavior the test oracle expects
        ids = cols.ids
        elig = cols.elig
        runs = contiguous_runs(frozenset(prbs))
        total = len(prbs)
        floor = 1e3
        idx = np.array(elig)
        # demand weight ~ PF metric: efficiency / average rate
        weights = (cols.b[idx] * 1e3
                   / np.maximum(cols.avg[idx], floor)).tolist()
        weight_sum = sum(weights) or 1.0
        targets = [max(1, round(total * w / weight_sum)) for w in weights]
        order = sorted(range(len(elig)),
                       key=lambda i: (-targets[i], ids[elig[i]]))
        runs = sorted(runs, key=lambda r: -r[1])
        grants: Dict[str, List[int]] = {ids[s]: [] for s in elig}
        for i in order:
            want = targets[i]
            # place into the first run with room; shrink to fit if needed
            for j, (start, length) in enumerate(runs):
                if length <= 0:
                    continue
                take = min(want, length)
                grants[ids[elig[i]]] = list(range(start, start + take))
                runs[j] = (start + take, length - take)
                break
        return grants


def contiguity_loss(users: Sequence[SchedulableUser],
                    allowed: FrozenSet[int]) -> float:
    """Fraction of PRBs an OFDMA allocator would use that SC-FDMA cannot.

    Both allocators want to serve every user; OFDMA uses every allowed
    PRB, while the contiguous packer may strand fragments smaller than
    any remaining user's block. 0.0 = no penalty.
    """
    if not allowed:
        return 0.0
    eligible = [u for u in users if u.efficiency > 0 and u.backlog_bits > 0]
    if not eligible:
        return 0.0
    scheduler = ContiguousUplinkScheduler()
    grants = scheduler.allocate(eligible, allowed)
    used = sum(len(g) for g in grants.values())
    return 1.0 - used / len(allowed)
