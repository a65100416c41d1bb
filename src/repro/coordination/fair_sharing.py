"""Fair-sharing mode: distributed convergence to a fair grid split.

§4.3: "If fair sharing, the APs programatically coordinate the bare
minimum of fair time-frequency sharing of the underlying RF resource
between the APs, more efficiently achieving an equilibrium with similar
fairness characteristics to what WiFi achieves today."

The protocol: every AP in a contention domain broadcasts a
:class:`PrbClaim` over X2. When an AP has current-epoch claims from its
whole peer set, it deterministically partitions the grid — equal
contiguous slices over the sorted participant ids (or demand-weighted
slices when weights differ) — and installs its own slice in its cell.
Determinism means no negotiation rounds: every participant computes the
same partition from the same claims, so the system converges in one
claim exchange (one X2 one-way latency), and any membership change just
bumps the epoch and repeats.

Unlike CSMA, the result has zero collision overhead: each AP transmits
on disjoint PRBs — the E5 comparison in one sentence.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, FrozenSet, Optional

from repro.coordination.x2 import PrbClaim, X2Endpoint, X2Message
from repro.phy.resource_grid import ResourceGrid


class FairSharingCoordinator:
    """Runs the claim protocol for one AP over its X2 endpoint.

    Args:
        x2: the AP's X2 stack (peers must be connected already).
        grid: the cell's resource grid (slices get installed here).
        demand_weight: this AP's claim weight; 1.0 = plain fair share.
        on_converged: callback(prb_set) fired whenever a new partition
            is installed.
    """

    def __init__(self, x2: X2Endpoint, grid: ResourceGrid,
                 demand_weight: float = 1.0,
                 on_converged: Optional[Callable[[FrozenSet[int]], None]] = None
                 ) -> None:
        if demand_weight <= 0:
            raise ValueError("demand weight must be positive")
        self.x2 = x2
        self.grid = grid
        self.demand_weight = demand_weight
        self.on_converged = on_converged
        self.epoch = 0
        self._claims: Dict[str, PrbClaim] = {}
        self.my_prbs: FrozenSet[int] = grid.all_prbs
        self.partitions_installed = 0
        x2.add_handler(self._on_x2)

    # -- protocol ------------------------------------------------------------------

    def announce(self) -> None:
        """(Re)broadcast this AP's claim; starts or restarts convergence."""
        self.epoch += 1
        self._claims = {self.x2.ap_id: self._my_claim()}
        self.x2.broadcast(self._my_claim())
        self._maybe_partition()

    def _my_claim(self) -> PrbClaim:
        return PrbClaim(sender_ap=self.x2.ap_id, n_prbs=self.grid.n_prbs,
                        demand_weight=self.demand_weight, epoch=self.epoch)

    def _on_x2(self, from_ap: str, message: X2Message) -> None:
        if not isinstance(message, PrbClaim):
            return
        known = self._claims.get(from_ap)
        if known is not None and message.epoch < known.epoch:
            return  # stale claim from an old epoch
        is_new_member = known is None
        self._claims[from_ap] = message
        if message.epoch > self.epoch:
            # a peer with a newer epoch means membership changed under us:
            # adopt the epoch and refresh our own claim
            self.epoch = message.epoch
            self._claims[self.x2.ap_id] = self._my_claim()
            self.x2.broadcast(self._my_claim())
        elif is_new_member:
            # a first-time claimant has not heard our claim yet (it joined
            # after our last announce): re-send so it can converge too
            self.x2.broadcast(self._my_claim())
        self._maybe_partition()

    def _maybe_partition(self) -> None:
        expected = self.x2.peer_ids | {self.x2.ap_id}
        # require a claim from *every* expected member — a lingering
        # claim from a crashed ex-peer must not make the set look whole
        if not expected <= set(self._claims):
            return
        partition = compute_weighted_partition(
            self.grid.n_prbs,
            {ap: self._claims[ap].demand_weight for ap in expected})
        self.my_prbs = partition[self.x2.ap_id]
        self.partitions_installed += 1
        self.x2.sim.trace("coordination",
                          f"{self.x2.ap_id}: fair share installed",
                          epoch=self.epoch, n_prbs=len(self.my_prbs),
                          members=len(expected))
        if self.on_converged is not None:
            self.on_converged(self.my_prbs)


def compute_weighted_partition(n_prbs: int,
                               weights: Dict[str, float]
                               ) -> Dict[str, FrozenSet[int]]:
    """Deterministic contiguous split of ``n_prbs`` by weight.

    Pure function of its inputs (sorted by AP id), so every participant
    computes the same answer — the keystone of one-round convergence.
    Largest-remainder rounding keeps the slice sizes within one PRB of
    the exact weighted share.
    """
    if n_prbs < 0:
        raise ValueError("n_prbs must be non-negative")
    if not weights:
        raise ValueError("need at least one participant")
    if any(w <= 0 for w in weights.values()):
        raise ValueError("weights must be positive")
    total_weight = sum(weights.values())
    order = sorted(weights)
    exact = {ap: n_prbs * weights[ap] / total_weight for ap in order}
    floors = {ap: int(math.floor(exact[ap])) for ap in order}
    leftover = n_prbs - sum(floors.values())
    # hand the leftovers to the largest fractional remainders (ties by id)
    by_remainder = sorted(order, key=lambda ap: (-(exact[ap] - floors[ap]), ap))
    for ap in by_remainder[:leftover]:
        floors[ap] += 1
    partition: Dict[str, FrozenSet[int]] = {}
    start = 0
    for ap in order:
        partition[ap] = frozenset(range(start, start + floors[ap]))
        start += floors[ap]
    return partition
