"""The blockchain registry: grants on a public proof-of-work chain.

"Systems have also been proposed using public blockchains to remove all
centralization from the licensing process" (§4.3, ref [27] — Kotobi &
Bilén).

Grant requests enter a mempool; a block is mined every
``block_interval_s`` on average (exponential inter-block times, like
PoW); a grant is usable after ``confirmations`` blocks. Every AP holds a
chain replica, so *reads* (neighbor discovery) are local and instant,
and there is no node whose failure stops the registry — the exact
inverse of the SAS trade-off, which is what E10 shows.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.simcore.simulator import Simulator
from repro.spectrum.grants import ApRecord, SpectrumGrant, in_contention
from repro.spectrum.registry import (
    DiscoverCallback,
    GrantCallback,
    SpectrumRegistry,
)


@dataclass(frozen=True)
class Block:
    """One mined block of grant transactions."""

    height: int
    prev_hash: str
    mined_at: float
    grants: Tuple[SpectrumGrant, ...]

    @property
    def block_hash(self) -> str:
        """Hash over height, parent, and grant ids (content-addressed)."""
        body = f"{self.height}:{self.prev_hash}:" + ",".join(
            g.grant_id for g in self.grants)
        return hashlib.sha256(body.encode()).hexdigest()


class BlockchainRegistry(SpectrumRegistry):
    """A PoW-paced grant ledger with local replicas.

    Args:
        block_interval_s: mean inter-block time (exponential draws).
        confirmations: blocks on top before a grant is considered final.
        propagation_s: block gossip delay to replicas.
    """

    def __init__(self, sim: Simulator, block_interval_s: float = 10.0,
                 confirmations: int = 2, propagation_s: float = 0.5) -> None:
        super().__init__(sim)
        if block_interval_s <= 0:
            raise ValueError("block interval must be positive")
        if confirmations < 1:
            raise ValueError("need at least one confirmation")
        self.block_interval_s = block_interval_s
        self.confirmations = confirmations
        self.propagation_s = propagation_s
        self.chain: List[Block] = []
        self._mempool: List[Tuple[ApRecord, GrantCallback]] = []
        self._confirmed: Dict[str, SpectrumGrant] = {}
        self._pending_confirm: List[Tuple[int, SpectrumGrant, GrantCallback]] = []
        self._grant_ids = itertools.count(1)
        self._mining = False

    def _rng(self):
        return self.sim.rng("blockchain-registry")

    # -- availability: there is no off switch ----------------------------------------

    def is_available(self) -> bool:
        return True

    # -- chain machinery -----------------------------------------------------------------

    @property
    def height(self) -> int:
        """Current chain height (number of blocks)."""
        return len(self.chain)

    def _ensure_mining(self) -> None:
        if self._mining:
            return
        self._mining = True
        delay = float(self._rng().exponential(self.block_interval_s))
        self.sim.schedule(delay, self._mine_block)

    def _mine_block(self) -> None:
        self._mining = False
        pool, self._mempool = self._mempool, []
        grants = []
        for record, callback in pool:
            grant = SpectrumGrant(grant_id=f"chain-{next(self._grant_ids)}",
                                  record=record, granted_at=self.sim.now)
            grants.append(grant)
            target_height = self.height + self.confirmations
            self._pending_confirm.append((target_height, grant, callback))
        prev_hash = self.chain[-1].block_hash if self.chain else "genesis"
        block = Block(height=self.height, prev_hash=prev_hash,
                      mined_at=self.sim.now, grants=tuple(grants))
        self.chain.append(block)
        # check confirmations newly satisfied
        still_waiting = []
        for target, grant, callback in self._pending_confirm:
            if self.height >= target + 1:
                self.sim.schedule(self.propagation_s, self._finalize,
                                  grant, callback)
            else:
                still_waiting.append((target, grant, callback))
        self._pending_confirm = still_waiting
        if self._mempool or self._pending_confirm:
            self._ensure_mining()

    def _finalize(self, grant: SpectrumGrant, callback: GrantCallback) -> None:
        self._confirmed[grant.record.ap_id] = grant
        self.grants_issued += 1
        self._m_grants.inc()
        callback(grant)

    # -- operations -------------------------------------------------------------------------

    def request_grant(self, record: ApRecord, callback: GrantCallback) -> None:
        self._mempool.append((record, callback))
        self._ensure_mining()

    def discover_neighbors(self, ap_id: str,
                           callback: DiscoverCallback) -> None:
        # local replica: answer at the next tick, no network latency
        self.queries_served += 1
        self._m_queries.inc()
        me = self._confirmed.get(ap_id)
        if me is None:
            self.sim.call_soon(callback, [])
            return
        neighbors = [g.record for other, g in self._confirmed.items()
                     if other != ap_id and in_contention(g.record, me.record)]
        self.sim.call_soon(callback, neighbors)

    @property
    def active_grants(self) -> int:
        """Confirmed grants visible on replicas."""
        return len(self._confirmed)
