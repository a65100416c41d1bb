"""Shard plans: which cell sites (and their UEs) run in which shard.

Sits in ``deploy`` because sharding is a deployment-shaped decision:
the partition mirrors how a city operator would regionalize sites, and
the balance numbers here are what the per-shard telemetry attributes
barrier-wait imbalance to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.geo.partition import stripe_partition
from repro.geo.points import Point

__all__ = ["ShardPlan"]


@dataclass(frozen=True)
class ShardPlan:
    """An immutable cell-site → shard assignment.

    ``assignment[i]`` is the shard of cell site ``i``; UEs follow the
    cell they camp on, so the plan also partitions the user population.
    """

    n_shards: int
    assignment: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("need at least one shard")
        for shard in self.assignment:
            if not 0 <= shard < self.n_shards:
                raise ValueError(
                    f"assignment references shard {shard} outside "
                    f"0..{self.n_shards - 1}")

    @classmethod
    def stripes(cls, positions: Sequence[Point], n_shards: int) -> "ShardPlan":
        """Balanced contiguous stripes over site positions."""
        return cls(n_shards=n_shards,
                   assignment=tuple(stripe_partition(positions, n_shards)))

    @property
    def counts(self) -> List[int]:
        """Sites per shard (the static balance of the plan)."""
        counts = [0] * self.n_shards
        for shard in self.assignment:
            counts[shard] += 1
        return counts
