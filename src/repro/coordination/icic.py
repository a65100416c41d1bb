"""Inter-cell interference coordination: static frequency reuse.

The classical alternative to per-epoch negotiation: color the cells and
give each color a fixed fraction of the grid. Reuse-1 (everyone uses
everything, maximum interference) and reuse-3 (disjoint thirds, zero
co-channel interference, one third the spectrum) bracket what dLTE's
dynamic fair sharing achieves adaptively; E5's ablation uses them as
reference points.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Sequence

from repro.coordination.fair_sharing import compute_weighted_partition


def reuse_partition(cell_names: Sequence[str], n_prbs: int,
                    reuse_factor: int) -> Dict[str, FrozenSet[int]]:
    """Assign each cell a 1/``reuse_factor`` slice by round-robin coloring.

    ``reuse_factor=1`` gives every cell the full grid (cells sharing a
    color share PRBs — i.e. interfere). Cells are colored in sorted-name
    order, so the mapping is deterministic.
    """
    if reuse_factor < 1:
        raise ValueError("reuse factor must be >= 1")
    if n_prbs < 0:
        raise ValueError("n_prbs must be non-negative")
    if not cell_names:
        raise ValueError("need at least one cell")
    if len(set(cell_names)) != len(cell_names):
        raise ValueError("duplicate cell names")
    if reuse_factor == 1:
        full = frozenset(range(n_prbs))
        return {name: full for name in cell_names}
    colors = compute_weighted_partition(
        n_prbs, {f"color{i}": 1.0 for i in range(reuse_factor)})
    ordered = sorted(cell_names)
    return {name: colors[f"color{i % reuse_factor}"]
            for i, name in enumerate(ordered)}
