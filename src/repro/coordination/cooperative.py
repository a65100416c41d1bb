"""Cooperative mode: fused scheduling across consenting APs.

§4.3: "In cooperative mode, the APs programatically optimize for maximum
joint RF performance … Cooperation allows for client handoff across the
APs, QoS aware joint flow scheduling between APs, and the assignment of
the best AP to serve each client device. These improvements are
impossible to achieve under legacy WiFi's independent AP model."

A :class:`CooperativeCluster` spans the cells of the APs that opted in.
Each optimization pass:

1. **Best-AP assignment** — every UE is (re)assigned to the member cell
   with the strongest signal toward it, moving radio contexts across
   cells without any MME (this is the coordinated-handoff primitive).
2. **Demand-weighted resource fusion** — the shared grid is split among
   members in proportion to their post-assignment load, so an idle AP's
   spectrum serves its busy neighbour's clients.
3. **QoS-aware scheduling** — members run the QoS-aware scheduler so
   GBR bearers survive the fusion.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from repro.coordination.fair_sharing import compute_weighted_partition
from repro.enodeb.cell import Cell, UeRadioContext
from repro.mac.schedulers import QosAwareScheduler


class CooperativeCluster:
    """A set of cells jointly optimized.

    Cells must share one band/grid size (the cluster splits one spectrum
    pool). Membership is by consent: :meth:`join`.
    """

    def __init__(self, name: str = "coop") -> None:
        self.name = name
        self.cells: Dict[str, Cell] = {}
        self.reassignments = 0
        self.optimization_passes = 0

    def join(self, cell: Cell) -> None:
        """Add a consenting AP's cell to the cluster; it schedules with a
        :class:`QosAwareScheduler` from now on."""
        if self.cells and cell.grid.n_prbs != self._any_cell().grid.n_prbs:
            raise ValueError(
                f"cell {cell.name} grid ({cell.grid.n_prbs} PRBs) does not "
                f"match the cluster's ({self._any_cell().grid.n_prbs})")
        self.cells[cell.name] = cell
        cell.scheduler = QosAwareScheduler()

    def _any_cell(self) -> Cell:
        return next(iter(self.cells.values()))

    # -- the optimization pass ------------------------------------------------------

    def optimize(self) -> Dict[str, FrozenSet[int]]:
        """Run assignment + fusion; returns the installed PRB partition."""
        if not self.cells:
            raise RuntimeError("cluster has no members")
        self.optimization_passes += 1
        self._assign_best_ap()
        partition = self._fuse_resources()
        return partition

    def _assign_best_ap(self) -> None:
        """Move every UE context to the member cell that serves it best."""
        contexts: List[UeRadioContext] = []
        owner: Dict[str, str] = {}
        for cell in self.cells.values():
            for ue_id in list(cell.attached_ues):
                ctx = cell._ues[ue_id]
                contexts.append(ctx)
                owner[ue_id] = cell.name
                cell.remove_ue(ue_id)
        for ctx in contexts:
            best = max(self.cells.values(),
                       key=lambda c: (c.rsrp_to(ctx.radio), c.name))
            best.add_ue(ctx)
            if best.name != owner[ctx.ue_id]:
                self.reassignments += 1

    def _fuse_resources(self) -> Dict[str, FrozenSet[int]]:
        """Split the grid by per-cell demand (UE count, min weight 0.1)."""
        weights = {name: max(len(cell.attached_ues), 0) + 0.1
                   for name, cell in self.cells.items()}
        n_prbs = self._any_cell().grid.n_prbs
        partition = compute_weighted_partition(n_prbs, weights)
        for name, cell in self.cells.items():
            cell.allowed_prbs = partition[name]
        return partition
