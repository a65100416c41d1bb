"""Handover triggering: the A3 measurement rule, architecture-agnostic.

LTE UEs report "event A3" when a neighbour cell's reference signal beats
the serving cell's by a hysteresis margin, sustained for a time-to-
trigger. What happens *next* differs per architecture (path switch vs
re-attach); the trigger itself is identical for both. No experiment
uses this class yet: E6 hands over on a timer, one handover per dwell
time, so its comparison isolates the architectural difference without
a radio-driven trigger.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.enodeb.cell import Cell
from repro.phy.linkbudget import Radio

HandoverCallback = Callable[[str, str], None]  # (from_cell, to_cell)


class A3HandoverTrigger:
    """Tracks RSRP across cells and fires when A3 holds for TTT.

    Call :meth:`measure` on every position update; it returns (and also
    delivers via callback) the target cell name when a handover should
    happen, else None.
    """

    def __init__(self, cells: Sequence[Cell], serving_cell: str,
                 hysteresis_db: float = 3.0, time_to_trigger_s: float = 0.5,
                 on_handover: Optional[HandoverCallback] = None) -> None:
        if hysteresis_db < 0 or time_to_trigger_s < 0:
            raise ValueError("hysteresis and TTT must be non-negative")
        self.cells: Dict[str, Cell] = {c.name: c for c in cells}
        if serving_cell not in self.cells:
            raise KeyError(f"serving cell {serving_cell!r} not in cell set")
        self.serving = serving_cell
        self.hysteresis_db = hysteresis_db
        self.time_to_trigger_s = time_to_trigger_s
        self.on_handover = on_handover
        self._candidate: Optional[str] = None
        self._candidate_since: Optional[float] = None
        self.handovers = 0

    def rsrp_map(self, ue_radio: Radio) -> Dict[str, float]:
        """Current RSRP from every cell at the UE."""
        return {name: cell.rsrp_to(ue_radio)
                for name, cell in self.cells.items()}

    def measure(self, now_s: float, ue_radio: Radio) -> Optional[str]:
        """One measurement round; returns the HO target when triggered."""
        rsrp = self.rsrp_map(ue_radio)
        serving_rsrp = rsrp[self.serving]
        best_name = max((n for n in rsrp if n != self.serving),
                        key=lambda n: rsrp[n], default=None)
        if (best_name is None
                or rsrp[best_name] <= serving_rsrp + self.hysteresis_db):
            self._candidate = None
            self._candidate_since = None
            return None
        if self._candidate != best_name:
            self._candidate = best_name
            self._candidate_since = now_s
            if self.time_to_trigger_s > 0:
                return None
        elif now_s - self._candidate_since < self.time_to_trigger_s:
            return None
        # triggered
        source = self.serving
        self.serving = best_name
        self._candidate = None
        self._candidate_since = None
        self.handovers += 1
        if self.on_handover is not None:
            self.on_handover(source, best_name)
        return best_name
