"""LTE time-frequency resource grid arithmetic.

LTE schedules in physical resource blocks (PRBs): 12 subcarriers x 15 kHz
= 180 kHz wide, one per 0.5 ms slot, allocated per 1 ms TTI (a PRB pair).
Throughput is PRBs x per-PRB bits at the scheduled MCS. The grid only
sizes a cell; coordination (§4.3) lives in ``Cell.allowed_prbs``, the
PRB set a cell's schedulers may grant from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

#: Standard LTE channel bandwidth -> PRB count (3GPP TS 36.101).
_BANDWIDTH_TO_PRBS = {
    1.4e6: 6,
    3e6: 15,
    5e6: 25,
    10e6: 50,
    15e6: 75,
    20e6: 100,
}

#: One PRB spans 12 x 15 kHz subcarriers.
PRB_BANDWIDTH_HZ = 180e3

#: Scheduling interval (one subframe).
TTI_S = 1e-3

#: Resource elements per PRB pair usable for data, after control/reference
#: overhead (12 subcarriers x 14 symbols minus ~29% overhead).
DATA_RES_PER_PRB_PAIR = 120


def prbs_for_bandwidth(bandwidth_hz: float) -> int:
    """PRB count for a standard LTE channel bandwidth.

    Non-standard bandwidths are rejected rather than rounded: a config
    asking for 7 MHz is a bug, not a preference.
    """
    try:
        return _BANDWIDTH_TO_PRBS[bandwidth_hz]
    except KeyError:
        raise ValueError(
            f"{bandwidth_hz/1e6:g} MHz is not a standard LTE bandwidth; "
            f"choices: {sorted(b/1e6 for b in _BANDWIDTH_TO_PRBS)} MHz"
        ) from None


@dataclass
class ResourceGrid:
    """The PRB pool of one cell: its bandwidth and PRB count.

    The grid holds no reservations. Coordination modes carve a cell's
    spectrum by writing ``Cell.allowed_prbs``: the
    :class:`~repro.coordination.fair_sharing.FairSharingCoordinator`
    installs its converged slice through the access point, and the
    :class:`~repro.coordination.cooperative.CooperativeCluster` installs
    its demand-weighted partition on every member cell.
    """

    bandwidth_hz: float

    def __post_init__(self) -> None:
        self.n_prbs = prbs_for_bandwidth(self.bandwidth_hz)

    @property
    def all_prbs(self) -> FrozenSet[int]:
        """The full PRB index set of the cell."""
        return frozenset(range(self.n_prbs))
