"""Medium access control: LTE schedulers, timing advance, WiFi CSMA/CA.

LTE's MAC is *scheduled*: the eNodeB assigns PRBs per TTI, so overlapping
cells only interfere if their PRB allocations collide — coordination can
eliminate contention entirely. WiFi's MAC is *contended*: DCF CSMA/CA
resolves access by carrier sensing and random backoff, which degrades
with load and fails under hidden terminals. Both are built here and
compared head-to-head in E5 and E8.
"""

from repro.mac.arena import UeArena
from repro.mac.csma import CsmaNode, CsmaSimulation, bianchi_throughput
from repro.mac.schedulers import (
    LteScheduler,
    MaxCiScheduler,
    ProportionalFairScheduler,
    QosAwareScheduler,
    RoundRobinScheduler,
    SchedulableUser,
)
from repro.mac.uplink import (
    ContiguousUplinkScheduler,
    contiguity_loss,
    contiguous_runs,
)
from repro.mac.timing import (
    LTE_MAX_CELL_RANGE_M,
    WIFI_DEFAULT_ACK_RANGE_M,
    lte_timing_advance_steps,
    max_range_supported_m,
    propagation_delay_s,
)

__all__ = [
    "UeArena",
    "CsmaNode", "CsmaSimulation", "bianchi_throughput",
    "LteScheduler", "RoundRobinScheduler", "ProportionalFairScheduler",
    "MaxCiScheduler", "QosAwareScheduler", "SchedulableUser",
    "ContiguousUplinkScheduler", "contiguity_loss", "contiguous_runs",
    "LTE_MAX_CELL_RANGE_M", "WIFI_DEFAULT_ACK_RANGE_M",
    "lte_timing_advance_steps", "max_range_supported_m",
    "propagation_delay_s",
]
