"""Medium access control: LTE schedulers, timing range limits, WiFi CSMA/CA.

LTE's MAC is *scheduled*: the eNodeB assigns PRBs per TTI, so overlapping
cells only interfere if their PRB allocations collide — coordination can
eliminate contention entirely. WiFi's MAC is *contended*: DCF CSMA/CA
resolves access by carrier sensing and random backoff, which degrades
with load and fails under hidden terminals. Both are built here and
compared head-to-head in E5 and E8.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "arena": ("UeArena",),
    "csma": ("CsmaNode", "CsmaSimulation"),
    "schedulers": (
        "LteScheduler", "MaxCiScheduler", "ProportionalFairScheduler",
        "QosAwareScheduler", "RoundRobinScheduler", "SchedulableUser"),
    "uplink": ("ContiguousUplinkScheduler", "contiguous_runs"),
    "timing": (
        "LTE_MAX_CELL_RANGE_M", "WIFI_DEFAULT_ACK_RANGE_M",
        "max_range_supported_m"),
})
