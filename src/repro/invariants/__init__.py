"""Runtime invariants: conservation laws audited during simulation.

Chaos experiments (see :mod:`repro.faults`) deliberately break the
network; this package proves the *simulator* stayed sound while they
did. An :class:`InvariantChecker` sweeps registered conservation checks
on the simulated clock — packet conservation per link with every drop
attributed to a cause, NAT binding accounting, aggregate GTP tunnel
conservation, event-clock monotonicity, spectrum-grant sanity and
PRB-slice non-overlap per contention domain, and NAS attach-state
legality on every transition. Inside :func:`armed` every new simulator
carries a checker and each component registers itself where it is built.

Checks are passive: they read counters, draw no randomness, and
schedule only their own sweep, so instrumented runs produce
byte-identical tables and disabled runs pay nothing. ROBUSTNESS.md
lists every law and how E16 uses them.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "arming": ("armed",),
    "checks": ("InvariantChecker", "InvariantError", "InvariantViolation"),
    "network": ("watch_federation",),
})
