"""Discrete-event simulation kernel.

Every subsystem in the dLTE reproduction runs on this kernel: a binary-heap
event queue with a simulated clock, lightweight generator-based processes
(in the style of simpy), and per-component deterministic random streams.

The kernel is deliberately small and allocation-light: the MAC-layer
experiments schedule millions of events (one per TTI per cell), so
``Simulator.schedule`` and the run loop are the hot path of the whole
reproduction.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "events": ("Event", "EventCancelled", "Timeout"),
    "process": ("Process", "ProcessKilled"),
    "rng": ("RngRegistry",),
    "sharded": (
        "ShardBoundary", "ShardHost", "ShardedSimulator",
        "ZeroLookaheadError"),
    "simulator": ("ScheduledCall", "Simulator"),
    "trace": ("TraceEvent", "Tracer"),
})
