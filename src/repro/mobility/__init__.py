"""Client mobility: movement models and handover triggering.

§4.2's mobility story is architectural (endpoint transports vs MME
tunnel-juggling), but both sides need the same physical inputs: clients
that move, and an A3-style measurement rule that decides *when* the
client should change APs. This package provides both; the per-
architecture *consequences* of a handover (path switch vs re-attach +
transport migration) live with the architectures in ``repro.core``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "models": ("LinearMover", "RandomWaypointMover"),
    "handover": ("A3HandoverTrigger",),
})
