"""Workloads: traffic generators and deployment topologies."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "fluid": ("FluidCellLoad",),
    "topology": ("CityGrid", "RuralTown"),
    "traffic": (
        "CbrSource", "FlashCrowdAttachSource", "VideoStreamSource",
        "WebSessionSource"),
})
