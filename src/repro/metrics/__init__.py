"""Measurement utilities: fairness, percentiles, tables."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "stats": ("jain_fairness", "percentile", "summarize"),
    "tables": ("ResultTable",),
})
