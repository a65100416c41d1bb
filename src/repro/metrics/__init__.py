"""Measurement utilities: fairness, percentiles, time series, tables."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "stats": ("TimeSeries", "jain_fairness", "percentile", "summarize"),
    "tables": ("ResultTable",),
})
