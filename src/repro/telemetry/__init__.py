"""Simulation-aware observability: metrics, spans, profiling, export.

Four parts (see OBSERVABILITY.md for conventions):

* :mod:`repro.telemetry.registry` — named, labelled counters / gauges /
  histograms, hierarchical by subsystem, cheap enough to stay on;
* :mod:`repro.telemetry.spans` — spans on the simulated clock for
  multi-step procedures (attach, paging, lease renewal);
* :mod:`repro.telemetry.hub` — collection across every simulator an
  experiment builds, and the opt-in profile: the whole run under the
  stdlib's ``cProfile``, folded per function;
* :mod:`repro.telemetry.exporters` — JSONL / CSV / metrics-text /
  terminal-table output, wired into ``python -m repro`` via
  ``--metrics-out``, ``--trace-out``, and ``--profile``.

Every :class:`~repro.simcore.simulator.Simulator` owns a
:class:`Telemetry` (``sim.metrics``, ``sim.span(...)``); the
:data:`~repro.telemetry.hub.HUB` collects across all simulators an
experiment builds.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "registry": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "P2Quantile"),
    "spans": ("Span", "SpanTracker", "Telemetry"),
    "hub": ("HUB", "RunTelemetry", "TelemetryHub", "ambient_registry"),
})
