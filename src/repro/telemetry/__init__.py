"""Simulation-aware observability: metrics, spans, profiling, export.

Four parts (see OBSERVABILITY.md for conventions):

* :mod:`repro.telemetry.registry` — named, labelled counters / gauges /
  histograms, hierarchical by subsystem, cheap enough to stay on;
* :mod:`repro.telemetry.spans` — causal spans on the simulated clock for
  multi-step procedures (attach, handover, paging, lease renewal);
* :mod:`repro.telemetry.profiler` — wall-clock attribution per callback
  site over the simulator heap loop (opt-in);
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
    "profiler": ("RunProfiler",),
    "hub": ("HUB", "RunTelemetry", "TelemetryHub", "ambient_registry"),
})
