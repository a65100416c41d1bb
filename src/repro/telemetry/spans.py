"""Spans on the simulated clock.

A span times one logical procedure — an attach, a paging cycle, a lease
renewal — from begin to end *in simulated time*, across however many
event callbacks it takes. Simulation code is event-driven, so a span is
a handle held across steps::

    span = sim.span("epc.attach", ue=ue_id)
    ...                       # many events later
    span.end(status="ok")

Ending a span does three things, each for the reader that needs it:

* records its duration into the ``span.<name>.duration_s`` histogram,
  labelled by status, so procedure latency distributions (and the
  ``sim:`` family of ``--profile-out``) fall out of the registry;
* keeps it among the tracker's last :data:`SPAN_TAIL` finished spans,
  which is all the flight recorder's post-mortem reads;
* appends its record to the simulator's tracer, if the run traces
  (``--trace-out`` writes those records).

An untraced run therefore holds at most :data:`SPAN_TAIL` finished
spans per simulator. Instantaneous occurrences (a fault firing) are
zero-duration spans via :meth:`SpanTracker.event`.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.telemetry.registry import Histogram, MetricsRegistry

__all__ = ["SPAN_TAIL", "Span", "SpanTracker", "Telemetry"]

#: Finished spans a tracker keeps for post-mortem dumps (the most
#: recent, in end order).
SPAN_TAIL = 64


class Span:
    """One timed procedure instance."""

    __slots__ = ("_tracker", "name", "span_id", "start_s", "end_s",
                 "status", "attrs")

    def __init__(self, tracker: "SpanTracker", name: str, span_id: int,
                 start_s: float, attrs: Dict[str, Any]) -> None:
        self._tracker = tracker
        self.name = name
        self.span_id = span_id
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.status = "open"
        self.attrs = attrs

    @property
    def finished(self) -> bool:
        """True once :meth:`end` has run."""
        return self.end_s is not None

    @property
    def duration_s(self) -> Optional[float]:
        """Simulated duration, or None while still open."""
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    def end(self, status: str = "ok", **attrs: Any) -> "Span":
        """Close the span at the current simulated time (idempotent)."""
        if self.end_s is None:
            self.attrs.update(attrs)
            self._tracker._finish(self, status)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable record for exporters (``parent_id`` is
        always null: spans do not nest, and the field keeps the JSONL
        schema stable)."""
        return {"type": "span", "name": self.name, "span_id": self.span_id,
                "parent_id": None, "start_s": self.start_s,
                "end_s": self.end_s, "duration_s": self.duration_s,
                "status": self.status, "attrs": dict(self.attrs)}

    def __repr__(self) -> str:
        state = (f"dur={self.duration_s:.6f}s status={self.status}"
                 if self.finished else "open")
        return f"<Span #{self.span_id} {self.name} {state}>"


class SpanTracker:
    """Opens spans on a simulator's clock and records the ones that end.

    Args:
        sim: the owning simulator; its ``now`` stamps spans and its
            ``tracer``, when set, receives each finished span's record.
        metrics: registry receiving ``span.<name>.duration_s`` histograms.
    """

    def __init__(self, sim: Any, metrics: MetricsRegistry) -> None:
        self._sim = sim
        self._metrics = metrics
        #: ``span.<name>.duration_s`` histograms by (name, status),
        #: looked up once each: created at first use, as the registry
        #: would
        self._hists: Dict[Tuple[str, str], Histogram] = {}
        self._ids = itertools.count(1)
        self._open: Dict[int, Span] = {}
        #: the last :data:`SPAN_TAIL` finished spans, for post-mortems
        self.tail: Deque[Span] = deque(maxlen=SPAN_TAIL)

    def begin(self, name: str, **attrs: Any) -> Span:
        """Open a span at the current simulated time."""
        span = Span(self, name, next(self._ids), self._sim.now, attrs)
        self._open[span.span_id] = span
        return span

    def event(self, name: str, **attrs: Any) -> Span:
        """A zero-duration span marking an instantaneous occurrence."""
        return self.begin(name, **attrs).end(status="event")

    def _finish(self, span: Span, status: str) -> None:
        sim = self._sim
        span.end_s = sim.now
        span.status = status
        del self._open[span.span_id]
        self.tail.append(span)
        key = (span.name, status)
        hist = self._hists.get(key)
        if hist is None:
            hist = self._hists[key] = self._metrics.histogram(
                f"span.{span.name}.duration_s", status=status)
        hist.observe(span.duration_s)
        tracer = sim.tracer
        if tracer is not None:
            tracer.spans.append(span.to_dict())

    def open_spans(self) -> List[Span]:
        """Spans begun but not yet ended, in begin order (post-mortems)."""
        return sorted(self._open.values(), key=lambda s: s.span_id)


class Telemetry:
    """Per-simulator telemetry bundle: one registry + one span tracker."""

    __slots__ = ("metrics", "spans")

    def __init__(self, sim: Any) -> None:
        self.metrics = MetricsRegistry()
        self.spans = SpanTracker(sim, self.metrics)
