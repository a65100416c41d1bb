"""Causal spans on the simulated clock.

A span times one logical procedure — an attach, a handover, a paging
cycle, a lease renewal — from begin to end *in simulated time*, across
however many event callbacks it takes. Spans carry ids and parent ids,
so nested procedures form a causal tree that exporters can reconstruct.

Two usage shapes, matching the two shapes of simulation code:

* synchronous blocks use the context manager and get implicit
  parenting from the enclosing span::

      with sim.span("handover.decide", ue=ue_id):
          ...  # child spans opened here are parented automatically

* event-driven procedures (the common case: an attach is a chain of
  callbacks) hold the span handle across steps::

      span = sim.telemetry.spans.begin("epc.attach", ue=ue_id)
      ...                       # many events later
      span.end(status="ok")

Ending a span records its duration into the metrics histogram
``span.<name>.duration_s`` labelled by status, so procedure latency
distributions fall out of the registry without separate bookkeeping.
Instantaneous occurrences (a fault firing) are zero-duration spans via
:meth:`SpanTracker.event`.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.telemetry.registry import Histogram, MetricsRegistry

__all__ = ["Span", "SpanTracker", "Telemetry"]


def _frozen_clock() -> float:
    """Clock of a shipped or detached tracker: it only reports history."""
    return 0.0


class Span:
    """One timed procedure instance."""

    __slots__ = ("_tracker", "name", "span_id", "parent_id", "start_s",
                 "end_s", "status", "attrs")

    def __init__(self, tracker: "SpanTracker", name: str, span_id: int,
                 parent_id: Optional[int], start_s: float,
                 attrs: Dict[str, Any]) -> None:
        self._tracker = tracker
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
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

    # -- context-manager shape (synchronous nesting) -----------------------

    def __enter__(self) -> "Span":
        self._tracker._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = self._tracker._stack
        if stack and stack[-1] is self:
            stack.pop()
        self.end(status="error" if exc_type is not None else "ok")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable record for exporters."""
        return {"type": "span", "name": self.name, "span_id": self.span_id,
                "parent_id": self.parent_id, "start_s": self.start_s,
                "end_s": self.end_s, "duration_s": self.duration_s,
                "status": self.status, "attrs": dict(self.attrs)}

    def __repr__(self) -> str:
        state = (f"dur={self.duration_s:.6f}s status={self.status}"
                 if self.finished else "open")
        return f"<Span #{self.span_id} {self.name} {state}>"


#: ring-buffer bound on the finished spans a tracker retains
_MAX_FINISHED = 100_000


class SpanTracker:
    """Creates spans on a clock, keeps the finished ones, feeds metrics.

    Args:
        clock: zero-arg callable returning the current simulated time.
        metrics: registry receiving ``span.<name>.duration_s`` histograms
            (None disables the metric mirror).
    """

    def __init__(self, clock: Callable[[], float],
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self._clock = clock
        self._metrics = metrics
        #: ``span.<name>.duration_s`` histograms by (name, status),
        #: looked up once each: created at first use, as the registry
        #: would
        self._hists: Dict[Tuple[str, str], Histogram] = {}
        self._ids = itertools.count(1)
        self._stack: List[Span] = []
        self._open: Dict[int, Span] = {}
        self.finished: Deque[Span] = deque(maxlen=_MAX_FINISHED)
        self.started = 0
        self.ended = 0

    # -- pickling ----------------------------------------------------------
    #
    # Parallel workers ship finished trackers back to the parent hub
    # (see repro.runner.worker). The clock is a closure over a live
    # simulator, so it is dropped in transit and replaced with a frozen
    # zero clock — shipped trackers are archives, not live recorders.

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_clock"] = None
        del state["_hists"]  # a lookup cache; the registry ships apart
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._hists = {}
        if self._clock is None:
            self._clock = _frozen_clock

    def detach(self) -> None:
        """Become an archive, as a shipped tracker is: the clock over the
        simulator goes, and the spans, which never end again, let go of
        the tracker, so that tracker and spans hold no cycle."""
        self._clock = _frozen_clock
        for span in itertools.chain(self.finished, self._open.values()):
            span._tracker = None

    # -- creation ----------------------------------------------------------

    def begin(self, name: str, parent: Optional[Span] = None,
              **attrs: Any) -> Span:
        """Open a span; parent defaults to the innermost ``with`` span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(self, name, next(self._ids),
                    parent.span_id if parent is not None else None,
                    self._clock(), attrs)
        self._open[span.span_id] = span
        self.started += 1
        return span

    def span(self, name: str, **attrs: Any) -> Span:
        """A span intended for ``with`` use (same object as begin())."""
        return self.begin(name, **attrs)

    def event(self, name: str, **attrs: Any) -> Span:
        """A zero-duration span marking an instantaneous occurrence."""
        return self.begin(name, **attrs).end(status="event")

    # -- lifecycle ---------------------------------------------------------

    def _finish(self, span: Span, status: str) -> None:
        span.end_s = self._clock()
        span.status = status
        self._open.pop(span.span_id, None)
        self.finished.append(span)
        self.ended += 1
        if self._metrics is not None:
            key = (span.name, status)
            hist = self._hists.get(key)
            if hist is None:
                hist = self._hists[key] = self._metrics.histogram(
                    f"span.{span.name}.duration_s", status=status)
            hist.observe(span.duration_s)

    # -- queries -----------------------------------------------------------

    def open_spans(self) -> List[Span]:
        """Spans begun but not yet ended, in begin order (post-mortems)."""
        return sorted(self._open.values(), key=lambda s: s.span_id)

    def spans(self, name: Optional[str] = None) -> List[Span]:
        """Finished spans (optionally one procedure), in end order."""
        return [s for s in self.finished if name is None or s.name == name]


class Telemetry:
    """Per-simulator telemetry bundle: one registry + one span tracker."""

    __slots__ = ("metrics", "spans")

    def __init__(self, clock: Callable[[], float]) -> None:
        self.metrics = MetricsRegistry()
        self.spans = SpanTracker(clock, metrics=self.metrics)
