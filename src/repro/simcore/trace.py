"""Event tracing: see what a simulation did without print-debugging.

A :class:`Tracer` is a bounded record of annotated events and of the
spans that ended while it was installed. Components call
``sim.trace("category", "message", key=value, ...)``; with no tracer
installed the call is a near-free no-op, so production runs pay
nothing. ``--trace-out`` (and any test or debugging session) installs
a tracer, runs, and reads :meth:`Tracer.events` and
:attr:`Tracer.spans`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    time_s: float
    category: str
    message: str
    fields: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """A bounded trace buffer.

    Args:
        max_events: ring-buffer capacity, applied to the events and to
            the span records separately (oldest drop first).
    """

    def __init__(self, max_events: int = 100_000) -> None:
        if max_events < 1:
            raise ValueError("need room for at least one event")
        self._events: Deque[TraceEvent] = deque(maxlen=max_events)
        #: records (:meth:`~repro.telemetry.spans.Span.to_dict`) of the
        #: spans that ended while this tracer was installed, in end order
        self.spans: Deque[Dict[str, Any]] = deque(maxlen=max_events)
        #: True once a back-dated event landed behind a later one;
        #: :meth:`events` restores time order before anything reads
        self._backdated = False
        self.recorded = 0

    def record(self, time_s: float, category: str, message: str,
               **fields: Any) -> None:
        """Append an event.

        ``time_s`` may lie before the newest event's (a lazily evaluated
        verdict stamped with the instant it belongs to); readers still
        see the trace in time order, arrival order within one instant.
        """
        self.recorded += 1
        if self._events and time_s < self._events[-1].time_s:
            self._backdated = True
        self._events.append(TraceEvent(time_s=time_s, category=category,
                                       message=message, fields=fields))

    def events(self, category: Optional[str] = None) -> List[TraceEvent]:
        """Events in ``category`` (all if None), in time (then arrival)
        order."""
        if self._backdated:
            self._events = deque(
                sorted(self._events, key=lambda e: e.time_s),
                maxlen=self._events.maxlen)
            self._backdated = False
        return [e for e in self._events
                if category is None or e.category == category]
