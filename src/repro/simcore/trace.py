"""Event tracing: see what a simulation did without print-debugging.

A :class:`Tracer` is a bounded, filterable record of annotated events.
Components call ``sim.trace("category", "message", key=value, ...)``;
with no tracer installed the call is a near-free no-op, so production
runs pay nothing. Tests and debugging sessions install a tracer, run,
and query by category.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    time_s: float
    category: str
    message: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return (f"[{self.time_s:12.6f}] {self.category}: {self.message}"
                + (f" ({extras})" if extras else ""))


class Tracer:
    """A bounded trace buffer with category filtering.

    Args:
        max_events: ring-buffer capacity (oldest events drop first).
        categories: if given, only these categories are recorded.
    """

    def __init__(self, max_events: int = 100_000,
                 categories: Optional[Iterable[str]] = None) -> None:
        if max_events < 1:
            raise ValueError("need room for at least one event")
        self._events: Deque[TraceEvent] = deque(maxlen=max_events)
        self._categories = frozenset(categories) if categories else None
        #: True once a back-dated event landed behind a later one;
        #: :meth:`events` restores time order before anything reads
        self._backdated = False
        self.recorded = 0
        self.filtered = 0

    def record(self, time_s: float, category: str, message: str,
               **fields: Any) -> None:
        """Append an event (subject to the category filter).

        ``time_s`` may lie before the newest event's (a lazily evaluated
        verdict stamped with the instant it belongs to); readers still
        see the trace in time order, arrival order within one instant.
        """
        if self._categories is not None and category not in self._categories:
            self.filtered += 1
            return
        self.recorded += 1
        if self._events and time_s < self._events[-1].time_s:
            self._backdated = True
        self._events.append(TraceEvent(time_s=time_s, category=category,
                                       message=message, fields=fields))

    # -- queries --------------------------------------------------------------------

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

    def count(self, category: Optional[str] = None) -> int:
        """Number of retained events in a category (all if None)."""
        return len(self.events(category))

    def categories(self) -> List[str]:
        """Distinct categories seen, sorted."""
        return sorted({e.category for e in self._events})

    def dump(self, category: Optional[str] = None) -> str:
        """Human-readable rendering of the (filtered) trace."""
        return "\n".join(str(e) for e in self.events(category))

    def clear(self) -> None:
        """Drop all retained events (counters keep running)."""
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)
