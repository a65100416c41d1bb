"""Event tracing: see what a simulation did without print-debugging.

A :class:`Tracer` is a bounded, filterable record of annotated events.
Components call ``sim.trace("category", "message", key=value, ...)``;
with no tracer installed the call is a near-free no-op, so production
runs pay nothing. Tests and debugging sessions install a tracer, run,
and query by category/time/field.
"""

from __future__ import annotations

import json
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

    def events(self, category: Optional[str] = None,
               since_s: float = float("-inf"),
               until_s: float = float("inf")) -> List[TraceEvent]:
        """Events matching the filters, in time (then arrival) order."""
        if self._backdated:
            self._events = deque(
                sorted(self._events, key=lambda e: e.time_s),
                maxlen=self._events.maxlen)
            self._backdated = False
        return [e for e in self._events
                if (category is None or e.category == category)
                and since_s <= e.time_s <= until_s]

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

    # -- persistence ----------------------------------------------------------------
    #
    # Traces used to die with the process; the JSONL round-trip lets a
    # run's trace be saved, reloaded, and diffed against another run's.

    def to_jsonl(self, path: str) -> int:
        """Write retained events as JSONL; returns the line count.

        Non-JSON field values (addresses, enums) are stringified, so a
        reloaded trace compares by rendering, not object identity.
        """
        count = 0
        with open(path, "w") as fh:
            for event in self.events():
                fh.write(json.dumps(
                    {"type": "trace", "time_s": event.time_s,
                     "category": event.category, "message": event.message,
                     "fields": event.fields}, default=str) + "\n")
                count += 1
        return count

    @classmethod
    def from_jsonl(cls, path: str, max_events: int = 1_000_000,
                   categories: Optional[Iterable[str]] = None) -> "Tracer":
        """Rebuild a tracer from a :meth:`to_jsonl` file.

        Lines with a ``type`` other than ``"trace"`` (e.g. span records
        in a combined export) are skipped. The usual category filter
        applies on reload, so one saved trace can be re-read narrowed.
        """
        tracer = cls(max_events=max_events, categories=categories)
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if record.get("type", "trace") != "trace":
                    continue
                tracer.record(record["time_s"], record["category"],
                              record["message"], **record.get("fields", {}))
        return tracer

    def __len__(self) -> int:
        return len(self._events)
