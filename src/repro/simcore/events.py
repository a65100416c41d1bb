"""Waitable events for the simulation kernel.

An :class:`Event` is a one-shot synchronization point: processes yield it to
suspend, and some other actor later calls :meth:`Event.succeed` (or
:meth:`Event.fail`) to resume every waiter. :class:`Timeout` is the
degenerate event that the simulator itself triggers after a delay.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional


class EventCancelled(Exception):
    """Raised inside a process waiting on an event that was cancelled."""


class Event:
    """A one-shot waitable occurrence.

    States: *pending* -> one of *succeeded* / *failed* / *cancelled*.
    Callbacks registered while pending run (via the simulator, at the
    current simulated time) when the event fires.
    """

    __slots__ = ("sim", "_callbacks", "_ok", "_done", "value", "_exc", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:  # noqa: F821
        self.sim = sim
        self.name = name
        self._callbacks: List[Callable[["Event"], None]] = []
        self._ok: Optional[bool] = None
        self._done = False
        self.value: Any = None
        self._exc: Optional[BaseException] = None

    # -- state queries ----------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has succeeded, failed, or been cancelled."""
        return self._done

    @property
    def ok(self) -> bool:
        """True when the event completed via :meth:`succeed`."""
        return bool(self._ok)

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, if the event failed."""
        return self._exc

    # -- transitions ------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful, delivering ``value`` to waiters."""
        self._finish(ok=True, value=value, exc=None)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Mark the event failed; waiting processes see ``exc`` raised."""
        if not isinstance(exc, BaseException):
            raise TypeError("Event.fail requires an exception instance")
        self._finish(ok=False, value=None, exc=exc)
        return self

    def cancel(self) -> "Event":
        """Cancel the event; waiters see :class:`EventCancelled`."""
        if self._done:
            return self
        self._finish(ok=False, value=None,
                     exc=EventCancelled(self.name or "cancelled"))
        return self

    def _finish(self, ok: bool, value: Any, exc: Optional[BaseException]) -> None:
        if self._done:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self._done = True
        self._ok = ok
        self.value = value
        self._exc = exc
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            self.sim.call_soon(cb, self)

    # -- waiting ----------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event triggers.

        If the event already triggered the callback is scheduled to run
        immediately (at the current simulated time), preserving the
        invariant that callbacks never run synchronously inside the caller.
        """
        if self._done:
            self.sim.call_soon(callback, self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:
        state = ("pending" if not self._done
                 else "ok" if self._ok else type(self._exc).__name__)
        return f"<Event {self.name!r} {state}>"


class Timeout(Event):
    """An event that the simulator triggers after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim, name=f"timeout({delay:g})")
        self.delay = delay
        sim.schedule(delay, self.succeed, value)


class AnyOf(Event):
    """Triggers when the first of several events triggers.

    The value is the event that fired first. Failures propagate: if the
    first event to trigger failed, this event fails with the same exception.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: List[Event]) -> None:  # noqa: F821
        if not events:
            raise ValueError("AnyOf requires at least one event")
        super().__init__(sim, name="any_of")
        self.events = list(events)
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._done:
            return
        if child.ok:
            self.succeed(child)
        else:
            self.fail(child.exception or EventCancelled("child cancelled"))
