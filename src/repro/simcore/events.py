"""Waitable events for the simulation kernel.

An :class:`Event` is a one-shot synchronization point: processes yield it to
suspend, and some other actor later calls :meth:`Event.succeed` to resume
every waiter. :class:`Timeout` is the degenerate event that the simulator
itself triggers after a delay.
"""

from __future__ import annotations

from typing import Any, Callable, List


class Event:
    """A one-shot waitable occurrence.

    States: *pending* -> *succeeded*. Callbacks registered while pending
    run (via the simulator, at the current simulated time) when the event
    fires.
    """

    __slots__ = ("sim", "_callbacks", "_done", "value")

    def __init__(self, sim: "Simulator") -> None:  # noqa: F821
        self.sim = sim
        self._callbacks: List[Callable[["Event"], None]] = []
        self._done = False
        self.value: Any = None

    @property
    def triggered(self) -> bool:
        """True once the event has succeeded."""
        return self._done

    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful, delivering ``value`` to waiters."""
        if self._done:
            raise RuntimeError("event already triggered")
        self._done = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            self.sim.call_soon(cb, self)
        return self

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


class Timeout(Event):
    """An event that the simulator triggers after a fixed delay."""

    __slots__ = ("_call",)

    def __init__(self, sim: "Simulator", delay: float) -> None:  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self._call = sim.schedule(delay, self.succeed)


class AnyOf(Event):
    """Triggers when the first of several events triggers.

    The value is the event that fired first. A :class:`Timeout` child
    still pending then is cancelled: it belongs to the race, and firing
    later would wake nobody.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: List[Event]) -> None:  # noqa: F821
        if not events:
            raise ValueError("AnyOf requires at least one event")
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._done:
            return
        self.succeed(child)
        for ev in self.events:
            if not ev._done and isinstance(ev, Timeout):
                ev._call.cancel()
