"""Generator-based cooperative processes.

Protocol code (attach procedures, handover sequences, traffic sources)
reads far more naturally as a coroutine than as a callback chain::

    def attach(self):
        yield self.sim.timeout(0.01)            # radio setup
        reply = yield self.send_and_wait(msg)   # wait on an Event
        ...

A :class:`Process` drives such a generator: each yielded :class:`Event`
suspends the process until the event triggers, and the event's value is
sent back into the generator. Every resume is its own queued call, so it
takes its place among same-instant work when its trigger fires. A process
is not an event and has no result: nothing waits on one. An exception
raised in its body propagates out of :meth:`Simulator.run`, failing the
run rather than a loop nobody watches.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.simcore.events import Event


class Process:
    """Runs a generator, suspending on yielded events."""

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator", gen: Generator) -> None:  # noqa: F821
        self._gen = gen
        sim.call_soon(self._resume, None)

    def _resume(self, event: Optional[Event]) -> None:
        try:
            target = self._gen.send(None if event is None else event.value)
        except StopIteration:
            return
        if not isinstance(target, Event):
            raise TypeError(
                f"process {self._gen.__qualname__} yielded {target!r}; "
                f"processes may only yield simcore Events "
                f"(e.g. sim.timeout(...))")
        target.add_callback(self._resume)
