"""The event loop: a simulated clock over a binary-heap run queue."""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.simcore.events import AllOf, AnyOf, Event, Timeout
from repro.simcore.process import Process
from repro.simcore.rng import RngRegistry
from repro.telemetry.spans import Telemetry
from repro.telemetry import flightrec
from repro.telemetry.hub import HUB


class ScheduledCall:
    """Handle for a scheduled callback; supports cancellation.

    Cancellation is lazy: the heap entry stays queued and is skipped at
    dispatch. The owning simulator counts cancelled-but-queued entries
    and compacts the heap when they dominate (see
    :meth:`Simulator.live_queue_length`), so timer churn — arm, cancel,
    re-arm, the RTO pattern — cannot grow the heap or tax ``heappop``
    with log-N passes over garbage.
    """

    __slots__ = ("time", "cancelled", "_sim")

    def __init__(self, time: float, sim: "Optional[Simulator]" = None) -> None:
        self.time = time
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already run)."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._note_cancelled()


class Simulator:
    """A discrete-event simulator with a float-seconds clock.

    Determinism: events at equal times run in scheduling (FIFO) order,
    enforced by a monotonic sequence number in the heap entries. All
    randomness flows through :attr:`rng`, a registry of named
    ``numpy.random.Generator`` streams derived from one seed, so a run is
    fully reproducible from ``(seed, topology)``.
    """

    #: this simulator's :class:`~repro.invariants.InvariantChecker`, or
    #: None (also for a double that never ran ``__init__``). A component
    #: with a conservation law hands itself to it in its constructor —
    #: one ``is not None`` per construction, nothing per event.
    checker = None
    #: process-wide hook called with every new simulator; it installs
    #: :attr:`checker`. Set by :func:`repro.invariants.armed` while it
    #: is on — this module never imports that package.
    arming: Optional[Callable[["Simulator"], None]] = None

    def __init__(self, seed: int = 0, start_time: float = 0.0) -> None:
        self.now: float = start_time
        self.rng = RngRegistry(seed)
        self._heap: List[Tuple[float, int, ScheduledCall, Callable, tuple]] = []
        self._seq = itertools.count()
        self._running = False
        #: horizon of the run in progress; None tells an audit sweep
        #: it must not keep the queue alive
        self._until: Optional[float] = None
        self.events_executed = 0
        #: cancelled entries still sitting in the heap (heap hygiene)
        self._cancelled = 0
        #: most entries the heap ever held at once — the memory/log-N
        #: footprint of a run; exported by the profiler and bench JSON
        self.heap_high_water = 0
        #: deepest ControlAgent queue seen in this sim and total messages
        #: shed by overload protection — maintained by repro.epc.agents,
        #: exported alongside heap_high_water (plain ints: passive)
        self.agent_peak_queue = 0
        self.agents_shed = 0
        #: deepest link egress queue seen and total ECN CE-marks applied
        #: — maintained by repro.net.links, same passive-int pattern
        self.link_peak_queue = 0
        self.ecn_marks = 0
        self._tracer = None
        self._profiler = None
        #: True iff a tracer or profiler is installed — the one flag the
        #: per-event hot path checks, so uninstrumented runs make zero
        #: telemetry calls per event (asserted by tests)
        self._observed = False
        #: always-on metrics + span bundle (recording is passive: no RNG,
        #: no scheduling — instrumented runs stay bit-identical)
        self.telemetry = Telemetry(lambda: self.now)
        #: flight-recorder ring of the last N dispatched events, written
        #: in place by the dispatch loop (two slot stores + an index
        #: bump per event — no allocation, no telemetry calls) and read
        #: only by post-mortem dumps (repro.telemetry.flightrec)
        self._fr_ring: List[list] = [[0.0, None]
                                     for _ in range(flightrec.FLIGHT_CAPACITY)]
        self._fr_idx = 0
        flightrec.track(self)
        HUB.adopt(self)
        if Simulator.arming is not None:
            Simulator.arming(self)

    # tracer/profiler stay plain assignable attributes to callers, but
    # route through properties so the dispatch loop and trace() can test
    # a single precomputed flag instead of two attributes per event.

    @property
    def tracer(self):
        """Optional simcore.trace.Tracer; see :meth:`trace`."""
        return self._tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self._tracer = value
        self._observed = value is not None or self._profiler is not None

    @property
    def profiler(self):
        """Optional telemetry.RunProfiler; when set, dispatch times every
        callback (opt-in — costs a perf_counter pair per event; never
        changes simulation results)."""
        return self._profiler

    @profiler.setter
    def profiler(self, value) -> None:
        self._profiler = value
        self._observed = value is not None or self._tracer is not None

    def trace(self, category: str, message: str,
              at: Optional[float] = None, **fields: Any) -> None:
        """Record a trace event if a tracer is installed (else no-op).

        ``at`` stamps the event with a time other than ``now`` — for a
        verdict evaluated lazily that belongs to an earlier instant
        (a link admitting a deferred offer).
        """
        if not self._observed:
            return
        if self._profiler is not None:
            self._profiler.note_category(category)
        if self._tracer is not None:
            self._tracer.record(self.now if at is None else at,
                                category, message, **fields)

    @property
    def metrics(self):
        """This simulator's :class:`~repro.telemetry.MetricsRegistry`."""
        return self.telemetry.metrics

    def span(self, name: str, **attrs: Any):
        """Open a causal span on the simulated clock (see telemetry.spans)."""
        return self.telemetry.spans.begin(name, **attrs)

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.at(self.now + delay, fn, *args)

    def at(self, time: float, fn: Callable, *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        handle = ScheduledCall(time, self)
        heap = self._heap
        heapq.heappush(heap, (time, next(self._seq), handle, fn, args))
        if len(heap) > self.heap_high_water:
            self.heap_high_water = len(heap)
        return handle

    def post_at(self, time: float, fn: Callable, *args: Any) -> None:
        """Fire-and-forget :meth:`at`: no cancellation handle is created.

        Hot paths that never cancel — link drains, agent service
        completions, router forwarding — account for almost every event
        in the packet-level experiments, and the per-event
        :class:`ScheduledCall` allocation was measurable there. The heap
        entry carries ``None`` in the handle slot and dispatch treats it
        as live. Unlike :meth:`at` the ``time >= now`` precondition is
        not validated; callers must guarantee it.
        """
        heap = self._heap
        heapq.heappush(heap, (time, next(self._seq), None, fn, args))
        if len(heap) > self.heap_high_water:
            self.heap_high_water = len(heap)

    # -- heap hygiene -------------------------------------------------------

    def _note_cancelled(self) -> None:
        """One queued entry was cancelled; compact when garbage dominates.

        Compaction drops cancelled entries and re-heapifies in place.
        Entries keep their original ``(time, seq)`` keys, so the pop
        order of live events — and therefore same-time FIFO semantics —
        is untouched.
        """
        self._cancelled += 1
        heap = self._heap
        if self._cancelled > 64 and self._cancelled * 2 > len(heap):
            heap[:] = [entry for entry in heap
                       if entry[2] is None or not entry[2].cancelled]
            heapq.heapify(heap)
            self._cancelled = 0

    @property
    def live_queue_length(self) -> int:
        """Queued entries that will actually run (excludes cancelled)."""
        return len(self._heap) - self._cancelled

    def call_soon(self, fn: Callable, *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` at the current time, after pending same-time work."""
        return self.at(self.now, fn, *args)

    # -- event factories ----------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event` bound to this simulator."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that succeeds after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def any_of(self, events: List[Event]) -> AnyOf:
        """Event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: List[Event]) -> AllOf:
        """Event that fires when all of ``events`` have succeeded."""
        return AllOf(self, events)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a generator-based process (see :class:`simcore.Process`)."""
        return Process(self, generator, name)

    # -- run loop -----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next scheduled call. Returns False if queue empty."""
        before = self.events_executed
        self.run(max_events=1)
        return self.events_executed > before

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or event budget spent.

        Returns the simulated time at which the run stopped. When stopped by
        ``until``, the clock is advanced to exactly ``until`` and events
        scheduled at later times remain queued.

        This is the only dispatch body (:meth:`step` is one pass of it),
        with the heap and heappop bound locally — it dominates every
        packet-level experiment (E6/E7 spend >90% of wall time here),
        where the per-event method call and attribute lookups were
        measurable.
        """
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        heap = self._heap
        if self.checker is not None and len(heap) > self._cancelled:
            self.checker.arm()  # the sweep rides every run that has work
        self._until = until
        self._running = True
        executed = 0
        heappop = heapq.heappop
        bounded = max_events is not None
        # flight-recorder ring, bound locally like the heap: recording an
        # event is two in-place slot stores and an index bump (no
        # allocation, no telemetry calls — fastpath tests still hold)
        fr_ring = self._fr_ring
        fr_cap = len(fr_ring)
        fr_idx = self._fr_idx
        try:
            while heap:
                entry = heap[0]
                if until is not None and entry[0] > until:
                    self.now = until
                    break
                if bounded and executed >= max_events:
                    break
                time, _seq, handle, fn, args = heappop(heap)
                if handle is not None and handle.cancelled:
                    self._cancelled -= 1
                    continue
                self.now = time
                self.events_executed += 1
                executed += 1
                slot = fr_ring[fr_idx]
                slot[0] = time
                slot[1] = fn
                fr_idx += 1
                if fr_idx == fr_cap:
                    fr_idx = 0
                if self._profiler is None:
                    fn(*args)
                else:
                    self._profiler.run_callback(fn, args)
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._fr_idx = fr_idx
            self._running = False
        return self.now

    def flight_events(self) -> List[Tuple[float, Callable]]:
        """The flight-recorder tail: recent ``(time, callback)`` dispatches.

        Oldest first, at most ``flightrec.FLIGHT_CAPACITY`` entries (the
        ring's size at construction). Read by post-mortem dumps; callers
        must not mutate the returned callbacks.
        """
        ring = self._fr_ring
        cap = len(ring)
        count = min(self.events_executed, cap)
        start = (self._fr_idx - count) % cap
        return [(ring[(start + k) % cap][0], ring[(start + k) % cap][1])
                for k in range(count)]

    @property
    def queue_length(self) -> int:
        """Number of entries currently in the run queue (incl. cancelled)."""
        return len(self._heap)

    def __repr__(self) -> str:
        return (f"<Simulator t={self.now:.6f}s queued={len(self._heap)} "
                f"executed={self.events_executed}>")
