"""Control-plane execution model: serial agents and delayed channels.

Control-plane entities (MME, HSS, gateways, stubs) are *serial
processors*: each inbound message waits in a FIFO and then occupies the
agent for a per-message service time. This is what makes centralization
measurable — one MME shared by 200 APs saturates under an attach storm
(queueing delay explodes), while 200 independent stubs do not (§4.1:
"each stub can be independent of others, so the one stub per site model
naturally scales").

A :class:`ControlChannel` connects two agents with a fixed one-way
latency and counts bytes, giving E7, E17 and E19 their control-load
numbers without dragging the full IP substrate into the control plane.

Queues are unbounded by default (the seed's infinite-patience model);
installing an :class:`~repro.epc.overload.OverloadPolicy` via
:meth:`ControlAgent.configure_overload` bounds the queue and sheds per
policy. Every offer and every shed is counted — ``enqueued``,
``processed``, ``shed``, ``shed_by_cause`` — so the control-plane
conservation law ``enqueued == processed + shed + in_flight`` holds at
every event boundary (see ``InvariantChecker.watch_agent``).

A message costs one heap event (its service completion) when its agent
is certain to be busy at its arrival: the arrival is *parked* on the
agent instead of posted, and joins the queue as of its own time at the
next touch (:class:`ControlAgent`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Dict, Optional, Sequence, Tuple
from collections import deque

from repro.epc.nas import AttachRequest
from repro.epc.overload import CLASS_NEW_WORK, OverloadPolicy, message_class
from repro.simcore.simulator import Simulator
from repro.telemetry.registry import Counter, Gauge, StampedQueue


#: a channel's ledger attributes as exported ``epc.channel.*`` counters
#: (``MetricsRegistry.mirror``); shared with
#: :class:`repro.net.shardlink.CrossShardChannel`, whose halves keep
#: the same three
CHANNEL_LEDGER = (
    ("messages", "epc.channel.messages", {}),
    ("bytes", "epc.channel.bytes", {}),
    ("dropped", "epc.channel.dropped", {}),
)


#: every agent's shed counters until its first shed (never written)
_NO_SHEDS: Dict[str, Counter] = {}

#: every agent's parked arrivals until its first park: an empty tuple
#: reads as an empty deque everywhere and fails loudly on ``append``
_NONE: Deque["ControlMessage"] = ()  # type: ignore[assignment]

_NEG_INF = float("-inf")


@dataclass(slots=True)
class ControlMessage:
    """Envelope: a NAS/S1AP/GTP-C payload plus reply routing."""

    payload: object
    sender: "ControlAgent"
    sent_at: float = 0.0
    #: when the message joins the receiver's queue: its arrival time
    #: from a channel, else the moment ``enqueue`` was called
    queued_at: float = 0.0
    #: the heap key's sequence number its arrival event has, reserved
    #: when a channel handed it over (-1: handed to ``enqueue`` directly)
    seq: int = -1


class ControlAgent:
    """A named serial message processor.

    Subclasses implement :meth:`handle`. Metrics: messages processed,
    busy time, and peak queue depth — E7 reports all three.

    **Parked arrivals.** A message that a channel hands over while this
    agent is certain to be busy at its arrival time costs no heap event:
    it waits in ``_parked`` under the key ``(arrival, seq)`` its event
    would have had, and joins the queue as of that time, through
    :meth:`_join` like any arrival, at the next touch that must see it.
    Which arrivals park is :meth:`_arrive`'s rule; the touches are the
    start of :meth:`_finish` and of :meth:`enqueue` (keys below their
    own event's), and every reader (keys due by
    :meth:`~repro.simcore.simulator.Simulator.ran_below`). A reader
    inside a run does not see an arrival due at exactly ``now`` until
    the next touch: that is the one place the lazy queue can differ
    from one event per arrival.
    """

    #: every field is a slot, and so are those of the subclasses with
    #: more than 30 attributes: past 30 an instance dict stops sharing
    #: its keys with the class and costs ~1.6 kB per agent
    __slots__ = (
        "sim", "name", "service_time_s", "_queue", "_busy", "_in_handle",
        "processed", "busy_time_s", "_peak", "_enqueued", "shed",
        "shed_by_cause", "overload", "_parked", "arrivals_parked", "_end",
        "_floor", "_pending", "_finish_seq", "_may_park", "_finish_cb",
        "_m_wait", "_m_shed", "__weakref__")

    #: ``processed`` is exported as it stands, read when telemetry is
    #: read; ``epc.agent.queue_depth`` is a gauge read from
    #: :attr:`_queue_gauge` the same way (``MetricsRegistry.mirror``)
    _LEDGER = (("processed", "epc.agent.processed", {}),
               ("_queue_gauge", "epc.agent.queue_depth", {}, Gauge))

    def __init__(self, sim: Simulator, name: str,
                 service_time_s: float = 0.5e-3) -> None:
        if service_time_s < 0:
            raise ValueError("service time must be non-negative")
        self.sim = sim
        self.name = name
        self.service_time_s = service_time_s
        self._queue: Deque[ControlMessage] = deque()
        self._busy = False
        self._in_handle = False
        self.processed = 0
        self.busy_time_s = 0.0
        self._peak = 0
        #: conservation ledger, read through :attr:`enqueued`
        self._enqueued = 0
        self.shed = 0
        self.shed_by_cause: Dict[str, int] = {}
        #: bounded-queue policy; None (the default) keeps the seed's
        #: unbounded infinite-patience behavior byte for byte.
        self.overload: Optional[OverloadPolicy] = None
        #: arrivals handed over but not yet in the queue, by key; see
        #: :meth:`_arrive`
        self._parked: Deque[ControlMessage] = _NONE
        #: arrivals that joined the queue from ``_parked``: each is an
        #: arrival event never posted
        self.arrivals_parked = 0
        #: an arrival may park iff ``_floor <= arrival < _end``: the
        #: agent is certain to be busy until ``_end`` (the float chain
        #: ``_finish`` will add up, or less), and ``_floor`` keeps the
        #: parked deque sorted
        self._end = _NEG_INF
        self._floor = _NEG_INF
        #: the arrival posted to this idle agent that will start its next
        #: busy period (None: none posted)
        self._pending: Optional[ControlMessage] = None
        #: the key sequence number of the posted ``_finish``
        self._finish_seq = -1
        self._may_park = type(self).enqueue is ControlAgent.enqueue
        #: ``_finish`` bound once: read per post it would build a bound
        #: method per message
        self._finish_cb = self._finish
        self._m_wait = sim.metrics.histogram("epc.agent.queue_wait_s",
                                             agent=name)
        #: ``epc.agent.shed`` by cause, looked up at each cause's first
        #: shed; copied on write, so an agent that never sheds shares
        #: the empty one
        self._m_shed: Dict[str, Counter] = _NO_SHEDS
        earlier = sim.metrics.mirror(self, self._LEDGER, agent=name)
        if earlier:
            for agent in (*earlier, self):
                agent._share_gauge()
        if sim.checker is not None:
            sim.checker.watch_agent(self)

    def configure_overload(self, policy: Optional[OverloadPolicy]) -> None:
        """Install (or clear) a bounded-queue/shedding policy. An agent
        with a policy parks nothing: its sheds can end a busy period."""
        self._unpark()
        self.overload = policy
        self._may_park = (policy is None
                          and type(self).enqueue is ControlAgent.enqueue
                          and type(self._queue) is deque)

    def _share_gauge(self) -> None:
        """A same-named agent joined this one's ``epc.agent.queue_depth``
        gauge: stamp every queue change from now on, and park nothing (a
        parked arrival joins its queue later than it arrives)."""
        if type(self._queue) is not StampedQueue:
            self._unpark()
            self._queue = StampedQueue(self._queue, self.sim.seq.__next__)
            self._may_park = False

    def _unpark(self) -> None:
        """Admit what is due and post every other parked arrival under
        its own key, as the channel would have; end the busy horizon."""
        self.queue_depth  # a touch
        parked = self._parked
        while parked:
            message = parked.popleft()
            self.sim.post_keyed(message.queued_at, message.seq, self.enqueue,
                                message)
        self._end = self._floor = _NEG_INF
        self._pending = None

    # -- arrivals --------------------------------------------------------------

    def _arrive(self, message: ControlMessage) -> None:
        """Hand over ``message`` from a channel, due at
        ``message.queued_at``: reserve the key its arrival event has,
        then park it or post that event.

        It parks only when all of these hold (else the event is posted):
        the agent has no overload policy and does not override
        :meth:`enqueue` (``_may_park``); a busy period is certain to have
        begun at a key at or below the arrival's — the agent is serving
        now, or an arrival posted earlier will start one no later than
        this one (``_pending``); the arrival is *strictly* before
        ``_end``, the certain end of that period; and it is no earlier
        than the last parked one. A message arriving at exactly the end
        could find the agent gone idle, if the finish was keyed first.

        Nothing parked ever becomes wrong: an arrival that turns up
        later with an earlier key can only lengthen a policy-free busy
        period, and ``_end`` is never more than the chain of service
        times already certain.
        """
        at = message.queued_at
        sim = self.sim
        seq = message.seq = next(sim.seq)
        if self._floor <= at < self._end and self._may_park:
            parked = self._parked
            if parked is _NONE:
                parked = self._parked = deque()
                sim.parkers.append(self)
            parked.append(message)
            self._end += self.service_time_s
            self._floor = at
            return
        sim.post_keyed(at, seq, self.enqueue, message)
        if not self._busy and self._pending is None:
            self._pending = message
            self._end = at + self.service_time_s
            self._floor = at

    def _admit_parked(self, at: float, seq: int) -> None:
        """Parked arrivals keyed below ``(at, seq)`` join the queue, in
        key order, each as of its own arrival."""
        parked = self._parked
        due = 0
        for message in parked:
            arrival = message.queued_at
            if arrival > at or (arrival == at and message.seq >= seq):
                break
            due += 1
        if not due:
            return
        if due == len(parked):
            batch = list(parked)
            parked.clear()
        else:
            batch = []
            while due > len(batch):
                batch.append(parked.popleft())
        self.arrivals_parked += due
        self._join(batch)

    def _join(self, batch: Sequence[ControlMessage]) -> bool:
        """The one admission body: each message of ``batch``, in order,
        is offered to the queue as of its ``queued_at``. False when
        overload protection shed one (a batch under a policy is a single
        arrival: an agent with a policy parks nothing)."""
        policy = self.overload
        queue = self._queue
        for message in batch:
            self._enqueued += 1
            if policy is not None and not self._admit(message, policy):
                return False
            queue.append(message)
        depth = len(queue)  # only appends since the batch began
        if depth > self._peak:
            self._peak = depth
            sim = self.sim
            if depth > sim._agent_peak_queue:
                sim._agent_peak_queue = depth
        return True

    def enqueue(self, message: ControlMessage) -> None:
        """Accept an inbound message now (a channel's arrival event, or a
        direct call).

        Re-entrancy audit (the service start below is inline in the
        caller's frame, which may be a handler's call chain): it is safe
        because starting service never executes user code — it pops,
        records the wait, and posts ``_finish``. And while this agent's
        own ``handle()`` is running (inside ``_finish``), ``_busy`` is
        still True, so a self-``enqueue`` from the handler only joins
        the queue; the assertion guards that argument. Routing the kick
        through ``sim.post_at`` instead would insert an extra same-time
        event and reorder seeded schedules.
        """
        sim = self.sim
        now = sim.now
        if self._parked:
            seq = getattr(message, "seq", -1)
            if seq < 0:
                self.queue_depth  # a direct call reads as a reader
            else:
                self._admit_parked(now, seq)
        message.queued_at = now
        if not self._join((message,)):
            return
        pending = self._pending
        if self._busy:
            if message is pending:
                self._pending = None
            self._end += self.service_time_s
            return
        assert not self._in_handle, \
            f"{self.name}: re-entrant service start during handle()"
        self._busy = True
        message = self._queue.popleft()
        service = self.service_time_s
        if message is pending:
            self._pending = None  # _end already chains what parked
        else:
            self._end = now + service
            parked = self._parked
            self._floor = parked[-1].queued_at if parked else now
        self._m_wait.observe(now - message.queued_at)
        seq = self._finish_seq = next(sim.seq)
        sim.post_keyed(now + service, seq, self._finish_cb, message)

    # -- overload protection ---------------------------------------------------

    def _admit(self, message: ControlMessage, policy: OverloadPolicy) -> bool:
        """Apply admission control and shedding; True if ``message`` may
        join the queue (which is then guaranteed below ``queue_limit``)."""
        queue = self._queue
        payload = message.payload
        limit = policy.admission_limit
        if (limit is not None and isinstance(payload, AttachRequest)
                and len(queue) + (1 if self._busy else 0) >= limit):
            # refuse new work before it costs service time; subclasses
            # with a reply path send the T3346-style congestion reject
            self._shed(message, "congestion")
            self._send_congestion_reject(message,
                                         policy.congestion_backoff_s)
            return False
        if len(queue) < policy.queue_limit:
            return True
        if policy.shed == "deadline":
            horizon = self.sim.now - policy.deadline_s
            stale = [m for m in queue if m.queued_at < horizon]
            for dead in stale:
                queue.remove(dead)
                self._shed(dead, "deadline")
            if len(queue) < policy.queue_limit:
                return True
        elif policy.shed == "priority":
            incoming = message_class(payload)
            if incoming < CLASS_NEW_WORK:
                # evict the youngest lowest-priority message iff it is
                # strictly less important than the arrival
                victim_idx, victim_class = -1, incoming
                for idx, queued in enumerate(queue):
                    cls = message_class(queued.payload)
                    if cls >= victim_class:
                        victim_idx, victim_class = idx, cls
                if victim_idx >= 0 and victim_class > incoming:
                    victim = queue[victim_idx]
                    del queue[victim_idx]
                    self._shed(victim, "priority")
                    return True
        self._shed(message, "queue-full")
        return False

    def _shed(self, message: ControlMessage, cause: str) -> None:
        """Account one dropped message (never silently)."""
        self.shed += 1
        by_cause = self.shed_by_cause
        by_cause[cause] = by_cause.get(cause, 0) + 1
        sim = self.sim
        sim.agents_shed += 1
        counter = self._m_shed.get(cause)
        if counter is None:
            counter = sim.metrics.counter("epc.agent.shed", agent=self.name,
                                          cause=cause)
            self._m_shed = {**self._m_shed, cause: counter}
        counter.inc()
        sim.trace("overload", f"{self.name}: shed "
                  f"{type(message.payload).__name__}", cause=cause)

    def _shed_queue(self, cause: str) -> int:
        """Shed every waiting message (e.g. a crash); returns the count.
        Arrivals not yet due stay arrivals: they are posted."""
        self._unpark()
        queue = self._queue
        n = len(queue)
        while queue:
            self._shed(queue.popleft(), cause)
        return n

    def _send_congestion_reject(self, message: ControlMessage,
                                backoff_s: float) -> None:
        """Tell the refused UE when to retry; base agents have no reply
        path, so this is a hook for MME/stub overrides."""

    # -- serving ---------------------------------------------------------------

    def _finish(self, message: ControlMessage) -> None:
        """Service completion: what arrived before this event joins the
        queue, ``handle`` runs, and the next message starts service."""
        sim = self.sim
        if self._parked:
            self._admit_parked(sim.now, self._finish_seq)
        service = self.service_time_s
        self.busy_time_s += service
        self.processed += 1
        self._in_handle = True
        try:
            self.handle(message)
        finally:
            self._in_handle = False
        queue = self._queue
        if not queue:
            # the busy period ends now, and ``_end`` never exceeded it;
            # an arrival already posted starts the next one
            self._busy = False
            pending = self._pending
            if pending is not None:
                self._end = pending.queued_at + service
                parked = self._parked
                self._floor = (parked[-1].queued_at if parked
                               else pending.queued_at)
            return
        message = queue.popleft()
        now = sim.now
        self._m_wait.observe(now - message.queued_at)
        seq = self._finish_seq = next(sim.seq)
        sim.post_keyed(now + service, seq, self._finish_cb, message)

    # -- readers: each first admits the parked arrivals due by now -------------

    @property
    def queue_depth(self) -> int:
        """Messages currently waiting (excluding the one in service)."""
        if self._parked:
            self._admit_parked(*self.sim.ran_below())
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Messages accepted but not yet fully served: the waiting queue
        plus the one in service (conservation-law term)."""
        return self.queue_depth + (1 if self._busy else 0)

    @property
    def enqueued(self) -> int:
        """Every message offered to (and accepted into) this agent's
        bookkeeping, including ones later shed."""
        self.queue_depth  # a touch
        return self._enqueued

    @enqueued.setter
    def enqueued(self, count: int) -> None:
        self._enqueued = count

    @property
    def peak_queue_depth(self) -> int:
        """Deepest the queue has been."""
        self.queue_depth  # a touch
        return self._peak

    @property
    def _queue_gauge(self) -> Optional[Tuple[int, int, int, int]]:
        """``epc.agent.queue_depth`` as the registry reads it.

        The gauge used to be set after every change to the queue: each
        append in ``enqueue`` (depth after it), each pop that starts
        service and each removal that sheds (depth after it). So it was
        never set before the first append; after that its value is the
        depth now, its min 0 (the first append found the agent idle, and
        the pop that followed left the queue empty) and its max the
        deepest the queue has been, since only an append raises it.
        Stamped queues order same-named agents' readings.
        """
        depth = self.queue_depth
        if not self._peak:
            return None
        return depth, 0, self._peak, getattr(self._queue, "stamp", 0)

    def utilization(self, elapsed_s: float) -> float:
        """Fraction of elapsed time spent processing."""
        return self.busy_time_s / elapsed_s if elapsed_s > 0 else 0.0

    def handle(self, message: ControlMessage) -> None:
        """Process one message; override in concrete agents."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} q={len(self._queue)}>"


class ControlChannel:
    """A fixed-latency pipe between two agents, with byte accounting.

    A channel can be taken down (fault injection): while ``up`` is False
    every message offered in either direction is silently dropped and
    counted, which is how a severed S1/X2 path behaves from the control
    plane's point of view — requests just never come back.
    """

    def __init__(self, sim: Simulator, a: ControlAgent, b: ControlAgent,
                 one_way_delay_s: float, name: str = "") -> None:
        if one_way_delay_s < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.ends: Tuple[ControlAgent, ControlAgent] = (a, b)
        self.one_way_delay_s = one_way_delay_s
        self.name = name or f"{a.name}<->{b.name}"
        self.up = True
        self.messages = 0
        self.bytes = 0
        self.dropped = 0
        sim.metrics.mirror(self, CHANNEL_LEDGER, channel=self.name)

    def set_up(self, up: bool) -> None:
        """Raise or cut the channel (both directions)."""
        if up != self.up:
            self.sim.trace("fault",
                           f"channel {self.name} {'up' if up else 'down'}")
        self.up = up

    def other_end(self, agent: ControlAgent) -> ControlAgent:
        """The peer of ``agent`` on this channel."""
        a, b = self.ends
        if agent is a:
            return b
        if agent is b:
            return a
        raise ValueError(f"{agent.name} is not an end of channel {self.name}")

    def send(self, sender: ControlAgent, payload: object) -> None:
        """Deliver ``payload`` to the other end after the channel delay."""
        a, b = self.ends
        if sender is a:
            receiver = b
        elif sender is b:
            receiver = a
        else:
            raise ValueError(
                f"{sender.name} is not an end of channel {self.name}")
        if not self.up:
            self.dropped += 1
            self.sim.trace("drop", f"channel {self.name}: down",
                           payload=type(payload).__name__)
            return
        self.messages += 1
        self.bytes += getattr(payload, "size_bytes", 0)
        now = self.sim.now
        receiver._arrive(ControlMessage(payload, sender, now,
                                        now + self.one_way_delay_s))
