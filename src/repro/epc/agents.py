"""Control-plane execution model: serial agents and delayed channels.

Control-plane entities (MME, HSS, gateways, stubs) are *serial
processors*: each inbound message waits in a FIFO and then occupies the
agent for a per-message service time. This is what makes centralization
measurable — one MME shared by 200 APs saturates under an attach storm
(queueing delay explodes), while 200 independent stubs do not (§4.1:
"each stub can be independent of others, so the one stub per site model
naturally scales").

A :class:`ControlChannel` connects two agents with a fixed one-way
latency and counts bytes, giving E7/E9 their control-load numbers
without dragging the full IP substrate into the control plane.

Queues are unbounded by default (the seed's infinite-patience model);
installing an :class:`~repro.epc.overload.OverloadPolicy` via
:meth:`ControlAgent.configure_overload` bounds the queue and sheds per
policy. Every offer and every shed is counted — ``enqueued``,
``processed``, ``shed``, ``shed_by_cause`` — so the control-plane
conservation law ``enqueued == processed + shed + in_flight`` holds at
every event boundary (see ``InvariantChecker.watch_agent``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple
from collections import deque

from repro.epc.nas import AttachRequest
from repro.epc.overload import CLASS_NEW_WORK, OverloadPolicy, message_class
from repro.simcore.simulator import Simulator


#: a channel's ledger attributes as exported ``epc.channel.*`` counters
#: (``MetricsRegistry.mirror``); shared with
#: :class:`repro.net.shardlink.CrossShardChannel`, whose halves keep
#: the same three
CHANNEL_LEDGER = (
    ("messages", "epc.channel.messages", {}),
    ("bytes", "epc.channel.bytes", {}),
    ("dropped", "epc.channel.dropped", {}),
)


@dataclass(slots=True)
class ControlMessage:
    """Envelope: a NAS/S1AP/GTP-C payload plus reply routing."""

    payload: object
    sender: "ControlAgent"
    sent_at: float = 0.0
    queued_at: float = 0.0


class ControlAgent:
    """A named serial message processor.

    Subclasses implement :meth:`handle`. Metrics: messages processed,
    busy time, and peak queue depth — E7 reports all three.
    """

    #: ``processed`` is exported as it stands, read when telemetry is
    #: read (``MetricsRegistry.mirror``)
    _LEDGER = (("processed", "epc.agent.processed", {}),)

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
        self.peak_queue_depth = 0
        #: conservation ledger: every message offered to (and accepted
        #: into) this agent's bookkeeping, including ones later shed.
        self.enqueued = 0
        self.shed = 0
        self.shed_by_cause: Dict[str, int] = {}
        #: bounded-queue policy; None (the default) keeps the seed's
        #: unbounded infinite-patience behavior byte for byte.
        self.overload: Optional[OverloadPolicy] = None
        sim.metrics.mirror(self, self._LEDGER, agent=name)
        self._m_queue = sim.metrics.gauge("epc.agent.queue_depth", agent=name)
        self._m_wait = sim.metrics.histogram("epc.agent.queue_wait_s",
                                             agent=name)
        if sim.checker is not None:
            sim.checker.watch_agent(self)

    def configure_overload(self, policy: Optional[OverloadPolicy]) -> None:
        """Install (or clear) a bounded-queue/shedding policy."""
        self.overload = policy

    def enqueue(self, message: ControlMessage) -> None:
        """Accept an inbound message (called by channels).

        Re-entrancy audit (the kick-off below is a *direct* call): when
        the queue is idle, ``_serve_next()`` runs synchronously inside
        the caller's frame — which may be a handler's call chain. This
        is safe because ``_serve_next`` never executes user code: it
        only pops, records the wait, and posts ``_finish`` through
        ``sim.post_at``. And while this agent's own ``handle()`` is
        running (inside ``_finish``), ``_busy`` is still True, so a
        self-``enqueue`` from the handler can never re-enter
        ``_serve_next``; the assertion there guards that argument.
        Routing the kick through ``sim.post_at`` instead would insert
        an extra same-time event and reorder seeded schedules.
        """
        message.queued_at = self.sim.now
        self.enqueued += 1
        queue = self._queue
        policy = self.overload
        if policy is not None and not self._admit(message, policy):
            return
        queue.append(message)
        depth = len(queue)
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth
            sim = self.sim
            if depth > sim.agent_peak_queue:
                sim.agent_peak_queue = depth
        self._m_queue.set(depth)
        if not self._busy:
            self._serve_next()

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
            if stale:
                for dead in stale:
                    queue.remove(dead)
                    self._shed(dead, "deadline")
                self._m_queue.set(len(queue))
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
                    self._m_queue.set(len(queue))
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
        sim.metrics.counter("epc.agent.shed", agent=self.name,
                            cause=cause).inc()
        sim.trace("overload", f"{self.name}: shed "
                  f"{type(message.payload).__name__}", cause=cause)

    def _shed_queue(self, cause: str) -> int:
        """Shed every waiting message (e.g. a crash); returns the count."""
        queue = self._queue
        n = len(queue)
        while queue:
            self._shed(queue.popleft(), cause)
        if n:
            self._m_queue.set(0)
        return n

    def _send_congestion_reject(self, message: ControlMessage,
                                backoff_s: float) -> None:
        """Tell the refused UE when to retry; base agents have no reply
        path, so this is a hook for MME/stub overrides."""

    # -- serving ---------------------------------------------------------------

    def _serve_next(self) -> None:
        assert not self._in_handle, \
            f"{self.name}: re-entrant _serve_next during handle()"
        queue = self._queue
        if not queue:
            self._busy = False
            return
        self._busy = True
        message = queue.popleft()
        self._m_queue.set(len(queue))
        sim = self.sim
        self._m_wait.observe(sim.now - message.queued_at)
        sim.post_at(sim.now + self.service_time_s, self._finish, message)

    def _finish(self, message: ControlMessage) -> None:
        self.busy_time_s += self.service_time_s
        self.processed += 1
        self._in_handle = True
        try:
            self.handle(message)
        finally:
            self._in_handle = False
        self._serve_next()

    @property
    def queue_depth(self) -> int:
        """Messages currently waiting (excluding the one in service)."""
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Messages accepted but not yet fully served: the waiting queue
        plus the one in service (conservation-law term)."""
        return len(self._queue) + (1 if self._busy else 0)

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
        receiver = self.other_end(sender)
        if not self.up:
            self.dropped += 1
            self.sim.trace("drop", f"channel {self.name}: down",
                           payload=type(payload).__name__)
            return
        self.messages += 1
        size = getattr(payload, "size_bytes", 0)
        self.bytes += size
        sim = self.sim
        message = ControlMessage(payload=payload, sender=sender,
                                 sent_at=sim.now)
        sim.post_at(sim.now + self.one_way_delay_s, receiver.enqueue, message)
