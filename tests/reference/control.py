"""Test oracle: the control plane as one heap event per arrival.

Frozen copies of the ``ControlAgent`` / ``ControlChannel`` bodies as
they ran before the queue-depth gauge was read at export: a channel
send posts an arrival event that calls ``enqueue``; ``enqueue`` sets
``queued_at`` and the ``epc.agent.queue_depth`` gauge and kicks
``_serve_next``, which pops, sets the gauge again, observes the wait
and posts ``_finish``. Production keeps the same events, with the
service start inline and the gauge read when telemetry is read.

Production must match these bit for bit; ``test_control_twin.py`` runs
random agent graphs through both, and ``test_shard_edge_twin.py`` runs
sharded ones with :class:`ReferenceCrossShardChannel` at the boundary.
Build a graph from these classes only.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.epc.agents import CHANNEL_LEDGER, ControlMessage
from repro.epc.nas import AttachRequest
from repro.epc.overload import CLASS_NEW_WORK, OverloadPolicy, message_class
from repro.net.shardlink import RemoteAgentStub
from repro.simcore.simulator import Simulator
from repro.telemetry.registry import Counter

_NO_SHEDS: Dict[str, Counter] = {}


class ReferenceAgent:
    """``ControlAgent`` with one arrival event per message and a queue
    gauge set on every change."""

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
        self.enqueued = 0
        self.shed = 0
        self.shed_by_cause: Dict[str, int] = {}
        self.overload: Optional[OverloadPolicy] = None
        sim.metrics.mirror(self, self._LEDGER, agent=name)
        self._m_queue = sim.metrics.gauge("epc.agent.queue_depth", agent=name)
        self._m_wait = sim.metrics.histogram("epc.agent.queue_wait_s",
                                             agent=name)
        self._m_shed: Dict[str, Counter] = _NO_SHEDS

    def configure_overload(self, policy: Optional[OverloadPolicy]) -> None:
        self.overload = policy

    def enqueue(self, message: ControlMessage) -> None:
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

    def _admit(self, message: ControlMessage, policy: OverloadPolicy) -> bool:
        queue = self._queue
        payload = message.payload
        limit = policy.admission_limit
        if (limit is not None and isinstance(payload, AttachRequest)
                and len(queue) + (1 if self._busy else 0) >= limit):
            self._shed(message, "congestion")
            self._send_congestion_reject(message,
                                         policy.congestion_backoff_s)
            return False
        if len(queue) < policy.queue_limit:
            return True
        incoming = message_class(payload)
        if incoming < CLASS_NEW_WORK:
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
        queue = self._queue
        n = len(queue)
        while queue:
            self._shed(queue.popleft(), cause)
        if n:
            self._m_queue.set(0)
        return n

    def _send_congestion_reject(self, message: ControlMessage,
                                backoff_s: float) -> None:
        pass

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
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        return len(self._queue) + (1 if self._busy else 0)

    def handle(self, message: ControlMessage) -> None:
        raise NotImplementedError


class ReferenceChannel:
    """``ControlChannel`` posting one arrival event per message."""

    def __init__(self, sim: Simulator, a: ReferenceAgent, b: ReferenceAgent,
                 one_way_delay_s: float, name: str = "") -> None:
        if one_way_delay_s < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.ends: Tuple[ReferenceAgent, ReferenceAgent] = (a, b)
        self.one_way_delay_s = one_way_delay_s
        self.name = name or f"{a.name}<->{b.name}"
        self.up = True
        self.messages = 0
        self.bytes = 0
        self.dropped = 0
        sim.metrics.mirror(self, CHANNEL_LEDGER, channel=self.name)

    def set_up(self, up: bool) -> None:
        if up != self.up:
            self.sim.trace("fault",
                           f"channel {self.name} {'up' if up else 'down'}")
        self.up = up

    def other_end(self, agent: ReferenceAgent) -> ReferenceAgent:
        a, b = self.ends
        if agent is a:
            return b
        if agent is b:
            return a
        raise ValueError(f"{agent.name} is not an end of channel {self.name}")

    def send(self, sender: ReferenceAgent, payload: object) -> None:
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


class ReferenceCrossShardChannel:
    """``CrossShardChannel`` delivering through one event per arrival:
    the co-located peer's ``_deliver_local`` posted at send, a record's
    ``_deliver_remote`` posted when the boundary hands it over."""

    def __init__(self, sim: Simulator, boundary, local_agent: ReferenceAgent,
                 remote_agent_name: str, remote_shard: int,
                 one_way_delay_s: float, name: str = "") -> None:
        if one_way_delay_s < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.boundary = boundary
        self.local_agent = local_agent
        self.remote_shard = remote_shard
        self.one_way_delay_s = one_way_delay_s
        self.name = name or f"{local_agent.name}<->{remote_agent_name}"
        self.key = f"{self.name}@{local_agent.name}"
        self.peer_key = f"{self.name}@{remote_agent_name}"
        self.up = True
        self.messages = 0
        self.bytes = 0
        self.dropped = 0
        self.received = 0
        self._stub = RemoteAgentStub(remote_agent_name)
        sim.metrics.mirror(self, CHANNEL_LEDGER, channel=self.name)
        boundary.register(self.key, self)
        boundary.couple(self.name, remote_shard, one_way_delay_s)

    def send(self, sender: ReferenceAgent, payload: object) -> None:
        if sender is not self.local_agent:
            raise ValueError(
                f"{sender.name} is not the local end of channel {self.name}")
        if not self.up:
            self.dropped += 1
            return
        self.messages += 1
        self.bytes += getattr(payload, "size_bytes", 0)
        sim = self.sim
        sent_at = sim.now
        deliver_at = sent_at + self.one_way_delay_s
        peer = self.boundary.endpoints.get(self.peer_key)
        if peer is not None:
            message = ControlMessage(payload=payload, sender=sender,
                                     sent_at=sent_at)
            sim.post_at(deliver_at, peer._deliver_local, message)
        else:
            self.boundary.buffer(self.peer_key, self.remote_shard,
                                 deliver_at, sent_at, payload)

    def _deliver_local(self, message: ControlMessage) -> None:
        self.received += 1
        self.local_agent.enqueue(message)

    def _accept(self, deliver_at: float, payload: object,
                sent_at: float) -> None:
        self.sim.post_at(deliver_at, self._deliver_remote, payload, sent_at)

    def _deliver_remote(self, payload: object, sent_at: float) -> None:
        self.received += 1
        self.local_agent.enqueue(ControlMessage(payload=payload,
                                                sender=self._stub,
                                                sent_at=sent_at))
