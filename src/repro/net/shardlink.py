"""Shard-boundary proxies: control channels and data links that cross shards.

A sharded run (:mod:`repro.simcore.sharded`) keeps every component's
event in its own shard's heap. The two ways traffic leaves a shard are a
control-plane channel (S1/X2 style, :class:`CrossShardChannel`) and a
data-plane link (backhaul, :class:`CrossShardLink`). Both present the
exact local API of their monolithic counterparts
(:class:`~repro.epc.agents.ControlChannel`, :class:`~repro.net.links.Link`)
and differ only in where a send lands: instead of scheduling the remote
delivery into a heap they cannot see, they hand the payload to the shard
boundary, which releases it at the next window barrier.

Co-location contract: when both halves of a proxy pair live in the *same*
shard (always true at ``shards=1``), the boundary short-circuits to a
plain ``post_at`` into the local heap, and the channel resolves its real
peer agent — timings, sender identities, and counters match the
monolithic classes exactly. That is what makes ``shards=1`` the
monolithic run rather than an approximation of it.

Latency rule: a *cross*-shard proxy's one-way delay is a lookahead
declaration — it must be strictly positive (the façade raises
:class:`~repro.simcore.sharded.ZeroLookaheadError` otherwise), because the
window length is the minimum such delay. Co-located proxies may use any
non-negative delay; they never constrain the window.
"""

from __future__ import annotations

from typing import Optional

from repro.epc.agents import CHANNEL_LEDGER, ControlAgent, ControlMessage
from repro.net.links import Link
from repro.net.packet import Packet
from repro.simcore.sharded import ShardBoundary
from repro.simcore.simulator import Simulator

__all__ = [
    "CrossShardChannel",
    "CrossShardLink",
    "CrossShardLinkExit",
    "RemoteAgentStub",
]

_INF = float("inf")


class RemoteAgentStub:
    """Stands in for an agent that lives in another shard.

    Control agents route on ``message.sender.name`` (and eNB relays on
    sender *identity* versus ``channel.other_end``), so the stub carries
    the remote agent's name and is the object the local half returns
    from :meth:`CrossShardChannel.other_end` — identity checks against
    it therefore behave exactly like checks against the real peer.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<RemoteAgentStub {self.name}>"


class CrossShardChannel:
    """Half of a control channel whose peer may live in another shard.

    Unlike :class:`~repro.epc.agents.ControlChannel` (one object, two
    ends), a cross-shard channel is built as **two halves sharing a
    name** — one per shard, each wrapping its local agent. The halves
    find each other through the boundary endpoint registry: keys are
    ``"{name}@{agent_name}"``, so a half addresses its peer without ever
    holding a reference into the other shard.

    The local API mirrors ``ControlChannel``: ``send``/``other_end``/
    ``set_up``/``up`` plus the ``messages``/``bytes``/``dropped``
    counters and ``epc.channel.*`` metrics. ``set_up`` acts on *this*
    half only — to sever a cross-shard path both halves must be cut
    (each direction's drop happens at its sender).
    """

    def __init__(self, sim: Simulator, boundary: ShardBoundary,
                 local_agent: ControlAgent, remote_agent_name: str,
                 remote_shard: int, one_way_delay_s: float,
                 name: str = "") -> None:
        if one_way_delay_s < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.boundary = boundary
        self.local_agent = local_agent
        self.remote_agent_name = remote_agent_name
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

    def set_up(self, up: bool) -> None:
        """Raise or cut this half (drops happen at the sending side)."""
        if up != self.up:
            self.sim.trace("fault",
                           f"channel {self.name} {'up' if up else 'down'}")
        self.up = up

    def other_end(self, agent: ControlAgent) -> object:
        """The peer of ``agent``: the real agent if co-located, else a stub."""
        if agent is not self.local_agent:
            raise ValueError(
                f"{agent.name} is not an end of channel {self.name}")
        peer = self.boundary.endpoints.get(self.peer_key)
        if peer is not None:
            return peer.local_agent
        return self._stub

    def send(self, sender: ControlAgent, payload: object) -> None:
        """Deliver ``payload`` to the remote half after the channel delay."""
        if sender is not self.local_agent:
            raise ValueError(
                f"{sender.name} is not the local end of channel {self.name}")
        if not self.up:
            self.dropped += 1
            self.sim.trace("drop", f"channel {self.name}: down",
                           payload=type(payload).__name__)
            return
        self.messages += 1
        size = getattr(payload, "size_bytes", 0)
        self.bytes += size
        sim = self.sim
        sent_at = sim.now
        deliver_at = sent_at + self.one_way_delay_s
        peer = self.boundary.endpoints.get(self.peer_key)
        if peer is not None:
            # Co-located: same single delivery event a ControlChannel
            # posts, with the *real* sender so identity routing holds.
            message = ControlMessage(payload=payload, sender=sender,
                                     sent_at=sent_at)
            sim.post_at(deliver_at, peer._deliver_local, message)
        else:
            self.boundary.buffer(self.peer_key, self.remote_shard,
                                 deliver_at, sent_at, payload)

    def _deliver_local(self, message: ControlMessage) -> None:
        """Ingress from a co-located peer half."""
        self.received += 1
        self.local_agent.enqueue(message)

    def _deliver_remote(self, payload: object, sent_at: float) -> None:
        """Ingress from the boundary: wrap with the remote sender's stub."""
        self.received += 1
        self.local_agent.enqueue(ControlMessage(payload=payload,
                                                sender=self._stub,
                                                sent_at=sent_at))


class CrossShardLink(Link):
    """A data link whose receiving end lives in (possibly) another shard.

    Serialization, drop-tail queueing, loss, and up/down behave exactly
    like :class:`~repro.net.links.Link` — the subclass replaces only the
    propagation stage: instead of a local flight deque and receive
    callback, a serialized packet is handed to the shard boundary with
    its arrival deadline ``service_done + delay_s``, and a
    :class:`CrossShardLinkExit` registered in the destination shard
    delivers it. ``delivered``/``delivered_bytes``/``crossed`` count at
    the hand-off (the packet has left this shard's books and the flight
    stays empty, so the link's own packet and byte ledgers close there);
    the exit's ``received`` counts arrivals, and the pair closes the
    cross-boundary conservation law the E19 invariant audit checks::

        crossed == exit.received + records still pending at the horizon

    Divergence from ``Link``, by design: taking the link down mid-window
    does not destroy packets that already crossed the boundary (they are
    beyond this shard's reach), whereas a monolithic link drops its
    whole flight. :meth:`set_aqm` raises: no caller wants a discipline
    on a cross-shard link, so none has been tested on one.
    """

    def __init__(self, sim: Simulator, boundary: ShardBoundary,
                 rate_bps: float, delay_s: float, dst_shard: int,
                 queue_packets: int = 100, name: str = "xlink") -> None:
        super().__init__(sim, rate_bps, delay_s, queue_packets, name)
        self.boundary = boundary
        self.dst_shard = dst_shard
        self.exit_key = f"{name}@exit"
        self.crossed = 0
        # send() requires a receiver; the boundary is ours.
        self.receiver = self._boundary_receiver
        boundary.couple(name, dst_shard, delay_s)

    @staticmethod
    def _boundary_receiver(packet: Packet) -> None:  # pragma: no cover
        raise RuntimeError("cross-shard link delivers via the boundary")

    def set_aqm(self, discipline) -> None:
        raise NotImplementedError(
            "AQM is not supported on cross-shard links: no experiment "
            "puts a discipline on one, so none has been tested there")

    def connect(self, receiver) -> None:
        raise NotImplementedError(
            "cross-shard links deliver through a CrossShardLinkExit in "
            "the destination shard, not a local receiver")

    def send_at(self, at: float, packet: Packet) -> None:
        """Post the send itself: this link's wake-ups do not drain a
        flight (delivery is the boundary's), so nothing would admit a
        deferred offer on time."""
        self.offers_admitted += 1  # handed to the heap, never pending
        self.sim.post_at(at, self.send, packet)

    def _start_service(self, start: float, packet: Packet) -> None:
        size = packet.size_bytes
        rate = self.rate_bps
        done = start + (size * 8.0 / rate if rate != _INF else 0.0)
        self._service_done = done
        self.bytes_sent += size
        # The packet leaves this shard's books at the end of
        # serialization: delivered-at-the-boundary, not at the receiver.
        self.delivered += 1
        self.delivered_bytes += size
        self.crossed += 1
        self.boundary.buffer(self.exit_key, self.dst_shard,
                             done + self.delay_s, start, packet)
        if rate != _INF:
            # One promotion wake-up per serialized packet, so a queued
            # packet starts service the instant the serializer frees
            # (the base class reuses its delivery wake-up for this, but
            # delivery now happens in another shard).
            self.sim.post_at(done, self._promote)

    def _promote(self) -> None:
        self._advance(self.sim.now)


class CrossShardLinkExit:
    """Receiving end of a :class:`CrossShardLink`, in the destination shard.

    Registers under ``"{link_name}@exit"`` and forwards arriving packets
    to the local receive callback at their deadline. ``received`` /
    ``received_bytes`` close the conservation audit with the link's
    ``crossed`` counter.
    """

    __slots__ = ("sim", "name", "receiver", "received", "received_bytes")

    def __init__(self, sim: Simulator, boundary: ShardBoundary, name: str,
                 receiver) -> None:
        self.sim = sim
        self.name = name
        self.receiver = receiver
        self.received = 0
        self.received_bytes = 0
        boundary.register(f"{name}@exit", self)

    def _deliver_remote(self, packet: Packet, sent_at: float) -> None:
        self.received += 1
        self.received_bytes += packet.size_bytes
        self.receiver(packet)
