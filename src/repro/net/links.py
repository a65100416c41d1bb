"""Point-to-point links with rate, delay, drop-tail queues, and faults.

A link is the unit of backhaul modelling: the AP's Internet uplink, the
S1 path to a carrier EPC, the X2 path between peers. Serialization time
(size/rate) plus propagation delay plus queueing; a finite queue drops
from the tail, which is where a constrained backhaul bites (E18). A CoDel
discipline (:mod:`repro.net.aqm`) may be installed on top at any time;
without one the same admission path is plain drop-tail. A link draws no
random numbers: every verdict depends on time and queue state alone.

Links also carry the fault state the resilience experiments (E16) need:
an ``up`` flag (a down link drops everything offered to it and loses
whatever was queued or in flight). Drops are accounted *by cause* —
``dropped_overflow`` vs ``dropped_down`` vs ``dropped_aqm`` — so
congestion can be told apart from failure, and every link keeps the
conservation law in packets and in bytes::

    offered       == delivered       + dropped       + in_flight
    offered_bytes == delivered_bytes + dropped_bytes + in_flight_bytes

``in_flight``/``in_flight_bytes`` are read off the queue and the flight
themselves, so the law compares counters with real contents: a packet
popped and never counted shows up as a leak.

Datapath fast lane (see PERFORMANCE.md): the link no longer schedules
two heap events per packet (serialization done + delivery). Because the
propagation delay is a per-link constant and serialization completions
are monotone, deliveries happen in send order — so a busy link keeps a
single live wake-up event aimed at the head of its in-flight deque and
drains every delivery that is due when it fires. Service completions
are pure float arithmetic (``done += tx``; ``deliver = done + delay``),
identical to the times the old per-event chain produced, and queued
packets are promoted into service *lazily* whenever the link is
touched. Net effect: one heap event per delivery instead of two per
packet, with byte-identical delivery times.

Routers extend the argument one stage upstream: a forwarding hop is not
an event but an *offer* for a future instant (:meth:`Link.send_at`),
admitted lazily, in order, as of its own time, before anything else
reads or changes the link — a transit hop on an idle link is a single
wake-up aimed at the packet's delivery.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.net.aqm import DROP, PASS, CoDelDiscipline
from repro.net.packet import ECN_CE, ECN_ECT, Packet
from repro.simcore.simulator import Simulator
from repro.telemetry.registry import Gauge

_INF = float("inf")
#: a link's three buffers until its first send: reads as empty, and an
#: ``append`` on it fails loudly. Most links (an attach storm's S1 and
#: X2 paths) never carry a packet, so they never pay for three deques.
_NONE: tuple = ()


class Link:
    """Unidirectional link delivering packets to a receive callback.

    Args:
        sim: the event kernel.
        rate_bps: serialization rate; ``float('inf')`` for ideal links.
        delay_s: propagation delay.
        queue_packets: drop-tail queue capacity (packets awaiting
            serialization); the packet in service is not counted.
        name: for hop recording and diagnostics.
    """

    #: every field is a slot: past 30 attributes an instance dict
    #: stops sharing its keys with the class and costs ~1.6 kB per link
    __slots__ = (
        "sim", "rate_bps", "delay_s", "queue_packets", "name",
        "receiver", "_egress", "_egress_bytes", "_flight",
        "_service_done", "_offers", "offers_admitted", "_wakeup_at",
        "_wake", "_post_at", "up", "offered", "delivered", "dropped",
        "dropped_overflow", "dropped_down", "dropped_aqm", "marked_ecn",
        "bytes_sent", "offered_bytes", "delivered_bytes",
        "dropped_bytes", "_aqm", "_aqm_mirrored", "_queue_peak",
        "__weakref__")

    #: ledger attributes exported as ``net.link.*`` counters, and the
    #: ``net.link.queue_depth`` gauge read from :attr:`_queue_gauge`:
    #: read off the link when telemetry is read
    #: (``MetricsRegistry.mirror``), so no packet pays for a second copy
    _LEDGER = (
        ("delivered", "net.link.delivered", {}),
        ("bytes_sent", "net.link.bytes_sent", {}),
        ("dropped_overflow", "net.link.dropped", {"cause": "overflow"}),
        ("dropped_down", "net.link.dropped", {"cause": "down"}),
        ("_queue_gauge", "net.link.queue_depth", {}, Gauge),
    )
    #: joined by the first discipline installed: exports of a link that
    #: never had one carry no aqm / ecn_marked rows
    _AQM_LEDGER = (
        ("dropped_aqm", "net.link.dropped", {"cause": "aqm"}),
        ("marked_ecn", "net.link.ecn_marked", {}),
    )

    def __init__(self, sim: Simulator, rate_bps: float, delay_s: float,
                 queue_packets: int = 100, name: str = "link") -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive (use inf for ideal)")
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        if queue_packets < 1:
            raise ValueError("queue must hold at least one packet")
        self.sim = sim
        self.rate_bps = rate_bps
        self.delay_s = delay_s
        self.queue_packets = queue_packets
        self.name = name
        self.receiver: Optional[Callable[[Packet], None]] = None
        #: packets waiting for the serializer (the drop-tail queue) as
        #: (enqueued_at, packet) — sojourn-time AQM reads the stamp —
        #: and their total size. This and the next two are ``_NONE``
        #: until :meth:`_open`.
        self._egress: Deque[Tuple[float, Packet]] = _NONE
        self._egress_bytes = 0
        #: serialized packets in propagation: (deliver_at, packet),
        #: deliver_at monotone because delay is a per-link constant
        self._flight: Deque[Tuple[float, Packet]] = _NONE
        #: when the packet currently in service finishes serializing;
        #: the link is busy iff this is in the future
        self._service_done = 0.0
        #: deferred sends (at, packet) from :meth:`send_at`, ``at``
        #: monotone; admitted lazily by :meth:`_admit_due`
        self._offers: Deque[Tuple[float, Packet]] = _NONE
        self.offers_admitted = 0
        #: earliest time a live wake-up is aimed at (inf: none), never
        #: later than the next possible delivery. Wake-ups are never
        #: cancelled (handle-free fast path); a stale one is absorbed.
        self._wakeup_at = _INF
        # fault state
        self.up = True
        # counters; ``dropped`` is the running total across all causes.
        # With ``in_flight`` they close the conservation law the
        # invariant checker audits at any instant, in packets and bytes.
        self.offered = 0
        self.delivered = 0
        self.dropped = 0
        self.dropped_overflow = 0
        self.dropped_down = 0
        self.dropped_aqm = 0
        self.marked_ecn = 0
        self.bytes_sent = 0
        self.offered_bytes = 0
        self.delivered_bytes = 0
        self.dropped_bytes = 0
        #: the deepest the egress queue has been (0: never queued)
        self._queue_peak = 0
        self._aqm: Optional[CoDelDiscipline] = None
        self._aqm_mirrored = False
        sim.metrics.mirror(self, self._LEDGER, link=name)
        if sim.checker is not None:
            sim.checker.watch_link(self)

    def connect(self, receiver: Callable[[Packet], None]) -> None:
        """Attach the downstream receive function."""
        if receiver is None:
            raise ValueError(f"link {self.name!r} cannot connect to None")
        self.receiver = receiver

    def _open(self) -> None:
        """First send: the link must lead somewhere, and gets its buffers
        and its wake-up."""
        if self.receiver is None:
            raise RuntimeError(f"link {self.name!r} has no receiver connected")
        self._egress = deque()
        self._flight = deque()
        self._offers = deque()
        #: the wake-up and the kernel's post, bound once: ``self._drain``
        #: read per post would build a bound method per post
        self._wake = self._drain
        self._post_at = self.sim.post_at

    # -- AQM / ECN ---------------------------------------------------------

    def set_aqm(self, discipline: Optional[CoDelDiscipline]) -> None:
        """Install a CoDel discipline, or ``None`` for plain drop-tail.

        Legal at any time: whatever was due or in service by now was
        judged by the previous discipline, and a packet already queued
        carries its enqueue time, so the new one sees its true sojourn.
        """
        now = self.sim.now
        self._admit_due(now)
        self._advance(now)
        self._aqm = discipline
        if discipline is not None and not self._aqm_mirrored:
            self._aqm_mirrored = True
            self.sim.metrics.mirror(self, self._AQM_LEDGER, link=self.name)

    def _mark(self, packet: Packet) -> bool:
        """CE-mark an ECT packet; False means the caller must drop."""
        if packet.ecn != ECN_ECT:
            return False
        packet.ecn = ECN_CE
        self.marked_ecn += 1
        self.sim.ecn_marks += 1
        return True

    @property
    def _queue_gauge(self) -> Optional[Tuple[int, int, int]]:
        """``net.link.queue_depth`` as the registry reads it: None until
        something has queued, then ``(depth now, 0, deepest)`` — the
        queue starts empty, so 0 is its true minimum. The depth is
        unpromoted: a packet whose service has started by now but that
        nothing has touched since still counts."""
        peak = self._queue_peak
        if not peak:
            return None
        return len(self._egress), 0, peak

    @property
    def in_flight(self) -> int:
        """Packets accepted and neither delivered nor dropped yet."""
        return len(self._egress) + len(self._flight)

    @property
    def in_flight_bytes(self) -> int:
        return self._egress_bytes + sum(packet.size_bytes
                                        for _at, packet in self._flight)

    @property
    def queue_depth(self) -> int:
        """Packets currently waiting (excludes the one being serialized)."""
        now = self.sim.now
        if self._offers:
            self._admit_due(now)
        if self._egress and self._service_done <= now:
            self._advance(now)
        return len(self._egress)

    # -- fault state -------------------------------------------------------

    def set_up(self, up: bool) -> None:
        """Raise or cut the link; cutting loses every queued packet."""
        if up == self.up:
            return
        self._admit_due(self.sim.now)
        self.up = up
        self.sim.trace("fault", f"link {self.name} {'up' if up else 'down'}")
        if not up:
            # promote first: a serialization that already started stays
            # in flight and is dropped at its delivery time, exactly as
            # the old per-event chain behaved
            self._advance(self.sim.now)
            if self._egress:
                lost = len(self._egress)
                self._egress.clear()
                self.dropped_bytes += self._egress_bytes
                self._egress_bytes = 0
                self.dropped += lost
                self.dropped_down += lost

    def _drop(self, cause: str, at: float, size: int) -> bool:
        self.dropped += 1
        self.dropped_bytes += size
        if cause == "overflow":
            self.dropped_overflow += 1
        elif cause == "down":
            self.dropped_down += 1
        else:
            self.dropped_aqm += 1
        self.sim.trace("drop", f"link {self.name}: {cause}", at=at)
        return False

    def send(self, packet: Packet) -> bool:
        """Enqueue a packet; returns False (and counts a drop by cause)
        when the link is down, the queue is full, or an installed AQM
        discipline says drop. Tie rule: an offer
        (:meth:`send_at`) due at this instant is admitted first."""
        if self._flight is _NONE:
            self._open()
        now = self.sim.now
        if self._offers:
            self._admit_due(now)
        return self._admit(now, packet)

    def send_at(self, at: float, packet: Packet) -> None:
        """Offer ``packet`` as if :meth:`send` were called at time ``at``.

        ``at`` must be ``>= now`` and non-decreasing across calls (a link
        has one owner, offering at ``now + forwarding_delay_s``). The
        verdict is reached as of ``at`` and has nowhere to be returned.
        """
        if self._flight is _NONE:
            self._open()
        self._offers.append((at, packet))
        if not self._flight:
            # nothing owed to the flight: aim at the earliest this packet
            # can arrive (same association order as _start_service)
            rate = self.rate_bps
            due = (at + (packet.size_bytes * 8.0 / rate
                         if rate != _INF else 0.0)) + self.delay_s
            if due < self._wakeup_at:
                self._wakeup_at = due
                self._post_at(due, self._wake)

    def recall_offers(self, now: float) -> List[Tuple[float, Packet]]:
        """Take back the offers not yet due (their owner re-decides them)."""
        self._admit_due(now)
        recalled = list(self._offers)
        if recalled:  # never clear() the shared _NONE
            self._offers.clear()
        return recalled

    def _admit_due(self, now: float) -> None:
        """Admit every due offer, in order, each as of its own time; runs
        before anything else reads or changes the link."""
        offers = self._offers
        while offers and offers[0][0] <= now:
            at, packet = offers.popleft()
            self.offers_admitted += 1
            self._admit(at, packet)

    def _admit(self, now: float, packet: Packet) -> bool:
        """Admit ``packet`` as of time ``now``: fault state, queue
        capacity, then the serializer or the queue."""
        size = packet.size_bytes
        self.offered += 1
        self.offered_bytes += size
        if not self.up:
            return self._drop("down", now, size)
        if self._egress and self._service_done <= now:
            self._advance(now)
        if self._service_done > now:  # serializer busy: join the queue
            egress = self._egress
            if len(egress) >= self.queue_packets:
                return self._drop("overflow", now, size)
            egress.append((now, packet))
            self._egress_bytes += size
            qlen = len(egress)
            if qlen > self._queue_peak:
                # the simulator's peak is never below a link's
                self._queue_peak = qlen
                sim = self.sim
                if qlen > sim.link_peak_queue:
                    sim.link_peak_queue = qlen
            return True
        if self._aqm is not None:
            # an idle link is a zero sojourn, below any target: the
            # verdict is PASS, and CoDel leaves its dropping state
            self._aqm.on_dequeue(0.0, now)
        self._start_service(now, packet)
        return True

    def _start_service(self, start: float, packet: Packet) -> None:
        """Begin serializing ``packet`` at ``start`` and push its flight.

        The float chain (``done = start + tx``, ``deliver = done +
        delay``) reproduces the exact timestamps the old
        serialize/transmitted/deliver event pair computed.
        """
        size = packet.size_bytes
        rate = self.rate_bps
        done = start + (size * 8.0 / rate if rate != _INF else 0.0)
        self._service_done = done
        self.bytes_sent += size
        flight = self._flight
        flight.append((done + self.delay_s, packet))
        due = flight[0][0]
        if due < self._wakeup_at:
            self._wakeup_at = due
            self._post_at(due, self._wake)

    def _advance(self, now: float) -> None:
        """Promote queued packets whose service has started by ``now``.

        The sojourn a dequeue-side discipline (CoDel) sees is measured
        against the packet's deterministic *service-start* time — the
        pre-update ``_service_done`` chain — not the wall-clock moment
        the lazy promotion happens to run, so verdicts are identical no
        matter when the link is next touched.
        """
        egress = self._egress
        aqm = self._aqm
        while egress and self._service_done <= now:
            enq_at, packet = egress.popleft()
            size = packet.size_bytes
            self._egress_bytes -= size
            if aqm is not None:
                start = self._service_done
                verdict = aqm.on_dequeue(start - enq_at, start)
                if verdict != PASS and (verdict == DROP
                                        or not self._mark(packet)):
                    self._drop("aqm", now, size)
                    continue
            self._start_service(self._service_done, packet)

    def _drain(self) -> None:
        """Wake-up event: admit what was offered, hand over what is due.
        ``_wakeup_at`` names this event until the tail re-aims, so
        nothing in between re-posts; a stale wake-up falls through."""
        now = self.sim.now
        offers = self._offers
        while offers and offers[0][0] <= now:  # _admit_due, one frame less
            at, packet = offers.popleft()
            self.offers_admitted += 1
            self._admit(at, packet)
        flight = self._flight
        receiver = self.receiver
        while flight and flight[0][0] <= now:
            _at, packet = flight.popleft()
            if not self.up:
                self._drop("down", now, packet.size_bytes)  # cut mid-flight
                continue
            self.delivered += 1
            self.delivered_bytes += packet.size_bytes
            receiver(packet)
        if self._egress:
            self._advance(now)
        if self._wakeup_at <= now:
            self._wakeup_at = _INF
        if flight:
            due = flight[0][0]
        elif offers:
            # every pending offer arrives later than it is admitted
            due = offers[0][0]
        else:
            return
        if due < self._wakeup_at:
            self._wakeup_at = due
            self._post_at(due, self._wake)

    def __repr__(self) -> str:
        rate = ("inf" if self.rate_bps == float("inf")
                else f"{self.rate_bps/1e6:g}Mbps")
        return (f"<Link {self.name} {rate} {self.delay_s*1e3:g}ms "
                f"q={self.queue_depth}/{self.queue_packets}>")
