"""WiFi DCF: slotted CSMA/CA with binary exponential backoff.

:class:`CsmaSimulation` is a slotted simulation over an explicit
*hearing graph*, so hidden terminals (nodes that contend for the same
receiver but cannot sense each other) are modelled exactly. Time
advances by next event: between two frame boundaries every slot only
decrements counters, so :meth:`CsmaSimulation.run` applies those quiet
slots in one step and executes only the slots in which a frame ends or
starts. This is the engine behind E5 (legacy-WiFi baseline) and E8
(hidden terminal losses vs registry coordination). In the
fully-connected case it agrees with Bianchi's analytic saturation
throughput, the oracle in ``tests/reference/bianchi.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

import numpy as np

from repro.telemetry.hub import ambient_registry
from repro.telemetry.registry import MetricsRegistry, linear_buckets

#: 802.11 DCF defaults (802.11b/g-era, matching Bianchi's parametrization).
CW_MIN = 16
CW_MAX = 1024
#: backoff draws are integers in [1, CW_MAX): 8-slot linear buckets
_BACKOFF_BUCKETS = linear_buckets(0.0, float(CW_MAX), 128)


@dataclass
class CsmaNode:
    """One contending station.

    Attributes:
        node_id: unique name.
        hears: node_ids whose transmissions this node can carrier-sense.
        destination: node_id of the receiver of this node's frames (an AP,
            or None for broadcast-style accounting at all neighbours).
        saturated: if True the node always has a frame queued.
    """

    node_id: str
    hears: FrozenSet[str] = frozenset()
    destination: Optional[str] = None
    saturated: bool = True

    # runtime state (managed by the simulation)
    backoff: int = field(default=0, repr=False)
    cw: int = field(default=CW_MIN, repr=False)
    tx_remaining: int = field(default=0, repr=False)
    sent: int = field(default=0, repr=False)
    delivered: int = field(default=0, repr=False)
    collided: int = field(default=0, repr=False)


@dataclass
class CsmaResult:
    """Aggregate outcome of a CSMA run."""

    #: slots simulated since construction, over every ``run()`` call
    slots: int
    frame_slots: int
    delivered: Dict[str, int]
    collided: Dict[str, int]
    busy_slots: int

    @property
    def total_delivered(self) -> int:
        """Frames successfully received across all nodes."""
        return sum(self.delivered.values())

    @property
    def total_collided(self) -> int:
        """Frames lost to collisions across all nodes."""
        return sum(self.collided.values())

    @property
    def collision_rate(self) -> float:
        """Fraction of transmitted frames that collided."""
        attempts = self.total_delivered + self.total_collided
        return self.total_collided / attempts if attempts else 0.0

    @property
    def channel_utilization(self) -> float:
        """Fraction of slots carrying a *successful* frame's payload."""
        return self.total_delivered * self.frame_slots / self.slots if self.slots else 0.0


class CsmaSimulation:
    """Slotted DCF over a hearing graph.

    Each slot: every idle node with a pending frame decrements its backoff
    if it senses the medium idle (no currently-transmitting node in its
    ``hears`` set); at backoff zero it transmits for ``frame_slots`` slots.
    A frame is delivered iff no other transmission overlapped in time at
    the *receiver's* hearing set; otherwise every overlapped transmitter
    collides, doubles its CW (to CW_MAX) and redraws backoff.

    The slot clock abstracts SIFS/DIFS/ACK detail into the frame length;
    Bianchi's model makes the same abstraction, so they are comparable.

    :meth:`_step` is the one definition of a slot. :meth:`run` calls it
    only for slots in which a frame ends or starts; the quiet slots in
    between change nothing but counters and are applied in bulk, so
    ``run(n)`` leaves exactly the state of ``n`` ``_step()`` calls.
    """

    def __init__(self, nodes: List[CsmaNode], rng: np.random.Generator,
                 frame_slots: int = 50,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if frame_slots <= 0:
            raise ValueError("frame_slots must be positive")
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        self.nodes = {n.node_id: n for n in nodes}
        for node in nodes:
            if (node.destination is not None
                    and node.destination not in self.nodes):
                raise ValueError(f"{node.node_id}: destination "
                                 f"{node.destination!r} names no node")
        self.rng = rng
        self.frame_slots = frame_slots
        self.slots = 0
        self.busy_slots = 0
        # the MAC runs outside any simulator; record into the ambient registry
        if metrics is None:
            metrics = ambient_registry()
        self._m_sent = metrics.counter("mac.csma.frames_sent")
        self._m_delivered = metrics.counter("mac.csma.frames_delivered")
        self._m_collisions = metrics.counter("mac.csma.collisions")
        self._m_backoff = metrics.histogram("mac.csma.backoff_slots",
                                            buckets=_BACKOFF_BUCKETS)
        for node in nodes:
            node.cw = CW_MIN
            node.backoff = int(self.rng.integers(0, node.cw))
            node.tx_remaining = 0
            node.sent = node.delivered = node.collided = 0
        # transmissions in flight: node_id -> set of node_ids that
        # transmitted concurrently at any point (for collision detection)
        self._overlaps: Dict[str, set] = {}

    def _senses_busy(self, node: CsmaNode, transmitting: List[str]) -> bool:
        return not node.hears.isdisjoint(transmitting)

    def run(self, slots: int) -> CsmaResult:
        """Advance the simulation ``slots`` slots and return aggregates.

        The result is cumulative: counts and ``slots`` cover every
        ``run()`` call since construction.
        """
        if slots < 0:
            raise ValueError("slots must be non-negative")
        nodes = list(self.nodes.values())
        remaining = slots
        while remaining > 0:
            on_air = [n for n in nodes if n.tx_remaining > 0]
            transmitting = [n.node_id for n in on_air]
            # idle contenders that sense the medium free: these count down
            counting = [n for n in nodes
                        if n.tx_remaining == 0 and n.saturated
                        and not self._senses_busy(n, transmitting)]
            # the next slot that ends a frame or starts one (a backoff of
            # 0 starts in the very next slot, like a backoff of 1); every
            # slot before it leaves both sets as they are
            event = remaining + 1
            for node in on_air:
                if node.tx_remaining < event:
                    event = node.tx_remaining
            for node in counting:
                due = node.backoff or 1
                if due < event:
                    event = due
            quiet = event - 1
            if quiet:
                if on_air:
                    self.busy_slots += quiet
                    self._note_overlaps(transmitting)
                for node in on_air:
                    node.tx_remaining -= quiet
                for node in counting:
                    node.backoff -= quiet
                remaining -= quiet
            if remaining:
                self._step()
                remaining -= 1
        self.slots += slots
        delivered = {nid: n.delivered for nid, n in self.nodes.items()}
        collided = {nid: n.collided for nid, n in self.nodes.items()}
        return CsmaResult(slots=self.slots, frame_slots=self.frame_slots,
                          delivered=delivered, collided=collided,
                          busy_slots=self.busy_slots)

    def _note_overlaps(self, transmitting: List[str]) -> None:
        """Record, for each frame on the air, who else is on the air."""
        for nid in transmitting:
            others = [o for o in transmitting if o != nid]
            self._overlaps.setdefault(nid, set()).update(others)

    def _step(self) -> None:
        transmitting = [nid for nid, n in self.nodes.items() if n.tx_remaining > 0]
        if transmitting:
            self.busy_slots += 1
        self._note_overlaps(transmitting)

        # progress transmissions; finish ones that end this slot
        finished: List[str] = []
        for nid in transmitting:
            node = self.nodes[nid]
            node.tx_remaining -= 1
            if node.tx_remaining == 0:
                finished.append(nid)
        for nid in finished:
            self._complete(nid)

        # backoff countdown for idle contenders
        still_transmitting = [nid for nid, n in self.nodes.items()
                              if n.tx_remaining > 0]
        starters: List[CsmaNode] = []
        for node in self.nodes.values():
            if node.tx_remaining > 0 or not node.saturated:
                continue
            if self._senses_busy(node, still_transmitting):
                continue
            if node.backoff > 0:
                node.backoff -= 1
            if node.backoff == 0:
                starters.append(node)
        for node in starters:
            node.tx_remaining = self.frame_slots
            node.sent += 1
            self._m_sent.inc()
            self._overlaps[node.node_id] = set()

    def _complete(self, nid: str) -> None:
        node = self.nodes[nid]
        overlapped = self._overlaps.pop(nid, set())
        receiver = (self.nodes[node.destination]
                    if node.destination is not None else None)
        if receiver is not None:
            # only overlaps audible at the receiver corrupt the frame
            harmful = {o for o in overlapped
                       if o in receiver.hears or o == receiver.node_id}
        else:
            harmful = overlapped
        if harmful:
            node.collided += 1
            self._m_collisions.inc()
            node.cw = min(node.cw * 2, CW_MAX)
        else:
            node.delivered += 1
            self._m_delivered.inc()
            node.cw = CW_MIN
        node.backoff = int(self.rng.integers(0, node.cw))
        if node.backoff == 0:
            node.backoff = 1  # DIFS gap: never back-to-back zero-slot grab
        self._m_backoff.observe(node.backoff)
