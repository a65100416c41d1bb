"""Test oracle: the router hop as nine frames, before it was fused.

Frozen copies of the bodies production ran until ``Router.receive``
became the one forwarding body and ``Link._drain`` admitted due offers
in its own loop: ``NetworkNode.receive`` → ``Router.handle`` →
``Router.lookup`` for a router, and ``Link._drain`` → ``Link._admit_due``
for a link. The local-delivery branch of the old ``handle`` is left
out: the ``local_handler`` / ``local_addresses`` hook it served was
deleted with the fusion, and nothing had set it.

Production must match these bit for bit; ``test_hop_twin.py`` runs
random chains through both. Build a chain from :class:`ReferenceRouter`
and :class:`ReferenceLink` only: a production ``Link`` under a
reference router is still the fused drain.
"""

from typing import Optional

from repro.net.addressing import IPv4Address, address_key
from repro.net.links import Link
from repro.net.nodes import Router
from repro.net.packet import Packet

_INF = float("inf")


class ReferenceRouter(Router):
    """``Router`` with its hop split over ``receive`` / ``handle`` /
    ``lookup`` again."""

    def receive(self, packet: Packet) -> None:
        """Entry point for packets arriving on any inbound link."""
        self.received += 1
        hops = packet.hops  # Packet.record_hop, inlined: once per hop
        if hops is None:
            packet.hops = [self.name]
        else:
            hops.append(self.name)
        self.handle(packet)

    def lookup(self, dst: IPv4Address) -> Optional[str]:
        """Next-hop neighbour for ``dst`` (longest match, then default)."""
        key = address_key(dst)
        try:
            neighbor = self._fib[key]
        except KeyError:
            neighbor = self._fib[key] = next(
                (name for net, name in self._routes if dst in net), None)
        return neighbor if neighbor is not None else self.default_route

    def handle(self, packet: Packet) -> None:
        dst = packet.dst
        link = None if dst is None else self.links.get(self.lookup(dst))
        if link is None:
            self.no_route += 1
            return
        self.forwarded += 1
        self._offered_until = at = self.sim.now + self.forwarding_delay_s
        link.send_at(at, packet)


class ReferenceLink(Link):
    """``Link`` whose wake-up admits through ``_admit_due`` and posts
    through ``self.sim.post_at(due, self._drain)`` again."""

    def _admit_due(self, now: float) -> None:
        """Admit every due offer, in order, each as of its own time; runs
        before anything else reads or changes the link."""
        offers = self._offers
        while offers and offers[0][0] <= now:
            at, packet = offers.popleft()
            self.offers_admitted += 1
            self._admit(at, packet)

    def _drain(self) -> None:
        """Wake-up event: admit what was offered, hand over what is due.
        ``_wakeup_at`` names this event until the tail re-aims, so
        nothing in between re-posts; a stale wake-up falls through."""
        now = self.sim.now
        offers = self._offers
        if offers and offers[0][0] <= now:
            self._admit_due(now)
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
            self.sim.post_at(due, self._drain)
