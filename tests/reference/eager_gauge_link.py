"""Test oracle: a link whose ``net.link.queue_depth`` gauge is set on
every change to its egress queue.

Frozen copies of the ``Link`` bodies production ran until the gauge was
read from the link at export: ``set_up``'s flush, ``_admit``'s append
and each pop of ``_advance`` set a get-or-create ``Gauge``, so links
sharing a name shared one gauge whose value is whichever set it last.
Production now declares the gauge with ``MetricsRegistry.mirror`` and
reads ``Link._queue_gauge``; ``test_link_gauge_twin.py`` drives both and
requires equal rows. The copies lost the loss draw, the byte cap and the
enqueue-side AQM hook when ``Link`` did: the twin no longer drives them.
Put these links on a simulator of their own: their gauge is an ``set``
one, which a mirrored one of the same name refuses.
"""

from __future__ import annotations

from repro.net.aqm import DROP, PASS
from repro.net.links import Link
from repro.net.packet import Packet


class EagerGaugeLink(Link):
    """``Link`` with the queue gauge set eagerly."""

    _LEDGER = tuple(entry for entry in Link._LEDGER if len(entry) == 3)

    def __init__(self, sim, *args, **kwargs) -> None:
        super().__init__(sim, *args, **kwargs)
        self._m_queue = sim.metrics.gauge("net.link.queue_depth",
                                          link=self.name)

    def set_up(self, up: bool) -> None:
        if up == self.up:
            return
        self._admit_due(self.sim.now)
        self.up = up
        self.sim.trace("fault", f"link {self.name} {'up' if up else 'down'}")
        if not up:
            self._advance(self.sim.now)
            if self._egress:
                lost = len(self._egress)
                self._egress.clear()
                self.dropped_bytes += self._egress_bytes
                self._egress_bytes = 0
                self.dropped += lost
                self.dropped_down += lost
                self._m_queue.set(0)

    def _admit(self, now: float, packet: Packet) -> bool:
        size = packet.size_bytes
        self.offered += 1
        self.offered_bytes += size
        if not self.up:
            return self._drop("down", now, size)
        if self._egress and self._service_done <= now:
            self._advance(now)
        if self._service_done > now:
            egress = self._egress
            if len(egress) >= self.queue_packets:
                return self._drop("overflow", now, size)
            egress.append((now, packet))
            self._egress_bytes += size
            qlen = len(egress)
            self._m_queue.set(qlen)
            sim = self.sim
            if qlen > sim.link_peak_queue:
                sim.link_peak_queue = qlen
            return True
        if self._aqm is not None:
            self._aqm.on_dequeue(0.0, now)
        self._start_service(now, packet)
        return True

    def _advance(self, now: float) -> None:
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
                    self._m_queue.set(len(egress))
                    continue
            self._start_service(self._service_done, packet)
            self._m_queue.set(len(egress))
