"""Active queue management disciplines for :class:`repro.net.links.Link`.

The seed's links are pure drop-tail: a queue only signals congestion by
overflowing, which under sustained overload means deep standing queues,
inflated RTTs, and eventually congestion collapse (E18's control arm).
This module adds the two classic AQM families, both deterministic on the
sim clock so a run stays reproducible from ``(seed, topology)``:

* :class:`RedDiscipline` — Random Early Detection: an EWMA of the queue
  length drives an early drop/mark probability between two thresholds.
  Randomness comes from the link's own named RNG stream
  (``link-aqm:<name>``), never the global one.
* :class:`CoDelDiscipline` — Controlled Delay: drops/marks at *dequeue*
  based on packet sojourn time, per the CoDel control law
  (``interval / sqrt(count)``). No randomness at all.

Either discipline can run in ECN mode (``ecn=True``): instead of
dropping, it asks the link to rewrite an ECT packet's codepoint to CE
(mark-instead-of-drop); non-ECT packets are still dropped. The link owns
the actual drop/mark bookkeeping — a discipline only returns a verdict.

Verdict protocol (consumed by ``Link``):

* ``on_enqueue(queue_len, queue_bytes, packet, now)`` — called for every
  accepted arrival *before* it joins the queue; returns ``PASS``,
  ``DROP``, or ``MARK``.
* ``on_dequeue(sojourn_s, now)`` — called when a packet is promoted into
  service; same verdicts (a ``DROP`` here removes the packet before it
  ever serializes).

A link with no discipline installed runs the same admission path with
both hooks skipped, which is plain drop-tail; one may be installed or
removed at any time (:meth:`repro.net.links.Link.set_aqm`).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.net.packet import Packet

__all__ = ["PASS", "DROP", "MARK", "AqmDiscipline", "RedDiscipline",
           "CoDelDiscipline", "make_aqm"]

#: verdicts a discipline may return
PASS = 0
DROP = 1
MARK = 2


class AqmDiscipline:
    """Base discipline: pass everything (drop-tail behaviour)."""

    #: True when congestion should mark ECT packets instead of dropping
    ecn = False

    def bind(self, link) -> None:
        """Called once when installed on a link (RNG stream, name)."""

    def on_enqueue(self, queue_len: int, queue_bytes: int, packet: Packet,
                   now: float) -> int:
        return PASS

    def on_dequeue(self, sojourn_s: float, now: float) -> int:
        return PASS


class RedDiscipline(AqmDiscipline):
    """Random Early Detection over the *packet* queue length.

    The EWMA average queue tracks arrivals (with the standard idle-time
    correction: an empty queue decays the average by the packets that
    could have been serviced during the idle gap). Between ``min_th``
    and ``max_th`` the drop/mark probability ramps linearly to
    ``max_p``; at or above ``max_th`` every arrival is dropped/marked.
    """

    def __init__(self, min_th: float = 5.0, max_th: float = 15.0,
                 max_p: float = 0.1, weight: float = 0.2,
                 ecn: bool = False) -> None:
        if not 0 < min_th < max_th:
            raise ValueError("need 0 < min_th < max_th")
        if not 0.0 < max_p <= 1.0:
            raise ValueError("max_p must be in (0, 1]")
        if not 0.0 < weight <= 1.0:
            raise ValueError("weight must be in (0, 1]")
        self.min_th = min_th
        self.max_th = max_th
        self.max_p = max_p
        self.weight = weight
        self.ecn = ecn
        self.avg = 0.0
        self._rng = None
        self._idle_since: Optional[float] = 0.0
        self._service_rate_pps = 0.0

    def bind(self, link) -> None:
        self._rng = link.sim.rng(f"link-aqm:{link.name}")
        # idle decay needs a notion of "packets that could have left":
        # approximate with the link's rate over a nominal 1200 B packet
        if link.rate_bps != float("inf"):
            self._service_rate_pps = link.rate_bps / (1200.0 * 8.0)

    def on_enqueue(self, queue_len: int, queue_bytes: int, packet: Packet,
                   now: float) -> int:
        if queue_len == 0:
            if self._idle_since is None:
                self._idle_since = now
            idle = now - self._idle_since
            if idle > 0 and self._service_rate_pps > 0:
                self.avg *= (1.0 - self.weight) ** (idle
                                                    * self._service_rate_pps)
        else:
            self._idle_since = None
        self.avg += self.weight * (queue_len - self.avg)
        self._idle_since = now if queue_len == 0 else None
        if self.avg < self.min_th:
            return PASS
        congest = MARK if self.ecn else DROP
        if self.avg >= self.max_th:
            return congest
        p = self.max_p * (self.avg - self.min_th) / (self.max_th - self.min_th)
        if float(self._rng.random()) < p:
            return congest
        return PASS


class CoDelDiscipline(AqmDiscipline):
    """Controlled Delay: sojourn-time AQM, deterministic on the sim clock.

    Standard state machine (RFC 8289): once sojourn stays above
    ``target_s`` for a full ``interval_s``, enter the dropping state and
    drop/mark at ``interval / sqrt(count)`` spacing until sojourn falls
    below target.
    """

    def __init__(self, target_s: float = 0.005, interval_s: float = 0.1,
                 ecn: bool = False) -> None:
        if target_s <= 0 or interval_s <= 0:
            raise ValueError("target and interval must be positive")
        self.target_s = target_s
        self.interval_s = interval_s
        self.ecn = ecn
        self.count = 0
        self.dropping = False
        self._first_above: Optional[float] = None
        self._drop_next = 0.0

    def on_dequeue(self, sojourn_s: float, now: float) -> int:
        if sojourn_s < self.target_s:
            self._first_above = None
            self.dropping = False
            return PASS
        if not self.dropping:
            if self._first_above is None:
                self._first_above = now + self.interval_s
                return PASS
            if now < self._first_above:
                return PASS
            # sojourn has been above target for a full interval: start
            self.dropping = True
            # control-law memory: recent dropping states resume near the
            # previous rate instead of from scratch
            self.count = max(1, self.count - 2) if self.count > 2 else 1
            self._drop_next = now + self.interval_s / math.sqrt(self.count)
            return MARK if self.ecn else DROP
        if now >= self._drop_next:
            self.count += 1
            self._drop_next += self.interval_s / math.sqrt(self.count)
            return MARK if self.ecn else DROP
        return PASS


def make_aqm(name: str, **kwargs) -> Optional[AqmDiscipline]:
    """Discipline by name: ``"drop-tail"``/``""`` -> None (no AQM),
    ``"red"`` -> :class:`RedDiscipline`, ``"codel"`` ->
    :class:`CoDelDiscipline`. Extra kwargs reach the constructor."""
    if name in ("", "drop-tail", "droptail", "none"):
        return None
    if name == "red":
        return RedDiscipline(**kwargs)
    if name == "codel":
        return CoDelDiscipline(**kwargs)
    raise ValueError(f"unknown AQM discipline {name!r}")
