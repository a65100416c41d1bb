"""Active queue management for :class:`repro.net.links.Link`: CoDel.

The seed's links are pure drop-tail: a queue only signals congestion by
overflowing, which under sustained overload means deep standing queues,
inflated RTTs, and eventually congestion collapse (E18's control arm).
:class:`CoDelDiscipline` — Controlled Delay — drops or marks at
*dequeue* based on packet sojourn time, per the CoDel control law
(``interval / sqrt(count)``). It draws no random numbers: a verdict
depends on the sim clock and the queue alone, so a run stays
reproducible from ``(seed, topology)``.

In ECN mode (``ecn=True``) it asks the link to rewrite an ECT packet's
codepoint to CE instead of dropping it (mark-instead-of-drop); non-ECT
packets are still dropped. The link owns the actual drop/mark
bookkeeping — the discipline only returns a verdict.

Verdict protocol (consumed by ``Link``): ``on_dequeue(sojourn_s, now)``
is called when a packet is promoted into service, and with a zero
sojourn when a packet finds the link idle; it returns ``PASS``,
``DROP`` or ``MARK`` (a ``DROP`` removes the packet before it ever
serializes). Every arrival that finds the serializer busy joins the
queue unjudged.

A link with no discipline installed runs the same admission path with
the hook skipped, which is plain drop-tail; one may be installed or
removed at any time (:meth:`repro.net.links.Link.set_aqm`).
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = ["PASS", "DROP", "MARK", "CoDelDiscipline"]

#: verdicts a discipline may return
PASS = 0
DROP = 1
MARK = 2


class CoDelDiscipline:
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
        #: True when congestion should mark ECT packets instead of dropping
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
