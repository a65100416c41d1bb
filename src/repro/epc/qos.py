"""Per-bearer QoS policing for the S-GW/P-GW user plane.

PR 6 bounded the *control* plane (``epc/overload.py``: bounded agent
queues, class-aware shedding). This is the data-plane mirror: under
sustained overload the combined gateway (:class:`EpcDataPlane` is the
co-located S-GW/P-GW user plane) must keep guaranteed-bitrate bearers
flowing and shed bulk traffic *first*, instead of letting every flow
degrade equally in one shared drop-tail queue.

Same discipline protocol as the control-plane module: an immutable
:class:`QosPolicy`, small-integer traffic classes ordered by importance
(lower = more important), and shedding accounted by class so the
conservation law ``offered == admitted + shed`` is auditable.

Mechanics — classic LTE bearer policing, simplified to three classes:

* :data:`CLASS_GBR` (voice-like bearers) draws from a token bucket
  refilled at the policy's guaranteed rate.
* :data:`CLASS_INTERACTIVE` and :data:`CLASS_BULK` (non-GBR bearers)
  share the remaining rate in proportion to ``policy.weights``.
* Borrowing is strictly *downward* in priority: a GBR packet whose own
  bucket is empty may spend interactive or bulk tokens, interactive may
  spend bulk tokens, bulk spends only its own — so when the offered
  load exceeds the policed rate, bulk starves first, interactive
  second, and the guaranteed class last. That ordering is the
  "Paging outranks a fresh attach" story of ``overload.py``, restated
  for bytes.

Buckets refill lazily on the sim clock (pure float arithmetic per
``admit``), so the policer schedules nothing and a data plane without
one installed pays a single ``is None`` check per packet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.net.packet import Packet
from repro.simcore.simulator import Simulator

__all__ = ["QosPolicy", "BearerPolicer", "CLASS_GBR", "CLASS_INTERACTIVE",
           "CLASS_BULK", "CLASS_NAMES"]

#: guaranteed-bitrate bearers (voice): must keep flowing under overload.
CLASS_GBR = 0
#: non-GBR interactive traffic (web): weighted share of what remains.
CLASS_INTERACTIVE = 1
#: non-GBR bulk (video segments, downloads): first to shed.
CLASS_BULK = 2

CLASS_NAMES = ("gbr", "interactive", "bulk")


@dataclass(frozen=True)
class QosPolicy:
    """Token-bucket configuration for one gateway's policer.

    Attributes:
        rate_bps: aggregate rate the policer admits, all classes
            combined (typically sized to the backhaul bottleneck so the
            *policer* decides who degrades, not a FIFO queue).
        gbr_bps: slice of ``rate_bps`` reserved for GBR bearers.
        weights: ``(interactive, bulk)`` proportions of the non-GBR
            remainder (``rate_bps - gbr_bps``).
        burst_bytes: depth of each class's bucket — how much of an idle
            class's rate can be banked for a burst.
    """

    rate_bps: float
    gbr_bps: float = 0.0
    weights: Tuple[float, float] = (3.0, 1.0)
    burst_bytes: int = 30_000

    def __post_init__(self) -> None:
        if self.rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if not 0.0 <= self.gbr_bps < self.rate_bps:
            raise ValueError("gbr_bps must be in [0, rate_bps)")
        if len(self.weights) != 2 or any(w <= 0 for w in self.weights):
            raise ValueError("weights must be two positive numbers "
                             "(interactive, bulk)")
        if self.burst_bytes < 1:
            raise ValueError("burst_bytes must hold at least one byte")


class BearerPolicer:
    """Admit-or-shed gate for a gateway data plane.

    Bearers register their transport flow ids with a class
    (:meth:`register_bearer`); unregistered flows are policed as
    :data:`CLASS_BULK`, so forgetting to classify a flow can only make
    it shed *earlier*, never jump the guarantee.
    """

    def __init__(self, sim: Simulator, policy: QosPolicy,
                 name: str = "policer") -> None:
        self.sim = sim
        self.policy = policy
        self.name = name
        self._class_by_flow: Dict[str, int] = {}
        non_gbr = policy.rate_bps - policy.gbr_bps
        w_total = policy.weights[0] + policy.weights[1]
        #: refill rates in bytes/second, indexed by class
        self._rates = (
            policy.gbr_bps / 8.0,
            non_gbr * policy.weights[0] / w_total / 8.0,
            non_gbr * policy.weights[1] / w_total / 8.0,
        )
        cap = float(policy.burst_bytes)
        self._cap = cap
        self._tokens = [cap, cap, cap]
        self._last_refill = sim.now
        # ledger: offered == admitted + shed, also split by class
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self.admitted_bytes = 0
        self.shed_bytes = 0
        self.offered_by_class = [0, 0, 0]
        self.shed_by_class = [0, 0, 0]
        metrics = sim.metrics
        self._m_shed = {
            cls: metrics.counter("epc.qos.shed", policer=name,
                                 qos_class=CLASS_NAMES[cls])
            for cls in (CLASS_GBR, CLASS_INTERACTIVE, CLASS_BULK)
        }

    def register_bearer(self, flow_id: str, qos_class: int) -> None:
        """Bind a transport flow id to a QoS class."""
        if qos_class not in (CLASS_GBR, CLASS_INTERACTIVE, CLASS_BULK):
            raise ValueError(f"unknown QoS class {qos_class!r}")
        self._class_by_flow[flow_id] = qos_class

    def deregister_bearer(self, flow_id: str) -> None:
        """Remove a binding (bearer teardown)."""
        self._class_by_flow.pop(flow_id, None)

    def admit(self, packet: Packet) -> bool:
        """Spend tokens for the packet; False means shed it."""
        now = self.sim.now
        elapsed = now - self._last_refill
        tokens = self._tokens
        if elapsed > 0.0:
            rates = self._rates
            cap = self._cap
            for i in range(3):
                filled = tokens[i] + rates[i] * elapsed
                tokens[i] = filled if filled < cap else cap
            self._last_refill = now
        cls = self._class_by_flow.get(packet.flow_id, CLASS_BULK)
        size = packet.size_bytes
        self.offered += 1
        self.offered_by_class[cls] += 1
        # own bucket first, then borrow strictly downward in priority
        for source in range(cls, 3):
            if tokens[source] >= size:
                tokens[source] -= size
                self.admitted += 1
                self.admitted_bytes += size
                return True
        self.shed += 1
        self.shed_bytes += size
        self.shed_by_class[cls] += 1
        self._m_shed[cls].inc()
        return False
