"""Overload protection for control-plane agents (bounded queues + T3346).

The seed models overload as *infinite patience*: every
:class:`~repro.epc.agents.ControlAgent` carries an unbounded FIFO, so a
stadium-scale attach storm only ever shows up as queueing delay. Real
cores bound their queues and shed — and, per 3GPP's congestion-control
pattern (T3346), tell rejected UEs *when to come back* so the flash
crowd decays instead of synchronizing into a retry storm.

This module is pure policy: an immutable :class:`OverloadPolicy` plus a
NAS message classifier. Agents opt in via
``ControlAgent.configure_overload(policy)``; with no policy installed
the agent's hot path is byte-identical to the seed.

One shedding rule, priority eviction with a queue-full fallback: an
arrival that finds the queue full evicts the *lowest-priority,
youngest* queued message if that message is strictly less important
(cause ``priority``), so Paging, ServiceRequest and context release
survive an AttachRequest flood. An AttachRequest never evicts, and an
arrival that finds nothing less important waiting is shed itself
(cause ``queue-full``): over a queue of equals the rule is drop-tail.

Admission control is orthogonal to shedding: when the backlog reaches
``admission_limit``, *new work* (AttachRequest) is refused at enqueue
time — before it costs any service time — and agents that know how to
route a reply send ``AttachReject(cause="congestion",
backoff_s=policy.congestion_backoff_s)`` so the UE backs off for a
server-assigned interval instead of hammering the timeout.

Every shed is accounted by cause; the conservation law
``enqueued == served + shed + in_queue`` is auditable per agent via
:meth:`repro.invariants.InvariantChecker.watch_agent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.epc import nas

__all__ = ["OverloadPolicy", "message_class",
           "CLASS_CRITICAL", "CLASS_PROCEDURE", "CLASS_NEW_WORK"]

#: must keep flowing under overload: reachability and idle-exit.
CLASS_CRITICAL = 0
#: mid-procedure steps — shedding these wastes work already invested.
CLASS_PROCEDURE = 1
#: brand-new work: first to shed, cheapest to refuse.
CLASS_NEW_WORK = 2

#: payload types that stay deliverable during an attach flood: Paging
#: and ServiceRequest keep already-attached users reachable, and
#: context release lets the core shrink state.
_CRITICAL_TYPES = (nas.Paging, nas.ServiceRequest, nas.UeContextRelease)


def message_class(payload: object) -> int:
    """Priority class of a control payload (lower = more important)."""
    if isinstance(payload, nas.AttachRequest):
        return CLASS_NEW_WORK
    if isinstance(payload, _CRITICAL_TYPES):
        return CLASS_CRITICAL
    return CLASS_PROCEDURE


@dataclass(frozen=True)
class OverloadPolicy:
    """Bounded-queue + admission-control configuration for one agent.

    Attributes:
        queue_limit: max messages *waiting* (the one in service is not
            counted); an arrival beyond this evicts a less important
            waiter or is shed (see module docstring).
        admission_limit: backlog depth at which new AttachRequests are
            refused with a congestion reject; ``None`` disables
            admission control (attaches then compete like any other
            message).
        congestion_backoff_s: the T3346 analogue carried in
            ``AttachReject.backoff_s`` — the server-assigned minimum
            wait before the UE may retry.
    """

    queue_limit: int
    admission_limit: Optional[int] = None
    congestion_backoff_s: float = 2.0

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.admission_limit is not None and self.admission_limit < 1:
            raise ValueError("admission_limit must be >= 1")
        if self.congestion_backoff_s < 0:
            raise ValueError("congestion_backoff_s must be non-negative")
