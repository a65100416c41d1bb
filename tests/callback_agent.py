"""A control agent whose handler is a plain callable.

The control-plane tests drive :class:`repro.epc.agents.ControlAgent`'s
queueing, shedding and channel plumbing through this agent; nothing in
``src/`` needs one.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.epc.agents import ControlAgent, ControlMessage
from repro.simcore.simulator import Simulator


class CallbackAgent(ControlAgent):
    """An agent that hands every served message to ``handler``."""

    def __init__(self, sim: Simulator, name: str,
                 handler: Optional[Callable[[ControlMessage], None]] = None,
                 service_time_s: float = 0.0) -> None:
        super().__init__(sim, name, service_time_s)
        self._handler = handler

    def handle(self, message: ControlMessage) -> None:
        if self._handler is not None:
            self._handler(message)
