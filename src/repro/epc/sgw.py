"""S-GW: serving gateway — the mobility anchor between eNodeBs and P-GW.

In the control plane it relays session management between the MME (S11)
and the P-GW (S5).
"""

from __future__ import annotations

from typing import Optional

from repro.epc.agents import ControlAgent, ControlChannel, ControlMessage
from repro.epc.nas import CreateSessionRequest, CreateSessionResponse
from repro.simcore.simulator import Simulator


class Sgw(ControlAgent):
    """Serial S-GW agent relaying S11 <-> S5."""

    def __init__(self, sim: Simulator, name: str = "sgw",
                 service_time_s: float = 0.5e-3) -> None:
        super().__init__(sim, name, service_time_s)
        self.s11: Optional[ControlChannel] = None
        self.s5: Optional[ControlChannel] = None

    def connect_mme(self, channel: ControlChannel) -> None:
        """Register the S11 channel toward the MME."""
        self.s11 = channel

    def connect_pgw(self, channel: ControlChannel) -> None:
        """Register the S5 channel toward the P-GW."""
        self.s5 = channel

    def handle(self, message: ControlMessage) -> None:
        payload = message.payload
        if isinstance(payload, CreateSessionRequest):
            self.s5.send(self, payload)           # relay toward P-GW
        elif isinstance(payload, CreateSessionResponse):
            self.s11.send(self, payload)          # relay back to MME
