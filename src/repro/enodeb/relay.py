"""The eNodeB control-plane relay: NAS passes through.

NAS is end-to-end between UE and MME/stub; the eNodeB just relays it
(adding air-interface and S1 latency).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.epc.agents import ControlAgent, ControlChannel, ControlMessage
from repro.epc.nas import NasMessage
from repro.simcore.simulator import Simulator

#: NAS downlink messages are addressed by ue_id; everything arriving on
#: S1 with a ue_id we serve goes down; everything from the air goes up.


class EnbControlRelay(ControlAgent):
    """Relays NAS between per-UE air channels and the S1 channel."""

    def __init__(self, sim: Simulator, name: str,
                 service_time_s: float = 0.2e-3) -> None:
        super().__init__(sim, name, service_time_s)
        self.s1: Optional[ControlChannel] = None
        self._air: Dict[str, ControlChannel] = {}   # ue_id -> air channel
        self.nas_relayed = 0

    def connect_core(self, channel: ControlChannel) -> None:
        """Register the S1 channel toward the serving core."""
        self.s1 = channel

    def attach_ue(self, ue_id: str, air_channel: ControlChannel) -> None:
        """Register a UE's air channel (RRC connection established)."""
        self._air[ue_id] = air_channel

    def detach_ue(self, ue_id: str) -> None:
        """Release a UE's RRC connection."""
        self._air.pop(ue_id, None)

    def handle(self, message: ControlMessage) -> None:
        payload = message.payload
        if not isinstance(payload, NasMessage):
            return
        came_from_core = (self.s1 is not None
                          and message.sender is self.s1.other_end(self))
        if came_from_core:
            air = self._air.get(payload.ue_id)
            if air is not None:
                self.nas_relayed += 1
                air.send(self, payload)
        else:
            if self.s1 is not None:
                self.nas_relayed += 1
                self.s1.send(self, payload)
