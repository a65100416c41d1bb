"""P-GW: packet gateway — IP anchor of the carrier EPC.

Allocates UE addresses from the carrier's pool and terminates the GTP
data path. In centralized LTE *every* user packet crosses this box
(Fig. 1's "all traffic tunnels through the EPC"); in dLTE its only
remaining duties — address allocation and tunnel termination — happen
inside the per-AP stub.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.epc.agents import ControlAgent, ControlChannel, ControlMessage
from repro.epc.nas import CreateSessionRequest, CreateSessionResponse
from repro.net.addressing import AddressPool, PoolExhausted
from repro.simcore.simulator import Simulator


class Pgw(ControlAgent):
    """Serial P-GW agent: session creation over S5."""

    def __init__(self, sim: Simulator, pool: AddressPool, name: str = "pgw",
                 service_time_s: float = 0.5e-3) -> None:
        super().__init__(sim, name, service_time_s)
        self.pool = pool
        self.s5: Optional[ControlChannel] = None
        self._teids = itertools.count(1000)
        self.rejected = 0

    def connect_sgw(self, channel: ControlChannel) -> None:
        """Register the S5 channel toward the S-GW."""
        self.s5 = channel

    def handle(self, message: ControlMessage) -> None:
        payload = message.payload
        if isinstance(payload, CreateSessionRequest):
            self._create_session(payload)

    def _create_session(self, request: CreateSessionRequest) -> None:
        try:
            address = self.pool.allocate()
        except PoolExhausted:
            self.rejected += 1
            self.s5.send(self, CreateSessionResponse(
                ue_id=request.ue_id, cause="no-addresses"))
            return
        self.s5.send(self, CreateSessionResponse(
            ue_id=request.ue_id, ue_address=address,
            sgw_teid=next(self._teids), enb_teid=next(self._teids),
            cause="ok"))
