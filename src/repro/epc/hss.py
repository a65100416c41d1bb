"""HSS: the home subscriber server.

Holds the private subscriber database and mints authentication vectors
for MMEs over S6a. In the carrier architecture this is the component
whose secret-key custody "drives a need to securely store secret keys
and connection metadata" (§2.1) — the thing dLTE replaces with key
publication.
"""

from __future__ import annotations

from typing import Dict

from repro.epc.agents import ControlAgent, ControlChannel, ControlMessage
from repro.epc.crypto import generate_auth_vector
from repro.epc.nas import AuthInfoAnswer, AuthInfoRequest
from repro.epc.subscriber import SubscriberDb
from repro.simcore.simulator import Simulator


class Hss(ControlAgent):
    """Serial HSS agent answering S6a AuthInfoRequests."""

    def __init__(self, sim: Simulator, name: str = "hss",
                 service_time_s: float = 1e-3) -> None:
        super().__init__(sim, name, service_time_s)
        self.db = SubscriberDb()
        self._channels: Dict[str, ControlChannel] = {}  # peer name -> channel
        self._sqn: Dict[str, int] = {}
        self.vectors_issued = 0
        self.unknown_imsis = 0

    def connect_mme(self, channel: ControlChannel) -> None:
        """Register the S6a channel toward an MME."""
        peer = channel.other_end(self)
        self._channels[peer.name] = channel

    def handle(self, message: ControlMessage) -> None:
        payload = message.payload
        if isinstance(payload, AuthInfoRequest):
            self._answer_auth_info(message.sender.name, payload)

    def _answer_auth_info(self, mme_name: str, request: AuthInfoRequest) -> None:
        channel = self._channels.get(mme_name)
        if channel is None:
            return  # S6a from an unknown MME: drop (no peering)
        profile = self.db.lookup(request.imsi)
        if profile is None:
            self.unknown_imsis += 1
            answer = AuthInfoAnswer(ue_id=request.ue_id, cause="unknown-imsi")
        else:
            sqn = self._sqn.get(request.imsi, 0)
            self._sqn[request.imsi] = sqn + 1
            rand = bytes(self.sim.rng(f"hss:{self.name}").bytes(16))
            vector = generate_auth_vector(profile.key, rand, sqn=sqn)
            self.vectors_issued += 1
            answer = AuthInfoAnswer(ue_id=request.ue_id, vector=vector)
        channel.send(self, answer)
